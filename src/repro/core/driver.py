"""Host-side INIC driver.

What the node's CPU actually does when the INIC is in charge: write a
descriptor (cheap — "starting a send is handled by hardware that sits
idle if no send is in progress"), then go do something useful until the
card's single completion interrupt.  The driver also stamps trace spans
so benchmark decompositions can separate offloaded-communication time
from host compute.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import OffloadError
from ..inic.card import Assemble, GatherOp, INICCard, ScatterOp, SendBlock
from ..protocols.inicproto import TransferPlan
from ..sim.trace import TraceRecorder

__all__ = ["HostDriver"]

#: CPU seconds to write one descriptor (a few PIO writes)
DESCRIPTOR_POST_COST = 1e-6


class HostDriver:
    """Descriptor-level interface between a node's CPU and its card."""

    def __init__(self, card: INICCard, trace: Optional[TraceRecorder] = None):
        self.card = card
        self.trace = trace
        self.sim = card.sim
        self.descriptors_posted = 0

    # -- descriptor posts --------------------------------------------------------
    def _charge_post(self, n_descriptors: int = 1):
        """Generator: charge the (tiny) host cost of descriptor writes."""
        self.descriptors_posted += n_descriptors
        if self.card.cpu is not None:
            yield from self.card.cpu.busy(DESCRIPTOR_POST_COST * n_descriptors)

    def scatter(
        self,
        tag: int,
        blocks: list[SendBlock],
        window_bytes: int | None = None,
        train: bool = False,
    ):
        """Generator: post a scatter; returns the :class:`ScatterOp`.

        ``window_bytes`` narrows the per-destination flow window for
        incast-shaped operations (see :class:`~repro.inic.card.CardSpec`).
        ``train`` marks the blocks as one sender's slice of a bulk
        exchange so the card may take the flow-clock fast path.
        """
        yield from self._charge_post(len(blocks))
        return self.card.post_scatter(tag, blocks, window_bytes, train=train)

    def gather(
        self,
        tag: int,
        plan: TransferPlan,
        assemble: Optional[Assemble] = None,
        reduce_core=None,
    ):
        """Generator: post a gather; returns the :class:`GatherOp`."""
        yield from self._charge_post(1)
        return self.card.post_gather(tag, plan, assemble, reduce_core)

    def exchange(
        self,
        tag: int,
        blocks: list[SendBlock],
        plan: TransferPlan,
        assemble: Optional[Assemble] = None,
    ):
        """Generator: the all-to-all primitive — post gather then scatter,
        wait for the gather to complete, return its assembled result
        (``assemble(sources, payloads)``, see
        :meth:`~repro.inic.card.GatherOp.by_source`).

        Records a ``inic-exchange`` trace span covering the whole
        offloaded operation (what Fig. 4(b) calls "INIC Transpose Time").
        """
        span = self.trace.open("inic-exchange", card=self.card.name) if self.trace else None
        gop: GatherOp = yield from self.gather(tag, plan, assemble)
        sop: ScatterOp = yield from self.scatter(tag, blocks, train=True)
        result = yield gop.done
        yield sop.sent  # always already done, but keeps invariants explicit
        if span is not None:
            span.close()
        return result

    # -- protocol-processor mode ----------------------------------------------------
    def send_message(self, dst, nbytes: int, payload: Any = None, tag: int = 0):
        """Generator: reliable large-message send via the card (PROTOCOL
        mode): the host never touches packets or interrupts."""
        if nbytes < 1:
            raise OffloadError(f"cannot send {nbytes} bytes")
        yield from self._charge_post(1)
        op = self.card.post_scatter(tag, [SendBlock(dst, nbytes, payload)])
        yield op.sent
        return op

    def recv_message(self, src, nbytes: int, tag: int = 0):
        """Generator: matching receive; returns the payload."""
        yield from self._charge_post(1)
        plan = TransferPlan(self.sim, {src.value: nbytes}, name=f"recv#{tag}")
        op = self.card.post_gather(tag, plan)
        payloads = yield op.done
        items = payloads.get(src.value, [None])
        return items[-1]
