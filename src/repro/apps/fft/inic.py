"""INIC-offloaded distributed 2-D FFT (Figure 2(b)).

Identical four-step template to the baseline, but the entire transpose
— local block transpose, the exchange, and the final permutation — is
"pushed onto the INIC ... embedded in the communication at minimal
additional cost" (Section 3.1.2).  The host computes row FFTs and posts
descriptors; the card does the rest and raises one interrupt per
transpose.

Trace spans: ``fft-compute`` (host) and ``inic-exchange`` (card,
recorded by the driver) — Figure 4(b)'s "INIC Transpose Time".
"""

from __future__ import annotations

import numpy as np

from ...cluster.app import AppResult, ParallelApp
from ...cluster.builder import Cluster
from ...cluster.mpi import RankContext
from ...core.design import fft_transpose_design
from ...core.manager import INICManager
from ...errors import ApplicationError, OffloadError
from ...inic.card import SendBlock
from ...models.params import DEFAULT_PARAMS, MachineParams
from ...protocols.inicproto import TransferPlan
from .parallel import fft_row_pass
from .transpose import split_rows

__all__ = ["inic_fft2d", "inic_ifft2d", "inic_transpose"]


def inic_transpose(
    ctx: RankContext,
    manager: INICManager,
    panel: np.ndarray,
    phase_tag: int,
):
    """Generator: the fully offloaded transpose for one rank."""
    p = ctx.size
    m, n = panel.shape
    if n % p != 0 or n // p != m:
        raise ApplicationError(
            f"panel {panel.shape} is not a square-matrix row block over {p} ranks"
        )
    driver = manager.driver(ctx.rank)
    card = driver.card
    tcore = card.require_core("local-transpose")
    pcore = card.require_core("final-permutation")
    block_bytes = m * m * panel.dtype.itemsize

    # Send blocks in rotated order (self last): the card streams them
    # host->card->wire, transposing inline via the transpose core.
    order = [(ctx.rank + shift) % p for shift in range(1, p)] + [ctx.rank]
    transposed = tcore.apply_panel(panel, p)
    addrs = manager.cluster.addresses
    blocks = [SendBlock(addrs[dst], block_bytes, transposed[dst]) for dst in order]

    # The custom protocol knows exactly how much to expect from whom.
    plan = TransferPlan(
        ctx.sim,
        {src: block_bytes for src in range(p)},
        name=f"transpose.{ctx.rank}.{phase_tag}",
    )

    def assemble(sources: list[int], payloads: list) -> np.ndarray:
        if len(sources) != p:
            raise OffloadError(
                f"transpose.{ctx.rank}: gathered {len(sources)} blocks from "
                f"{p} ranks"
            )
        return pcore.assemble(sources, payloads)

    result = yield from driver.exchange(phase_tag, blocks, plan, assemble)
    return result


def inic_fft2d(
    cluster: Cluster,
    manager: INICManager,
    matrix: np.ndarray,
    params: MachineParams = DEFAULT_PARAMS,
    configure: bool = True,
) -> tuple[np.ndarray, AppResult]:
    """Run the INIC 2-D FFT; returns (result, timing).

    ``configure=True`` loads the transpose design first (outside the
    timed region, as the paper's one-time setup).
    """
    a = np.ascontiguousarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ApplicationError(f"need a square matrix, got {a.shape}")
    p = cluster.size
    if configure:
        manager.configure_all(fft_transpose_design)
    panels = split_rows(a, p)

    def program(ctx: RankContext):
        panel = panels[ctx.rank].copy()
        panel = yield from fft_row_pass(ctx, panel, params)  # step 1
        panel = yield from inic_transpose(ctx, manager, panel, 0xF1)  # step 2
        panel = yield from fft_row_pass(ctx, panel, params)  # step 3
        panel = yield from inic_transpose(ctx, manager, panel, 0xF2)  # step 4
        return panel

    app = ParallelApp(cluster)
    result = app.run(program)
    full = np.vstack(result.rank_results)
    return full, result


def inic_ifft2d(
    cluster: Cluster,
    manager: INICManager,
    matrix: np.ndarray,
    params: MachineParams = DEFAULT_PARAMS,
    configure: bool = True,
) -> tuple[np.ndarray, AppResult]:
    """Inverse 2-D FFT on the ACC (conjugation around the forward run)."""
    a = np.ascontiguousarray(matrix, dtype=np.complex128)
    out, result = inic_fft2d(cluster, manager, np.conj(a), params, configure)
    n = a.shape[0] * a.shape[1] if a.ndim == 2 else 0
    return np.conj(out) / n, result
