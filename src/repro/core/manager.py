"""Cluster-wide INIC management.

Configures every card in an ACC with a design (in parallel — bitstream
loads are per-card), validates modes, and hands out per-node
:class:`~repro.core.driver.HostDriver` instances.  Reconfiguration
between applications is counted, so ablations can charge the paper's
bitstream-load latency when an application switches designs mid-run.
"""

from __future__ import annotations

from typing import Callable

from ..cluster.builder import Cluster
from ..errors import ConfigurationError
from ..inic.bitstream import Design
from .driver import HostDriver
from .modes import validate_mode_cores

__all__ = ["INICManager"]


class INICManager:
    """Owns the cards of one ACC cluster."""

    def __init__(self, cluster: Cluster):
        if cluster.spec.inic is None:
            raise ConfigurationError(
                "cluster was built without INIC cards; use Experiment().card(...)"
            )
        self.cluster = cluster
        self.drivers = [
            HostDriver(node.require_inic(), trace=cluster.trace)
            for node in cluster.nodes
        ]

    def driver(self, rank: int) -> HostDriver:
        return self.drivers[rank]

    def configure_all(
        self, design_factory: Callable[[], Design], max_attempts: int = 2
    ) -> float:
        """Configure every card (fresh design instance per card, since
        cores carry per-card statistics).  Runs the loads in parallel and
        returns the elapsed configuration time.

        A bitstream load that fails readback (only possible under an
        injected configuration fault) is retried up to ``max_attempts``
        times per card — each attempt paying the full reconfiguration
        latency — before :class:`~repro.errors.ConfigurationError`
        escapes to the caller, who may degrade to the host-TCP path.
        """
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        sim = self.cluster.sim
        t0 = sim.now
        procs = []
        for node in self.cluster.nodes:
            design = design_factory()
            validate_mode_cores(design.mode, [c.spec.name for c in design.cores])

            def load(card=node.require_inic(), d=design):
                for attempt in range(max_attempts):
                    try:
                        yield from card.configure(d)
                        return
                    except ConfigurationError:
                        if attempt + 1 >= max_attempts:
                            raise

            procs.append(sim.process(load(), name=f"cfg.{node.rank}"))
        sim.run(until=sim.all_of(procs))
        return sim.now - t0

    def reconfigurations(self) -> int:
        """Total bitstream loads across the cluster so far."""
        return sum(
            node.require_inic().fabric.configurations for node in self.cluster.nodes
        )

    def config_failures(self) -> int:
        """Total failed bitstream-load attempts across the cluster."""
        return sum(
            node.require_inic().fabric.config_failures for node in self.cluster.nodes
        )

    def total_completion_interrupts(self) -> int:
        return sum(
            node.require_inic().stats.completion_interrupts
            for node in self.cluster.nodes
        )
