"""Interrupt controller with coalescing (interrupt mitigation).

Section 4.1 of the paper: "high speed network interfaces typically use
some form of interrupt mitigation — based on a time-out or number of
messages received.  This mechanism is necessary because modern systems
are incapable of handling an interrupt per packet at the full data rate
of Gigabit Ethernet, but it interacts poorly with TCP slow-start for
short messages."

This module models exactly that mechanism.  A device raises interrupt
*causes*; the controller delivers an actual CPU interrupt either

* immediately, if coalescing is disabled, or
* when ``max_frames`` causes have accumulated, or
* when ``delay`` seconds have passed since the first undelivered cause

whichever comes first — the classic NIC "rx-usecs / rx-frames" pair.
Each delivered interrupt steals ``cpu.interrupt_cost`` seconds of host
CPU time (handler + context switch), which is how per-packet interrupt
load degrades the standard-NIC baselines, and why the INIC's elimination
of interrupts (Section 4.1) wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.engine import Simulator

__all__ = ["CoalescePolicy", "InterruptController"]


@dataclass(frozen=True)
class CoalescePolicy:
    """Interrupt-mitigation parameters.

    ``delay``
        seconds to wait after the first pending cause before firing
        (0 disables the timer: fire immediately, whatever
        ``max_frames`` says).
    ``max_frames``
        fire as soon as this many causes are pending (1 disables
        coalescing entirely).
    """

    delay: float = 0.0
    max_frames: int = 1

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("negative coalescing delay")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")


#: no mitigation: one interrupt per cause
IMMEDIATE = CoalescePolicy(delay=0.0, max_frames=1)


class InterruptController:
    """Per-device interrupt delivery with coalescing.

    The ``handler`` is called as ``handler(n_causes)`` when an interrupt
    is delivered; typical handlers drain a NIC RX ring and charge the CPU
    for the handler cost.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: CoalescePolicy = IMMEDIATE,
        handler: Optional[Callable[[int], None]] = None,
        name: str = "irq",
    ):
        self.sim = sim
        self.policy = policy
        #: pending causes that deliver at once (with ``max_frames == 1``,
        #: coalescing off, every cause delivers; with no timer,
        #: ``delay == 0``, every cause fires immediately too)
        self._threshold = policy.max_frames if policy.delay > 0 else 1
        self.handler = handler
        self.name = name
        self._pending = 0
        #: pending coalesce timer (``call_after`` handle), if armed
        self._timer: Optional[list] = None
        # -- statistics ----------------------------------------------------
        self.causes_raised = 0
        self.interrupts_delivered = 0

    @property
    def pending(self) -> int:
        return self._pending

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this controller's instruments under ``prefix``."""
        registry.counter(f"{prefix}.causes", lambda: self.causes_raised)
        registry.counter(f"{prefix}.delivered", lambda: self.interrupts_delivered)
        registry.gauge(f"{prefix}.coalescing_ratio", self.coalescing_ratio)

    def raise_irq(self, causes: int = 1) -> None:
        """Record ``causes`` new interrupt causes from the device."""
        if causes < 1:
            raise ValueError("raise_irq needs at least one cause")
        first_pending = self._pending == 0
        self._pending += causes
        self.causes_raised += causes

        if self._pending >= self._threshold:
            self._deliver()
            return
        if first_pending:
            self._arm_timer()

    def _arm_timer(self) -> None:
        self._timer = self.sim.call_after(self.policy.delay, self._fire_timer)

    def _fire_timer(self) -> None:
        self._timer = None
        if self._pending > 0:
            self._deliver()

    def _deliver(self) -> None:
        n, self._pending = self._pending, 0
        timer = self._timer
        if timer is not None:
            # Threshold delivery beat the coalesce timer: withdraw it in
            # O(1) instead of letting a dead timer fire later.
            self._timer = None
            self.sim.cancel_callback(timer)
        self.interrupts_delivered += 1
        if self.handler is not None:
            self.handler(n)

    def coalescing_ratio(self) -> float:
        """Average causes per delivered interrupt (1.0 = no mitigation)."""
        if self.interrupts_delivered == 0:
            return 0.0
        return self.causes_raised / self.interrupts_delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InterruptController {self.name!r} pending={self._pending} "
            f"delivered={self.interrupts_delivered}>"
        )
