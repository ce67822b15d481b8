"""Ready-made offload designs for the paper's applications.

Each factory returns a :class:`~repro.inic.bitstream.Design` that a
card can be configured with.  The sort design auto-sizes its bucket
count to the target card's FPGA budget, which is how the prototype ends
up with the 16-bucket two-phase scheme of Section 6 while the ideal
card runs the full single-phase sort of Figure 3(b).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..inic.bitstream import Design, INFRASTRUCTURE_CLBS
from ..inic.card import CardSpec
from ..inic.cores import (
    BroadcastCore,
    BucketSortCore,
    DatatypeEngineCore,
    DepacketizerCore,
    FIFOCore,
    FinalPermutationCore,
    LocalTransposeCore,
    PacketizerCore,
    ReduceCore,
    max_buckets_for_clbs,
)
from .modes import Mode, validate_mode_cores

__all__ = [
    "fft_transpose_design",
    "integer_sort_design",
    "supported_bucket_count",
    "protocol_processor_design",
    "collective_design",
    "datatype_design",
    "compute_design",
    "validated",
]


def validated(design: Design) -> Design:
    """Run mode validation and return the design (fluent helper)."""
    validate_mode_cores(design.mode, [c.spec.name for c in design.cores])
    return design


def _protocol_path():
    return [
        PacketizerCore(),
        DepacketizerCore(),
        FIFOCore(name="fifo"),
    ]


def fft_transpose_design() -> Design:
    """Figure 2(b): local transpose out, final permutation in."""
    return validated(
        Design(
            "fft-transpose",
            _protocol_path() + [LocalTransposeCore(), FinalPermutationCore()],
            mode=Mode.COMBINED.value,
        )
    )


def supported_bucket_count(card: CardSpec) -> int:
    """Largest power-of-two bucket count the card's FPGA(s) can host
    alongside the protocol path."""
    fixed = INFRASTRUCTURE_CLBS + sum(c.spec.clbs for c in _protocol_path())
    budget = sum(d.clbs for d in card.devices) - fixed
    if budget <= 0:
        raise ConfigurationError(f"{card.name}: no CLBs left for a sort core")
    return max_buckets_for_clbs(budget)


def integer_sort_design(card: CardSpec, n_buckets: int | None = None) -> Design:
    """Figures 3(b)/7: bucket sort in the datapath, both directions.

    ``n_buckets=None`` auto-sizes to the card (16 on the ACEII
    prototype, >=128 on the ideal card).
    """
    if n_buckets is None:
        n_buckets = supported_bucket_count(card)
    return validated(
        Design(
            "integer-sort",
            _protocol_path() + [BucketSortCore(n_buckets)],
            mode=Mode.COMBINED.value,
        )
    )


def protocol_processor_design() -> Design:
    """Section 2's pure Protocol Processor mode."""
    return validated(
        Design("protocol-processor", _protocol_path(), mode=Mode.PROTOCOL.value)
    )


def collective_design(op: str = "sum", element_bytes: int = 8) -> Design:
    """Future-work extension: in-datapath reduce + broadcast."""
    return validated(
        Design(
            f"collective-{op}",
            _protocol_path() + [ReduceCore(op, element_bytes), BroadcastCore()],
            mode=Mode.COMBINED.value,
        )
    )


def datatype_design() -> Design:
    """Future-work extension: MPI derived-datatype engine."""
    return validated(
        Design(
            "derived-datatypes",
            _protocol_path() + [DatatypeEngineCore()],
            mode=Mode.COMBINED.value,
        )
    )


def compute_design(cores) -> Design:
    """Section 2's Compute Accelerator mode (caller supplies kernels)."""
    return validated(Design("compute-accelerator", list(cores), mode=Mode.COMPUTE.value))
