"""Unit tests for FPGA fabric, designs, and stream cores."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FPGAResourceError, OffloadError
from repro.inic import (
    Design,
    FPGAFabric,
    INFRASTRUCTURE_CLBS,
    VIRTEX_1000,
    XILINX_4085XLA,
)
from repro.inic.cores import (
    BucketSortCore,
    DatatypeEngineCore,
    FinalPermutationCore,
    IndexedLayout,
    LocalTransposeCore,
    PacketizerCore,
    ReduceCore,
    VectorLayout,
    bucket_sort_core_clbs,
    local_transpose_blocks,
    max_buckets_for_clbs,
)
from repro.sim import Simulator


# --- FPGA fabric -----------------------------------------------------------------
def test_fabric_totals_and_clock():
    sim = Simulator()
    fab = FPGAFabric(sim, [XILINX_4085XLA, XILINX_4085XLA])
    assert fab.total_clbs == 2 * 3136
    assert fab.clock_hz == XILINX_4085XLA.clock_hz


def test_configure_charges_time_and_checks_fit():
    sim = Simulator()
    fab = FPGAFabric(sim, [XILINX_4085XLA])
    design = Design("d", [LocalTransposeCore()])

    def proc():
        yield from fab.configure(design, design.clbs, design.ram_kbits)
        return sim.now

    p = sim.process(proc())
    assert sim.run(until=p) == pytest.approx(XILINX_4085XLA.config_time)
    assert fab.current_design is design


def test_configure_rejects_oversized_design():
    sim = Simulator()
    fab = FPGAFabric(sim, [XILINX_4085XLA])
    with pytest.raises(FPGAResourceError):
        fab.check_fit(10**6, 0)


# --- Design composition --------------------------------------------------------------
def test_design_resource_sum_includes_infrastructure():
    t = LocalTransposeCore()
    d = Design("fft-send", [t])
    assert d.clbs == INFRASTRUCTURE_CLBS + t.spec.clbs


def test_design_duplicate_cores_rejected():
    with pytest.raises(ConfigurationError):
        Design("bad", [LocalTransposeCore(), LocalTransposeCore()])


def test_design_core_lookup():
    d = Design("d", [LocalTransposeCore(), PacketizerCore()])
    assert d.core("packetize").spec.name == "packetize"
    assert d.has_core("local-transpose")
    with pytest.raises(ConfigurationError):
        d.core("missing")


# --- bucket-count arithmetic (the Section-6 two-phase constraint) -----------------------
def test_prototype_fpga_caps_buckets_at_16():
    budget = XILINX_4085XLA.clbs - INFRASTRUCTURE_CLBS - 500  # leave room for fifo etc.
    assert max_buckets_for_clbs(budget) == 16


def test_ideal_fpga_fits_128_buckets():
    budget = VIRTEX_1000.clbs - INFRASTRUCTURE_CLBS - 500
    assert max_buckets_for_clbs(budget) >= 128


def test_bucket_clbs_monotone():
    assert bucket_sort_core_clbs(16) < bucket_sort_core_clbs(32)


# --- LocalTransposeCore ------------------------------------------------------------------
def test_transpose_core_transposes():
    core = LocalTransposeCore()
    block = np.arange(16, dtype=np.complex128).reshape(4, 4)
    [out] = core.apply_panel(block, 1)
    assert np.array_equal(out, block.T)
    assert out.flags["C_CONTIGUOUS"]
    assert core.bytes_processed == block.nbytes


def test_transpose_core_rejects_non_square():
    core = LocalTransposeCore()
    with pytest.raises(OffloadError):
        core.apply_panel(np.zeros((2, 3)), 1)


def test_local_transpose_blocks_round_trip():
    panel = np.arange(2 * 8, dtype=float).reshape(2, 8)
    blocks = local_transpose_blocks(panel, 4)
    assert len(blocks) == 4
    for p, blk in enumerate(blocks):
        assert np.array_equal(blk, panel[:, 2 * p : 2 * p + 2].T)
    # The one-copy extraction is bit-equal to transposing each block on
    # its own, and the core charges the panel's bytes.
    rng = np.random.default_rng(3)
    for p in (1, 2, 4, 16):
        m = 32 // p
        panel = rng.standard_normal((m, 32)) + 1j * rng.standard_normal((m, 32))
        blocks = local_transpose_blocks(panel, p)
        assert len(blocks) == p
        for d, blk in enumerate(blocks):
            want = np.ascontiguousarray(panel[:, d * m : (d + 1) * m].T)
            assert blk.flags["C_CONTIGUOUS"]
            assert blk.dtype == want.dtype and blk.shape == want.shape
            assert blk.tobytes() == want.tobytes()
        core = LocalTransposeCore()
        core.apply_panel(panel, p)
        assert core.bytes_processed == panel.nbytes
    with pytest.raises(OffloadError):
        LocalTransposeCore().apply_panel(np.zeros((2, 8)), 2)


# --- FinalPermutationCore ------------------------------------------------------------------
def test_permutation_assemble_reconstructs_transpose():
    rng = np.random.default_rng(0)
    n, p = 8, 4
    m = n // p
    full = rng.standard_normal((n, n))
    # Node 0's panel of X^T assembled from blocks sent by all nodes.
    core = FinalPermutationCore()
    blocks = [
        np.ascontiguousarray(full[src * m : (src + 1) * m, 0:m].T)
        for src in range(p)
    ]
    panel = core.assemble(list(range(p)), blocks)
    assert np.array_equal(panel, full.T[0:m, :])


def test_permutation_assemble_validates():
    core = FinalPermutationCore()
    with pytest.raises(OffloadError):
        core.assemble([], [])
    with pytest.raises(OffloadError):
        core.assemble([0, 2], [np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(OffloadError):
        core.assemble([0, 1], [np.zeros((2, 2)), np.zeros((3, 3))])


# --- BucketSortCore ----------------------------------------------------------------------
def test_bucket_sort_validates():
    with pytest.raises(OffloadError):
        BucketSortCore(3)
    with pytest.raises(OffloadError):
        BucketSortCore(1)


# --- ReduceCore --------------------------------------------------------------------------
def test_reduce_core_accumulates():
    core = ReduceCore("sum")
    a = np.arange(4, dtype=np.float64)
    acc = core.apply(a)
    acc = core.apply(a, accumulator=acc)
    assert np.array_equal(acc, 2 * a)


def test_reduce_core_ops():
    hi = np.array([5.0, 1.0])
    lo = np.array([2.0, 3.0])
    assert np.array_equal(ReduceCore("max").apply(hi, accumulator=lo), [5.0, 3.0])
    assert np.array_equal(ReduceCore("min").apply(hi, accumulator=lo), [2.0, 1.0])
    with pytest.raises(OffloadError):
        ReduceCore("xor")


# --- DatatypeEngineCore ---------------------------------------------------------------------
def test_datatype_vector_gather_scatter_round_trip():
    core = DatatypeEngineCore()
    src = np.arange(20, dtype=np.float64)
    layout = VectorLayout(count=4, blocklen=2, stride=5)
    packed = core.gather(src, layout)
    assert np.array_equal(packed, [0, 1, 5, 6, 10, 11, 15, 16])
    dst = np.zeros(20)
    core.scatter(packed, layout, dst)
    assert np.array_equal(dst[layout.indices()], packed)


def test_datatype_indexed_layout():
    core = DatatypeEngineCore()
    src = np.arange(10, dtype=np.int64)
    layout = IndexedLayout(offsets=(7, 0, 4), blocklens=(2, 1, 2))
    packed = core.gather(src, layout)
    assert np.array_equal(packed, [7, 8, 0, 4, 5])


def test_datatype_bounds_checked():
    core = DatatypeEngineCore()
    with pytest.raises(OffloadError):
        core.gather(np.arange(5), VectorLayout(count=2, blocklen=2, stride=4))


def test_core_rates_exceed_paths():
    """Cores must never be the datapath bottleneck at card clocks
    ('more than enough computing power for full rate transfers')."""
    from repro.units import mib_per_s

    for core in (LocalTransposeCore(), BucketSortCore(16), PacketizerCore()):
        assert core.rate(XILINX_4085XLA.clock_hz) > mib_per_s(112)
