import pytest


from ditplan.config import ClusterSpec
from ditplan.errors import InfeasibleError
from ditplan.memory import BUILTIN_CHUNKS, MIB, ChunkSpec, ChunkTable, chunk_retained_bytes
from ditplan.offload import (
    OFFLOAD_THRESHOLD_BYTES,
    ActivationOffloadPlan,
    balance_strategies,
    effective_pcie_bw,
    plan_optimizer_offload,
)
from ditplan.presets import REFERENCE_CLUSTER
from ditplan.recompute import cover

from helpers import DEFICIT_DIAGNOSTIC, random_chunk_table

REF = dict(B=1, S=115_200, H=3072, A=24, tp=8)


def _sizes(chunks, **shape):
    """Each chunk's retained bytes per layer at the reference shape, overridden by ``shape``."""
    return {c.name: chunk_retained_bytes(c, **{**REF, **shape}) for c in chunks}


REF_SIZES = _sizes(BUILTIN_CHUNKS.chunks)


def test_optimizer_offload_hidden_by_wide_windows():
    # 13.4 GB over 25 GB/s is 536 ms per leg; each leg fits its 600 ms window
    assert plan_optimizer_offload(13.4e9, 25e9, 600.0, 600.0) == 0.0
    # one leg sticks out of a 500 ms window by 36 ms
    assert plan_optimizer_offload(13.4e9, 25e9, 500.0, 600.0) == pytest.approx(36.0)


def test_optimizer_offload_zero_windows_fully_exposed():
    # both 400 ms legs of the round trip are exposed
    assert plan_optimizer_offload(10e9, 25e9, 0.0, 0.0) == pytest.approx(800.0)


def test_optimizer_offload_nothing_to_move():
    assert plan_optimizer_offload(0, 25e9, 100.0, 100.0) == 0.0


def test_effective_bw_numa_cap():
    # the domain's 4 devices share 80 GB/s of host write bandwidth
    assert REFERENCE_CLUSTER.devices_per_numa == 4
    assert effective_pcie_bw(REFERENCE_CLUSTER) == pytest.approx(20e9)


def test_effective_bw_single_device_pcie_bound():
    assert effective_pcie_bw(REFERENCE_CLUSTER._replace(devices_per_numa=1)) == pytest.approx(25e9)


def test_effective_bw_huge_host_bw():
    cluster = ClusterSpec(
        num_nodes=1,
        devices_per_node=8,
        device_mem=64e9,
        peak_flops_per_device=312e12,
        intra_node_bw=200e9,
        inter_node_bw=50e9,
        pcie_bw_per_device=25e9,
        host_write_bw_per_numa=4000e9,
        devices_per_numa=4,
        host_mem=2e12,
    )
    assert effective_pcie_bw(cluster) == pytest.approx(25e9)


def test_effective_bw_non_increasing():
    values = [effective_pcie_bw(REFERENCE_CLUSTER._replace(devices_per_numa=n)) for n in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_activation_offload_exposure_when_transfer_exceeds_block():
    # Each 353,894,400 B chunk takes 17.69 ms at 20 GB/s and hides under a
    # 20 ms block on its own, but both are charged together: 35.39 ms of
    # transfer leaves 15.39 ms exposed per direction, 30.78 ms both ways.
    # The hiding test is per chunk (see ROADMAP item 3).
    chunks = ChunkTable(chunks=(ChunkSpec("a", coeff_bsh=8), ChunkSpec("b", coeff_bsh=8)))
    recompute, offload = balance_strategies(
        600 * MIB, chunks, _sizes(chunks.chunks), REFERENCE_CLUSTER, block_compute_ms=20.0, num_layers=54
    )
    assert offload.selected == ("a", "b")
    assert recompute.selected == ()
    transfer_ms = 2 * 353_894_400 / 20e9 * 1e3
    assert offload.exposed_ms_per_layer == pytest.approx(2 * (transfer_ms - 20.0))


def test_activation_offload_threshold_skips_small_tensors():
    # at S=1024 every chunk (3 MiB at most) sits below the 64 MiB
    # threshold, so recompute alone covers the deficit
    recompute, offload = balance_strategies(
        10 * MIB,
        BUILTIN_CHUNKS,
        _sizes(BUILTIN_CHUNKS.chunks, S=1024),
        REFERENCE_CLUSTER,
        block_compute_ms=480.0,
        num_layers=54,
    )
    assert offload.selected == ()
    assert recompute.bytes_saved_per_layer >= 10 * MIB


def test_balance_zero_deficit_noop():
    for deficit in (0, -1):
        recompute, offload = balance_strategies(
            deficit,
            BUILTIN_CHUNKS,
            REF_SIZES,
            REFERENCE_CLUSTER,
            block_compute_ms=480.0,
            num_layers=54,
        )
        assert recompute.selected == ()
        assert recompute.feasible
        assert offload.selected == ()
        assert offload.bytes_per_layer == 0
        assert offload.exposed_ms_per_layer == 0.0


def test_balance_small_deficit_offload_only():
    # plenty of overlap: block compute dwarfs transfers, so the deficit is
    # covered by offloading alone, attention first
    recompute, offload = balance_strategies(
        100 * MIB,
        BUILTIN_CHUNKS,
        REF_SIZES,
        REFERENCE_CLUSTER,
        block_compute_ms=480.0,
        num_layers=54,
    )
    assert recompute.selected == ()
    assert offload.selected == ("flash_attention",)
    assert offload.exposed_ms_per_layer == 0.0


def test_balance_mixes_recompute_when_overlap_runs_out():
    # tiny block compute: nothing can hide, so the deficit falls to recompute
    recompute, offload = balance_strategies(
        400 * MIB,
        BUILTIN_CHUNKS,
        REF_SIZES,
        REFERENCE_CLUSTER,
        block_compute_ms=0.1,
        num_layers=54,
    )
    assert offload.selected == ()
    assert recompute.bytes_saved_per_layer >= 400 * MIB


def test_balance_exhaustion_diagnostic():
    with pytest.raises(InfeasibleError, match=r"^deficit "):
        balance_strategies(
            10**15,
            BUILTIN_CHUNKS,
            REF_SIZES,
            REFERENCE_CLUSTER,
            block_compute_ms=480.0,
            num_layers=54,
        )


def test_balance_host_memory_diagnostic():
    # flash attention's 110.6 MB per layer over 54 layers needs 6.0 GB of host memory
    cluster = REFERENCE_CLUSTER._replace(host_mem=1e9)
    with pytest.raises(InfeasibleError, match=r"^offloaded activations \(6\.0 GB\)"):
        balance_strategies(
            100 * MIB,
            BUILTIN_CHUNKS,
            REF_SIZES,
            cluster,
            block_compute_ms=480.0,
            num_layers=54,
        )


def test_balance_disjoint_recompute_and_offload():
    recompute, offload = balance_strategies(
        800 * MIB,
        BUILTIN_CHUNKS,
        REF_SIZES,
        REFERENCE_CLUSTER,
        block_compute_ms=6.0,
        num_layers=54,
    )
    assert not (set(recompute.selected) & set(offload.selected))
    assert recompute.bytes_saved_per_layer + offload.bytes_per_layer >= 800 * MIB


def _former_recompute_only(required, table, sizes):
    """Oracle: the evaluator's former inline branch for the attempts that
    offload no activations, written out as it read."""
    recomputable = [(c.name, c.fwd_latency_ms) for c in table.chunks if c.recomputable]
    pool = [(sizes[name], lat, name) for name, lat in recomputable]
    recompute = cover(pool, required)
    if not recompute.feasible:
        raise InfeasibleError(
            f"deficit {required / 1e6:.0f} MB/layer exceeds recomputable savings "
            f"{recompute.bytes_saved_per_layer / 1e6:.0f} MB/layer"
        )
    return recompute, ActivationOffloadPlan((), 0, 0.0)


def test_balance_without_activation_offload_is_the_recompute_cover():
    # Every offloadable chunk would hide under a 1e9 ms block, and a 1-byte
    # host would reject any offload: neither matters once activation
    # offload is off, so the plan is the cover over the recomputable chunks.
    tiny_host = REFERENCE_CLUSTER._replace(host_mem=1.0)
    plans = raised = 0
    for seed in range(10):
        chunks, _ = random_chunk_table(seed)
        table = ChunkTable(chunks=tuple(ChunkSpec(**c) for c in chunks))
        for tp in (1, 8):
            sizes = _sizes(table.chunks, tp=tp)
            total = sum(sizes[c.name] for c in table.chunks if c.recomputable)
            for deficit in (0, 1, total // 3, total - 1, total, total + 1, 2 * total):
                try:
                    expected = _former_recompute_only(deficit, table, sizes)
                except InfeasibleError:
                    expected = None
                for cluster in (REFERENCE_CLUSTER, tiny_host):
                    args = (deficit, table, sizes, cluster, 1e9, 54)
                    if expected is None:
                        with pytest.raises(InfeasibleError, match=DEFICIT_DIAGNOSTIC):
                            balance_strategies(*args, offload_activations=False)
                        raised += 1
                    else:
                        assert balance_strategies(*args, offload_activations=False) == expected
                        plans += 1
    assert plans > 0 and raised > 0


def _general_path(deficit, table, sizes, cluster, block_compute_ms, offload_activations):
    """Oracle: balance_strategies' general path, without its early return for
    a deficit that needs nothing freed, written out as it reads."""
    offloaded, offload_bytes, exposed_ms = set(), 0, 0.0
    if offload_activations:
        bw = effective_pcie_bw(cluster)
        overlappable = sorted(
            (not c.is_attention_class, -sizes[c.name], c.name)
            for c in table.chunks
            if c.offloadable
            and sizes[c.name] >= OFFLOAD_THRESHOLD_BYTES
            and sizes[c.name] / bw * 1e3 <= block_compute_ms
        )
        for _, neg_size, name in overlappable:
            if offload_bytes >= deficit:
                break
            offloaded.add(name)
            offload_bytes -= neg_size
        exposed_ms = 2 * max(0.0, offload_bytes / bw * 1e3 - block_compute_ms)
    pool = [(sizes[c.name], c.fwd_latency_ms, c.name)
            for c in table.chunks if c.recomputable and c.name not in offloaded]
    recompute = cover(pool, max(0, deficit - offload_bytes))
    return recompute, ActivationOffloadPlan(tuple(sorted(offloaded)), offload_bytes, exposed_ms)


def test_balance_nonpositive_deficit_is_the_general_paths_answer():
    # A deficit of 0 or less returns at once, with the general path's very
    # values and types: the empty recompute set's latency stays the int 0.
    # Positive deficits check the oracle against the selector itself.
    compared = 0
    for seed in range(10):
        chunks, _ = random_chunk_table(seed)
        table = ChunkTable(chunks=tuple(ChunkSpec(**c) for c in chunks))
        for tp in (1, 8):
            sizes = _sizes(table.chunks, tp=tp)
            for deficit in (-1, 0, 1, 64 * MIB, sum(sizes.values()) // 4):
                for block_ms in (0.5, 480.0):
                    for offload_activations in (False, True):
                        args = (deficit, table, sizes, REFERENCE_CLUSTER, block_ms)
                        try:
                            got = balance_strategies(*args, 54,
                                                     offload_activations=offload_activations)
                        except InfeasibleError:
                            assert deficit > 0
                            continue
                        expected = _general_path(*args, offload_activations)
                        assert got == expected
                        assert [[type(v) for v in plan] for plan in got] == \
                            [[type(v) for v in plan] for plan in expected]
                        if deficit <= 0:
                            assert type(got[0].latency_added_per_layer_ms) is int
                        compared += 1
    assert compared > 0
