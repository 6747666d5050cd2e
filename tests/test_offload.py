import pytest

from ditplan.config import ClusterSpec
from ditplan.memory import BUILTIN_CHUNKS, MIB
from ditplan.offload import (
    balance_strategies,
    effective_pcie_bw,
    plan_activation_offload,
    plan_optimizer_offload,
)
from ditplan.presets import REFERENCE_CLUSTER

REF = dict(B=1, S=115_200, H=3072, A=24, tp=8)


def test_optimizer_offload_hidden_by_wide_windows():
    # 13.4 GB over 25 GB/s is 536 ms per leg
    transfer, exposed = plan_optimizer_offload(13.4e9, 25e9, 600.0, 600.0)
    assert transfer == pytest.approx(2 * 536.0)
    assert exposed == 0.0


def test_optimizer_offload_zero_windows_fully_exposed():
    transfer, exposed = plan_optimizer_offload(10e9, 25e9, 0.0, 0.0)
    assert exposed == pytest.approx(transfer)


def test_optimizer_offload_nothing_to_move():
    assert plan_optimizer_offload(0, 25e9, 100.0, 100.0) == (0.0, 0.0)


def test_effective_bw_numa_cap():
    # 4 concurrent devices share 80 GB/s of host write bandwidth
    assert effective_pcie_bw(REFERENCE_CLUSTER, 4) == pytest.approx(20e9)


def test_effective_bw_single_device_pcie_bound():
    assert effective_pcie_bw(REFERENCE_CLUSTER, 1) == pytest.approx(25e9)


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
    assert effective_pcie_bw(cluster, 4) == pytest.approx(25e9)


def test_effective_bw_non_increasing():
    values = [effective_pcie_bw(REFERENCE_CLUSTER, n) for n in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_activation_offload_zero_deficit():
    plan = plan_activation_offload(BUILTIN_CHUNKS, 8.0, 20e9, 0, **REF)
    assert plan.selected == ()
    assert plan.deficit_covered


def test_activation_offload_attention_hidden():
    # flash attention output: 110,592,000 bytes over 20 GB/s = 5.53 ms < 8 ms block
    plan = plan_activation_offload(BUILTIN_CHUNKS, 8.0, 20e9, 100 * MIB, **REF)
    assert plan.selected == ("gelu",) or plan.bytes_per_layer >= 100 * MIB
    assert plan.deficit_covered
    single = plan_activation_offload(
        [BUILTIN_CHUNKS.by_name("flash_attention")], 8.0, 20e9, 100 * MIB, **REF
    )
    assert single.transfer_ms_per_layer == pytest.approx(110_592_000 / 20e9 * 1e3)
    assert single.exposed_ms_per_layer_per_direction == 0.0


def test_activation_offload_exposure_when_transfer_exceeds_block():
    # 12 ms transfer against an 8 ms block leaves 4 ms exposed per direction
    chunk = BUILTIN_CHUNKS.by_name("gelu")  # 353,894,400 B
    bw = 353_894_400 / 12e-3  # bytes/s giving exactly 12 ms
    plan = plan_activation_offload([chunk], 8.0, bw, 300 * MIB, **REF)
    assert plan.transfer_ms_per_layer == pytest.approx(12.0)
    assert plan.exposed_ms_per_layer_per_direction == pytest.approx(4.0)
    assert plan.exposed_ms_per_layer == pytest.approx(8.0)


def test_activation_offload_threshold_skips_small_tensors():
    plan = plan_activation_offload(
        BUILTIN_CHUNKS, 8.0, 20e9, 10 * MIB, B=1, S=1024, H=3072, A=24, tp=8
    )
    # at S=1024 every chunk sits below the 64 MiB threshold
    assert plan.selected == ()
    assert not plan.deficit_covered


def test_balance_zero_deficit_noop():
    plan = balance_strategies(
        0,
        BUILTIN_CHUNKS,
        REFERENCE_CLUSTER,
        1,
        block_compute_ms=480.0,
        num_layers=54,
        **REF,
    )
    assert plan.feasible
    assert plan.recompute.selected == ()
    assert plan.offload.selected == ()


def test_balance_small_deficit_offload_only():
    # plenty of overlap: block compute dwarfs transfers, so the deficit is
    # covered by offloading alone, attention first
    plan = balance_strategies(
        100 * MIB,
        BUILTIN_CHUNKS,
        REFERENCE_CLUSTER,
        1,
        block_compute_ms=480.0,
        num_layers=54,
        **REF,
    )
    assert plan.feasible
    assert plan.recompute.selected == ()
    assert plan.offload.selected == ("flash_attention",)
    assert plan.offload.exposed_ms_per_layer == 0.0


def test_balance_mixes_recompute_when_overlap_runs_out():
    # tiny block compute: nothing can hide, so the deficit falls to recompute
    plan = balance_strategies(
        400 * MIB,
        BUILTIN_CHUNKS,
        REFERENCE_CLUSTER,
        1,
        block_compute_ms=0.1,
        num_layers=54,
        **REF,
    )
    assert plan.feasible
    assert plan.offload.selected == ()
    assert plan.recompute.bytes_saved_per_layer >= 400 * MIB


def test_balance_exhaustion_diagnostic():
    plan = balance_strategies(
        10**15,
        BUILTIN_CHUNKS,
        REFERENCE_CLUSTER,
        1,
        block_compute_ms=480.0,
        num_layers=54,
        **REF,
    )
    assert not plan.feasible
    assert plan.diagnostic.startswith("cp=1: deficit ")


def test_balance_disjoint_recompute_and_offload():
    plan = balance_strategies(
        800 * MIB,
        BUILTIN_CHUNKS,
        REFERENCE_CLUSTER,
        1,
        block_compute_ms=6.0,
        num_layers=54,
        **REF,
    )
    assert plan.feasible
    assert not (set(plan.recompute.selected) & set(plan.offload.selected))
    assert plan.bytes_saved_per_layer >= 800 * MIB
