import pytest
from hypothesis import given
from hypothesis import strategies as st

from ditplan.buckets import Bucket, token_count
from ditplan.comm import (
    build_comm_plan,
    cp_gate_and_comm,
    dp_comm,
    enumerate_parallel_configs,
    tp_sp_layer_comm,
)
from ditplan.config import DTypePolicy, OverlapConfig, ParallelConfig, validate
from ditplan.errors import InfeasibleError
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT

DT = DTypePolicy()


def test_tp1_no_comm():
    assert tp_sp_layer_comm(1, 115_200, 3072, 1, 2, 200e9, 0.0, 0.02) == (0.0, 0.0)


def test_tp_sp_reference_volume():
    # 2 collectives * B*S*H*2B * 7/8 = 1,238,630,400 bytes at 200 GB/s
    raw, exposed = tp_sp_layer_comm(
        1, 115_200, 3072, 8, 2, 200e9, 0.0, collective_latency_ms=0.0
    )
    expected_ms = 2 * 1 * 115_200 * 3072 * 2 * (7 / 8) / 200e9 * 1e3
    assert raw == pytest.approx(expected_ms)
    assert raw == pytest.approx(6.193152)
    assert exposed == raw


def test_tp_sp_full_overlap_exposes_nothing():
    raw, exposed = tp_sp_layer_comm(1, 115_200, 3072, 8, 2, 200e9, 1.0, 0.02)
    assert raw > 0
    assert exposed == 0.0


def test_tp_sp_fixed_latency_term():
    with_lat, _ = tp_sp_layer_comm(1, 1024, 3072, 8, 2, 200e9, 0.0, collective_latency_ms=0.02)
    without, _ = tp_sp_layer_comm(1, 1024, 3072, 8, 2, 200e9, 0.0, collective_latency_ms=0.0)
    assert with_lat == pytest.approx(without + 0.04)


@given(frac=st.floats(min_value=0.0, max_value=1.0), frac2=st.floats(min_value=0.0, max_value=1.0))
def test_exposed_monotone_in_overlap(frac, frac2):
    lo, hi = sorted([frac, frac2])
    _, exposed_lo = tp_sp_layer_comm(1, 50_000, 3072, 8, 2, 200e9, lo, 0.02)
    _, exposed_hi = tp_sp_layer_comm(1, 50_000, 3072, 8, 2, 200e9, hi, 0.02)
    assert exposed_hi <= exposed_lo + 1e-12


@given(k=st.sampled_from([2, 4, 8]))
def test_ring_volume_factor(k):
    raw, _ = tp_sp_layer_comm(1, 10_000, 3072, k, 2, 200e9, 0.0, collective_latency_ms=0.0)
    base = 2 * 1 * 10_000 * 3072 * 2 / 200e9 * 1e3
    assert raw == pytest.approx(base * (k - 1) / k)


def test_cp_below_gate_rejected():
    result = cp_gate_and_comm(115_200, 1, 115_200, 3072, 2, 2, 50e9, 0.02)
    assert result.time_ms == 0.0
    assert result.violation is not None
    assert "below" in result.violation and "200" in result.violation


def test_cp_above_gate_enabled():
    result = cp_gate_and_comm(230_400, 1, 230_400, 3072, 2, 2, 50e9, collective_latency_ms=0.0)
    assert result.violation is None
    expected = 2 * 1 * 230_400 * 3072 * 2 * 0.5 / 50e9 * 1e3
    assert result.time_ms == pytest.approx(expected)


def test_cp1_disabled_no_cost():
    result = cp_gate_and_comm(500_000, 1, 500_000, 3072, 1, 2, 50e9, 0.02)
    assert result == cp_gate_and_comm(100, 1, 100, 3072, 1, 2, 50e9, 0.02)
    assert result.violation is None
    assert result.time_ms == 0.0


def test_dp1_no_comm():
    assert dp_comm(13.4e9, DT, 8, 1, 50e9, 0.02) == (0.0, 0.0)


def test_dp_reference_volume():
    # 2 collectives * (P/tp) * 2 bytes * 15/16 over 50 GB/s = 125.6 ms
    raw, exposed = dp_comm(13.4e9, DT, 8, 16, 50e9, collective_latency_ms=0.0)
    assert raw == pytest.approx(2 * (13.4e9 / 8) * 2 * (15 / 16) / 50e9 * 1e3)
    assert raw == pytest.approx(125.625)
    assert exposed == raw  # no overlap windows supplied


def test_dp_fully_hidden_with_wide_windows():
    raw, exposed = dp_comm(
        13.4e9, DT, 8, 16, 50e9, 0.02, first_fwd_window_ms=700.0, last_bwd_window_ms=700.0
    )
    assert raw > 0
    assert exposed == 0.0


def test_comm_plan_composition():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    plan = build_comm_plan(
        TABLE2_FIT, REFERENCE_CLUSTER, DT, par, 1, 115_200, 13.4e9, OverlapConfig()
    )
    assert plan.cp_ms_per_layer == 0.0
    per_micro = plan.tp_sp_exposed_ms_per_layer * 2 * TABLE2_FIT.num_layers
    assert plan.exposed_ms_per_microstep == pytest.approx(per_micro)
    assert plan.exposed_ms_per_step(2) == pytest.approx(
        2 * per_micro + plan.dp_exposed_ms_per_step
    )


def test_comm_plan_rejects_cp_below_gate():
    par = ParallelConfig(tp=8, cp=2, dp=1)
    with pytest.raises(InfeasibleError) as err:
        build_comm_plan(TABLE2_FIT, REFERENCE_CLUSTER, DT, par, 1, 115_200, 13.4e9)
    assert str(err.value) == cp_gate_and_comm(115_200, 1, 115_200, 3072, 2, 2, 50e9, 0.02).violation


def _enumerate(cluster, bucket, zero_stage="optimizer-partitioned"):
    tokens_batch = token_count(bucket, TABLE2_FIT).tokens_batch
    return enumerate_parallel_configs(TABLE2_FIT, cluster, tokens_batch, zero_stage, 1)


def test_enumerate_gates_cp_for_short_sequences():
    configs = _enumerate(REFERENCE_CLUSTER, Bucket(1, 125, 720, 1280))
    assert configs
    assert all(c.cp == 1 for c in configs)  # 115,200 tokens sit below the gate
    assert all(c.tp * c.cp * c.dp == REFERENCE_CLUSTER.total_devices for c in configs)


def test_enumerate_admits_cp2_above_gate():
    # 245 frames at 1280x720: 62*45*80 = 223,200 tokens > 200k
    bucket = Bucket(1, 245, 720, 1280)
    configs = _enumerate(REFERENCE_CLUSTER, bucket)
    cps = {c.cp for c in configs}
    assert cps == {1, 2}
    # lower cp ranks first among same-tp candidates
    for tp in {c.tp for c in configs}:
        ordered = [c.cp for c in configs if c.tp == tp]
        assert ordered == sorted(ordered)


@pytest.mark.parametrize(
    "tokens_batch, admitted",
    [(200_000, ()), (200_001, (2,)), (400_000, (2,)), (400_001, (2, 4)), (800_001, (2, 4, 8))],
)
def test_enumerator_and_gate_admit_the_same_cp(tokens_batch, admitted):
    # The enumerator lists a cp exactly when cp_gate_and_comm passes it:
    # cp=2 needs the batch above 200k tokens, each doubling the cp/2 shards.
    configs = enumerate_parallel_configs(
        TABLE2_FIT, REFERENCE_CLUSTER, tokens_batch, "optimizer-partitioned", 1
    )
    enumerated = {c.cp for c in configs if c.tp == 1}
    for cp in (2, 4, 8, 16):
        gate = cp_gate_and_comm(tokens_batch, 1, tokens_batch, 3072, cp, 2, 50e9, 0.02)
        assert (cp in enumerated) == (gate.violation is None) == (cp in admitted), cp


def test_tp_must_divide_the_head_count():
    """16 divides H=3072 but not 24 heads, so a 16-device node offers no
    tp=16 candidate and validate names a pinned tp=16."""
    cluster = REFERENCE_CLUSTER._replace(devices_per_node=16)
    configs = _enumerate(cluster, Bucket(1, 1, 320, 320))
    assert sorted({c.tp for c in configs}) == [1, 2, 4, 8]
    assert validate(TABLE2_FIT, cluster, ParallelConfig(tp=16, dp=2)) == [
        "tp does not divide num_heads (24 % 16 != 0)"
    ]


def test_enumerate_single_device():
    from ditplan.config import ClusterSpec

    single = ClusterSpec(
        num_nodes=1,
        devices_per_node=1,
        device_mem=64e9,
        peak_flops_per_device=312e12,
        intra_node_bw=200e9,
        inter_node_bw=50e9,
        pcie_bw_per_device=25e9,
        host_write_bw_per_numa=80e9,
        devices_per_numa=1,
        host_mem=2e12,
    )
    # dp=1 carries the configured zero_stage, as the same layout pinned does.
    for zero_stage in ("none", "optimizer-partitioned"):
        configs = _enumerate(single, Bucket(1, 29, 320, 320), zero_stage)
        assert configs == [ParallelConfig(tp=1, cp=1, dp=1, zero_stage=zero_stage, grad_accum=1)]


def test_plan_train_costs_comm_once_per_candidate(monkeypatch):
    import ditplan.comm
    import ditplan.report
    from ditplan.config import load_config
    from ditplan.presets import reference_config_path

    calls = {"build_comm_plan": 0, "cp_gate_and_comm": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(ditplan.report, "build_comm_plan")
    counting(ditplan.comm, "cp_gate_and_comm")
    report = ditplan.report.run_train_plan(load_config(reference_config_path()))
    candidates = sum(len(s["plans"]) + len(s["infeasible"]) for s in report.document["stages"])
    assert calls == {"build_comm_plan": candidates, "cp_gate_and_comm": candidates}
