import pytest
from hypothesis import given
from hypothesis import strategies as st

from ditplan.buckets import Bucket, token_count
from ditplan.comm import build_comm_plan, cp_gate_and_comm, enumerate_parallel_configs
from ditplan.config import DTypePolicy, OverlapConfig, ParallelConfig, validate
from ditplan.errors import ConfigError, InfeasibleError
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT
from ditplan.simulate import estimate_step

DT = DTypePolicy()


def _comm(tp=8, dp=1, S=115_200, fraction=0.0, latency_ms=0.0, windows=(0.0, 0.0), cp=1):
    """build_comm_plan on the reference model and cluster (H=3072, 2-byte
    activations, 200 GB/s inside a node, 50 GB/s across) for one sample of S
    tokens and P=13.4e9."""
    overlap = OverlapConfig(tp_sp_fraction=fraction, collective_latency_ms=latency_ms)
    par = ParallelConfig(tp=tp, cp=cp, dp=dp)
    return build_comm_plan(TABLE2_FIT, REFERENCE_CLUSTER, DT, par, 1, S, 13.4e9, overlap, *windows)


def test_tp1_no_comm():
    plan = _comm(tp=1, latency_ms=0.02)
    assert (plan.tp_sp_raw_ms_per_layer, plan.tp_sp_exposed_ms_per_layer) == (0.0, 0.0)


def test_tp_sp_reference_volume():
    # 2 collectives * B*S*H*2B * 7/8 = 1,238,630,400 bytes at 200 GB/s
    plan = _comm()
    raw = plan.tp_sp_raw_ms_per_layer
    expected_ms = 2 * 1 * 115_200 * 3072 * 2 * (7 / 8) / 200e9 * 1e3
    assert raw == pytest.approx(expected_ms)
    assert raw == pytest.approx(6.193152)
    assert plan.tp_sp_exposed_ms_per_layer == raw


def test_tp_sp_full_overlap_exposes_nothing():
    plan = _comm(fraction=1.0, latency_ms=0.02)
    assert plan.tp_sp_raw_ms_per_layer > 0
    assert plan.tp_sp_exposed_ms_per_layer == 0.0


def test_tp_sp_fixed_latency_term():
    with_lat = _comm(S=1024, latency_ms=0.02).tp_sp_raw_ms_per_layer
    without = _comm(S=1024, latency_ms=0.0).tp_sp_raw_ms_per_layer
    assert with_lat == pytest.approx(without + 0.04)


@given(frac=st.floats(min_value=0.0, max_value=1.0), frac2=st.floats(min_value=0.0, max_value=1.0))
def test_exposed_monotone_in_overlap(frac, frac2):
    lo, hi = sorted([frac, frac2])
    exposed_lo = _comm(S=50_000, fraction=lo, latency_ms=0.02).tp_sp_exposed_ms_per_layer
    exposed_hi = _comm(S=50_000, fraction=hi, latency_ms=0.02).tp_sp_exposed_ms_per_layer
    assert exposed_hi <= exposed_lo + 1e-12


@given(k=st.sampled_from([2, 4, 8]))
def test_ring_volume_factor(k):
    raw = _comm(tp=k, S=10_000).tp_sp_raw_ms_per_layer
    base = 2 * 1 * 10_000 * 3072 * 2 / 200e9 * 1e3
    assert raw == pytest.approx(base * (k - 1) / k)


def test_tp_sp_under_cp_sees_the_cp_shard():
    # CP shards the 230,400-token sample, so TP-SP moves S/cp = 115,200 tokens.
    plan = _comm(cp=2, S=230_400, latency_ms=0.02)
    assert plan.tp_sp_raw_ms_per_layer == 2 * 1 * 115_200 * 3072 * 2 * 7 / 8 / 200e9 * 1e3 + 2 * 0.02
    gate = cp_gate_and_comm(230_400, 1, 230_400, 3072, 2, 2, 50e9, 0.02)
    assert gate.violation is None
    assert plan.cp_ms_per_layer == gate.time_ms > 0


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
    plan = _comm(dp=1, latency_ms=0.02)
    assert (plan.dp_raw_ms_per_step, plan.dp_exposed_ms_per_step) == (0.0, 0.0)


def test_dp_reference_volume():
    # 2 collectives * (P/tp) * 2 bytes * 15/16 over 50 GB/s = 125.6 ms
    plan = _comm(dp=16)
    raw = plan.dp_raw_ms_per_step
    assert raw == pytest.approx(2 * (13.4e9 / 8) * 2 * (15 / 16) / 50e9 * 1e3)
    assert raw == pytest.approx(125.625)
    assert plan.dp_exposed_ms_per_step == raw  # no overlap windows supplied


def test_dp_fully_hidden_with_wide_windows():
    plan = _comm(dp=16, latency_ms=0.02, windows=(700.0, 700.0))
    assert plan.dp_raw_ms_per_step > 0
    assert plan.dp_exposed_ms_per_step == 0.0


def _exposed_comm(par, bucket):
    """The collectives of ``par`` on ``bucket`` and estimate_step's exposed
    communication for them, at ``par.grad_accum`` micro-steps."""
    S = token_count(bucket, TABLE2_FIT).tokens
    plan = build_comm_plan(TABLE2_FIT, REFERENCE_CLUSTER, DT, par, bucket.batch, S, 13.4e9,
                           OverlapConfig())
    est = estimate_step(TABLE2_FIT, bucket, par, REFERENCE_CLUSTER, DT, comm=plan)
    return plan, est.t_exposed_comm_ms


def test_comm_plan_composition():
    # TP-SP pays a forward and a backward leg in every layer of every
    # micro-step; DP pays once per step.
    par = ParallelConfig(tp=8, cp=1, dp=2, grad_accum=2)
    plan, exposed = _exposed_comm(par, Bucket(1, 125, 720, 1280))  # 115,200 tokens
    assert plan.cp_ms_per_layer == 0.0
    assert plan.dp_exposed_ms_per_step > 0.0
    L = TABLE2_FIT.num_layers
    assert exposed == plan.tp_sp_exposed_ms_per_layer * 2 * L * 2 + plan.dp_exposed_ms_per_step


def test_comm_plan_composition_with_context_parallelism():
    # Above the CP gate the all-to-alls join TP-SP on every leg of every
    # layer and micro-step; dp=1 leaves no DP term.
    par = ParallelConfig(tp=8, cp=2, dp=1, grad_accum=2)
    plan, exposed = _exposed_comm(par, Bucket(1, 125, 960, 1920))  # 230,400 tokens
    assert plan.cp_ms_per_layer > 0.0 and plan.tp_sp_exposed_ms_per_layer > 0.0
    assert plan.dp_exposed_ms_per_step == 0.0
    L = TABLE2_FIT.num_layers
    assert exposed == ((plan.tp_sp_exposed_ms_per_layer + plan.cp_ms_per_layer) * 2 * L * 2
                       + plan.dp_exposed_ms_per_step)


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


@pytest.mark.parametrize("cp", [0, 3, 5, 6])
def test_gate_refuses_a_cp_that_is_not_a_power_of_two(cp):
    # No layout holds such a cp, so the gate's shard count cp // 2 is exact.
    with pytest.raises(ConfigError, match=rf"^parallel\.cp: cp must be a power of two >= 1, got {cp}$"):
        cp_gate_and_comm(230_400, 1, 230_400, 3072, cp, 2, 50e9, 0.02)


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
    config = load_config(reference_config_path())
    report = ditplan.report.run_train_plan(config)
    # A stage bucket whose (batch, tokens) shape an earlier one had reuses
    # that one's entries: only the first occurrence of a shape is evaluated.
    evaluated = {}
    for stage in report["stages"]:
        shape = (stage["bucket"][0], token_count(Bucket(*stage["bucket"]), config.model).tokens)
        evaluated.setdefault(shape, len(stage["plans"]) + len(stage["infeasible"]))
    candidates = sum(len(s["plans"]) + len(s["infeasible"]) for s in report["stages"])
    assert (len(report["stages"]), len(evaluated), candidates) == (14, 9, 56)
    assert sum(evaluated.values()) == 36
    assert calls == {"build_comm_plan": 36, "cp_gate_and_comm": 36}
