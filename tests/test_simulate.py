import pytest

from ditplan.buckets import Bucket
from ditplan.comm import CommPlan, build_comm_plan
from ditplan.config import (
    DTypePolicy,
    ModelArch,
    OverlapConfig,
    ParallelConfig,
    ParallelSection,
    PlanningConfig,
    StageScenario,
    load_config,
    resolved_param_count,
)
from ditplan.memory import BUILTIN_CHUNKS
from ditplan.offload import NO_OFFLOAD, OffloadPlan
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT, reference_config_path
from ditplan.recompute import RecomputePlan, plan_recompute
from ditplan.report import OFFLOAD_MODES, run_train_plan
from ditplan.simulate import (
    BACKWARD_FLOPS_FACTOR,
    estimate_step,
    flops_per_microstep,
    forward_ms_per_microstep,
)

DT = DTypePolicy()
REF_BUCKET = Bucket(1, 125, 720, 1280)  # 115,200 tokens


ZERO_COMM = CommPlan(0.0, 0.0, 0.0, 0.0, 0.0)


def test_flops_attention_dominates_linear():
    arch = ModelArch(hidden_size=3072, num_heads=24, num_layers=1, adaln_mode="shared-weights")
    total = flops_per_microstep(arch, 1, 115_200)
    attention = 4 * 1 * 115_200**2 * 3072
    linear = 2 * 1 * 115_200 * 12 * 3072**2
    assert attention == pytest.approx(1.63e14, rel=0.01)
    assert linear == pytest.approx(2.6e13, rel=0.01)
    # tail: patchify embed + head, 2 * (patch_volume * c) * H params each way
    head_params = 2 * (1 * 2 * 2 * 8) * 3072
    assert total == attention + linear + 2 * 1 * 115_200 * head_params
    assert attention > 6 * linear


def test_flops_zero_sequence():
    assert flops_per_microstep(TABLE2_FIT, 1, 0) == 0


def test_flops_quadratic_vs_linear_scaling():
    arch = ModelArch(hidden_size=256, num_heads=4, num_layers=1, adaln_mode="shared-weights")
    s = 1 << 16
    attn = lambda seq: 4 * seq**2 * arch.hidden_size
    lin = lambda seq: 2 * seq * 12 * arch.hidden_size**2
    doubled = flops_per_microstep(arch, 1, 2 * s)
    base = flops_per_microstep(arch, 1, s)
    # attention term quadruples, linear term doubles
    assert doubled - 2 * base == pytest.approx(attn(2 * s) - 2 * attn(s), rel=1e-9)


def test_identity_case_mfu_is_exactly_one():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    est = estimate_step(
        TABLE2_FIT,
        REF_BUCKET,
        par,
        REFERENCE_CLUSTER,
        DT,
        recompute=None,
        offload=NO_OFFLOAD,
        comm=ZERO_COMM,
        efficiency=1.0,
    )
    assert est.mfu == 1.0
    assert est.t_recompute_ms == 0.0
    assert est.t_exposed_comm_ms == 0.0


def test_exposed_comm_equal_to_compute_halves_mfu():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    base = estimate_step(
        TABLE2_FIT,
        REF_BUCKET,
        par,
        REFERENCE_CLUSTER,
        DT,
        comm=ZERO_COMM,
        efficiency=1.0,
    )
    # hand the entire compute time back as exposed communication
    loaded = CommPlan(0.0, 0.0, 0.0, base.t_compute_ms, base.t_compute_ms)
    est = estimate_step(
        TABLE2_FIT,
        REF_BUCKET,
        par,
        REFERENCE_CLUSTER,
        DT,
        comm=loaded,
        efficiency=1.0,
    )
    assert est.mfu == 0.5


def test_recompute_latency_scales_with_layer_count():
    par = ParallelConfig(tp=8, cp=1, dp=2, grad_accum=1)
    plan = plan_recompute(BUILTIN_CHUNKS, 400 * 1024 * 1024)
    est = estimate_step(
        TABLE2_FIT,
        REF_BUCKET,
        par,
        REFERENCE_CLUSTER,
        DT,
        recompute=plan,
        comm=ZERO_COMM,
        efficiency=1.0,
    )
    # selected chunk latencies at the reference shape, once per layer
    assert est.t_recompute_ms == pytest.approx(
        TABLE2_FIT.num_layers * plan.latency_added_per_layer_ms, rel=1e-6
    )


def test_recompute_gelu_layernorm_pair_per_microstep():
    # the 0.64 + 0.58 ms pair re-run once per layer per micro-step
    par = ParallelConfig(tp=8, cp=1, dp=2, grad_accum=1)
    pair = RecomputePlan(("gelu", "layernorm_scale_shift"), 0, 1.22, True)
    est = estimate_step(
        TABLE2_FIT, REF_BUCKET, par, REFERENCE_CLUSTER, DT,
        recompute=pair, comm=ZERO_COMM, efficiency=1.0,
    )
    assert est.t_recompute_ms == pytest.approx(54 * 1.22, rel=1e-9)


def test_recompute_latency_rescales_with_sequence():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    gelu_only = RecomputePlan(("gelu",), 0, 0.64, True)
    attn_only = RecomputePlan(("flash_attention",), 0, 127.5, True)
    half = Bucket(1, 125, 720, 640)  # 57,600 tokens: half the reference S
    est_gelu = estimate_step(
        TABLE2_FIT, half, par, REFERENCE_CLUSTER, DT, recompute=gelu_only,
        comm=ZERO_COMM, efficiency=1.0,
    )
    est_attn = estimate_step(
        TABLE2_FIT, half, par, REFERENCE_CLUSTER, DT, recompute=attn_only,
        comm=ZERO_COMM, efficiency=1.0,
    )
    # IO-bound chunks scale linearly in S, attention quadratically
    assert est_gelu.t_recompute_ms == pytest.approx(54 * 0.64 * 0.5, rel=1e-9)
    assert est_attn.t_recompute_ms == pytest.approx(54 * 127.5 * 0.25, rel=1e-9)


def test_adding_recompute_chunk_never_faster_or_bigger():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    smaller = RecomputePlan(("gelu",), 0, 0.64, True)
    larger = RecomputePlan(("gelu", "gate"), 0, 1.0, True)
    a = estimate_step(
        TABLE2_FIT, REF_BUCKET, par, REFERENCE_CLUSTER, DT, recompute=smaller,
        comm=ZERO_COMM,
    )
    b = estimate_step(
        TABLE2_FIT, REF_BUCKET, par, REFERENCE_CLUSTER, DT, recompute=larger,
        comm=ZERO_COMM,
    )
    assert b.step_time_ms >= a.step_time_ms
    assert b.peak_mem_bytes <= a.peak_mem_bytes


def test_step_time_monotone_in_sequence():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    times = []
    for width in (640, 960, 1280):
        bucket = Bucket(1, 125, 720, width)
        est = estimate_step(
            TABLE2_FIT, bucket, par, REFERENCE_CLUSTER, DT,
            comm=ZERO_COMM,
        )
        times.append(est.step_time_ms)
    assert times == sorted(times)


def test_mfu_invariant_under_joint_rescaling():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    plan = plan_recompute(BUILTIN_CHUNKS, 200 * 1024 * 1024)
    comm = build_comm_plan(
        TABLE2_FIT, REFERENCE_CLUSTER, DT, par, 1, 115_200, 13.4e9, OverlapConfig()
    )
    est = estimate_step(
        TABLE2_FIT, REF_BUCKET, par, REFERENCE_CLUSTER, DT,
        recompute=plan, comm=comm,
    )
    # doubling peak FLOPs while halving every latency term leaves MFU fixed

    cluster2 = REFERENCE_CLUSTER._replace(peak_flops_per_device=2 * 312e12)
    comm2 = CommPlan(
        comm.tp_sp_raw_ms_per_layer / 2,
        comm.tp_sp_exposed_ms_per_layer / 2,
        comm.cp_ms_per_layer / 2,
        comm.dp_raw_ms_per_step / 2,
        comm.dp_exposed_ms_per_step / 2,
    )
    chunks2 = BUILTIN_CHUNKS.__class__(
        chunks=tuple(
            type(c)(c.name, c.coeff_bsh, c.coeff_bas, c.fwd_latency_ms / 2, c.recomputable, c.offloadable)
            for c in BUILTIN_CHUNKS.chunks
        )
    )
    est2 = estimate_step(
        TABLE2_FIT, REF_BUCKET, par, cluster2, DT,
        recompute=plan, comm=comm2, chunks=chunks2,
    )
    assert est2.mfu == pytest.approx(est.mfu, rel=1e-9)


def test_simulate_stages_image_and_video_reported_jointly():
    # simulate pins its layout and runs plan train's evaluator over the stage
    stage = StageScenario(
        name="joint-125x960",
        image_bucket=Bucket(1, 1, 960, 960),
        video_bucket=Bucket(1, 125, 960, 960),
        global_batch=256,
        step_count=10_000,
    )
    config = PlanningConfig(
        model=TABLE2_FIT,
        cluster=REFERENCE_CLUSTER,
        parallel=ParallelSection(tp=8, cp=1, dp=2),
        stages=(stage,),
    )
    docs = run_train_plan(config)["stages"]
    kinds = [(d["stage"], d["bucket_kind"]) for d in docs]
    assert kinds == [("joint-125x960", "image"), ("joint-125x960", "video")]
    (image,), (video,) = (d["plans"] for d in docs)
    assert video["tokens_per_batch"] == 32 * 60 * 60  # the 115,200-token regime
    assert image["tokens_per_batch"] == 3600
    assert video["timing"]["step_time_ms"] > image["timing"]["step_time_ms"]


def test_estimate_step_matches_every_reference_plan():
    # Two paths asked about the same layout give the same numbers: the
    # evaluator's entry and estimate_step fed the entry's layout, sets and
    # offload outcome. The entry's offload ms come back rounded to 3 decimals.
    config = load_config(reference_config_path())
    arch, cluster, efficiency = config.model, config.cluster, config.overlap.efficiency
    P = resolved_param_count(arch)
    checked = 0
    for mode in OFFLOAD_MODES:
        for stage in run_train_plan(config, offload_mode=mode)["stages"]:
            bucket = Bucket(*stage["bucket"])
            for entry in stage["plans"]:
                par = ParallelConfig(**entry["parallel"])
                B, S = bucket.batch, entry["tokens_per_sample"]
                fwd_ms = forward_ms_per_microstep(
                    flops_per_microstep(arch, B, S), cluster, par, efficiency
                )
                comm = build_comm_plan(
                    arch, cluster, config.dtypes, par, B, S, P, config.overlap,
                    first_fwd_window_ms=fwd_ms,
                    last_bwd_window_ms=BACKWARD_FLOPS_FACTOR * fwd_ms,
                )
                off = entry["offload"]
                offload = OffloadPlan(
                    off["optimizer_offloaded"], off["optimizer_exposed_ms"],
                    tuple(off["activation_set"]), off["activation_exposed_ms_per_microstep"],
                )
                recompute = RecomputePlan(tuple(entry["recompute"]["selected"]), 0, 0.0, True)
                est = estimate_step(
                    arch, bucket, par, cluster, config.dtypes, recompute=recompute,
                    offload=offload, comm=comm, efficiency=efficiency,
                )
                timing = entry["timing"]
                for name in ("t_compute_ms", "t_recompute_ms", "t_exposed_comm_ms",
                             "t_exposed_offload_ms", "step_time_ms"):
                    got = getattr(est, name)
                    assert abs(got - timing[name]) <= 0.002, (entry["parallel"], name, got)
                assert est.step_time_ms == (est.t_compute_ms + est.t_recompute_ms
                                            + est.t_exposed_comm_ms + est.t_exposed_offload_ms)
                assert round(est.peak_mem_bytes / 1e9, 3) == entry["memory"]["peak_gb"]
                # The whole memory block has the step's MemoryBreakdown as its one source.
                for name, field in (("params_gb", "params"), ("grads_gb", "grads"),
                                    ("optimizer_gb", "optimizer"),
                                    ("activations_gb", "activations_peak")):
                    got = round(getattr(est.memory, field) / 1e9, 3) or 0.0
                    assert got == entry["memory"][name], (entry["parallel"], name, got)
                assert round(est.mfu, 3) == entry["mfu"]
                checked += 1
    assert checked == 154
