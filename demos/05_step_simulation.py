"""Step simulation walkthrough: per-stage step time, peak memory and MFU.

The analytical model composes compute (attention O(S^2 H) + linears
O(S H^2)), recomputation re-runs, exposed communication and exposed
offload time. MFU counts only model forward+backward FLOPs against the
aggregate hardware peak. The multi-stage sweep runs the same evaluator
as `plan train` (and `ditplan simulate`) with the layout pinned.
"""

from ditplan import (
    Bucket,
    DTypePolicy,
    OverlapConfig,
    ParallelConfig,
    build_comm_plan,
    estimate_step,
    plan_recompute,
)
from ditplan.memory import BUILTIN_CHUNKS, chunk_retained_bytes
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT, load_reference_config
from ditplan.report import run_train_plan

dtypes = DTypePolicy()
par = ParallelConfig(tp=8, cp=1, dp=2)
bucket = Bucket(1, 125, 720, 1280)
args = dict(B=1, S=115_200, H=3072, A=24, tp=8)

print("== documented desk-scale MFU configuration ==")
print("  13.4B fitted model, 115,200-token bucket, tp=8 cp=1 dp=2,")
print("  kernel efficiency 0.5, all nine chunks recomputed, 0.8 TP-SP overlap")
full_set = plan_recompute(
    BUILTIN_CHUNKS, sum(chunk_retained_bytes(c, **args) for c in BUILTIN_CHUNKS.chunks), **args
)
comm = build_comm_plan(TABLE2_FIT, REFERENCE_CLUSTER, dtypes, par, 1, 115_200, 13.4e9, OverlapConfig())
est = estimate_step(
    TABLE2_FIT, bucket, par, REFERENCE_CLUSTER, dtypes,
    recompute=full_set, comm=comm, efficiency=0.5,
)
print(f"  compute {est.t_compute_ms / 1e3:7.2f} s   recompute {est.t_recompute_ms / 1e3:5.2f} s")
print(f"  exposed comm {est.t_exposed_comm_ms / 1e3:5.2f} s   exposed offload {est.t_exposed_offload_ms / 1e3:4.2f} s")
print(f"  step {est.step_time_ms / 1e3:.2f} s   peak {est.peak_mem_bytes / 1e9:.1f} GB   MFU {est.mfu:.3f}")
print("  (cluster-scale reported utilization is ~0.36; the desk-scale model")
print("   lands in the same neighborhood without claiming to reproduce it)")

print()
print("== multi-stage sweep on the shipped reference recipe, layout pinned ==")
config = load_reference_config()
config = config._replace(parallel=config.parallel._replace(tp=par.tp, cp=par.cp, dp=par.dp))
report = run_train_plan(config)
print(f"  {'stage':<16} {'kind':<6} {'bucket':<16} {'tokens':>8} {'step':>10} {'mfu':>6} {'peak':>8}")
for stage in report["stages"]:
    (plan,) = stage["plans"]
    bucket_label = "x".join(str(v) for v in stage["bucket"])
    print(
        f"  {stage['stage']:<16} {stage['bucket_kind']:<6} {bucket_label:<16} "
        f"{plan['tokens_per_batch']:>8,} {plan['timing']['step_time_ms'] / 1e3:>8.2f} s "
        f"{plan['mfu']:>6.3f} {plan['memory']['peak_gb']:>6.1f} GB"
    )
print("  image stages are cheap; the long-video stages dominate wall clock,")
print("  and their balanced offload/recompute plans keep every rank inside 64 GB.")
