"""Tests of the benchmark itself: run with ``python -m pytest benchmarks/tests``."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

import checks
import tracing
import workloads
from conftest import BENCH, ROOT
from run import END_TO_END_UNITS
from worker import MIN_OPS, steady_ops

import ditplan
import ditplan.cli

REFERENCE = ROOT / workloads.REFERENCE_CONFIG


def make(name: str, seed: int, work, trace: bool = False):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return workloads.WORKLOADS[name](ROOT, work, seed, trace, env)


def run_ops(workload, count: int, tracer=None) -> list[str]:
    answers = []
    for i in range(count):
        traced = tracer is not None and workload.in_process
        prep = workload.prepare(workload.make_input(i), i, traced=tracer is not None)
        if traced:
            tracer.install()
            tracer.begin_op(i)
        try:
            answer = workload.run(prep)
        finally:
            if traced:
                tracer.end_op()
                tracer.uninstall()
        if tracer is not None and not workload.in_process:
            workload.collect_spans(prep, tracer)
        workload.check(i, prep, answer)
        answers.append(answer)
    return answers


def reference_text() -> str:
    return ditplan.render(ditplan.run_train_plan(ditplan.load_config(REFERENCE)))


# -- seeded inputs and digests ----------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, work):
    first = [make(name, 7, work).make_input(i) for i in range(14)]
    again = [make(name, 7, work).make_input(i) for i in range(14)]
    other = [make(name, 8, work).make_input(i) for i in range(14)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["plan-sweep", "chunk-tables"])
def test_same_seed_gives_same_digest(name, work):
    digests = []
    for _ in range(2):
        workload = make(name, 3, work)
        workload.setup()
        digests.append(workloads.answer_digest(run_ops(workload, 6)))
    assert digests[0] == digests[1]


def test_cold_cli_ops_pass_their_checks(work):
    workload = make("cold-cli", 5, work)
    run_ops(workload, len(tracing.CLI_SUBCOMMANDS))
    assert workload.finish() == {}


# -- output checks reject corrupted answers -----------------------------------


def test_plan_train_check_accepts_the_reference_report():
    stats = checks.check_plan_train(reference_text(), 16, 64e9, "auto", exit_code=0)
    assert stats["candidates"] == stats["plans"] + stats["infeasible"] > 0


def _corrupt(mutate) -> str:
    doc = json.loads(reference_text())
    mutate(doc)
    return json.dumps(doc, indent=2)


def _first_plans(doc, at_least=1):
    return next(s["plans"] for s in doc["stages"] if len(s["plans"]) >= at_least)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(reference_text().replace('"mfu": 0.', '"mfu": NaN, "x": 0.', 1), id="nan"),
        pytest.param(_corrupt(lambda d: _first_plans(d, 2).reverse()), id="unsorted"),
        pytest.param(
            _corrupt(lambda d: _first_plans(d)[0]["memory"].update(peak_gb=64.01)),
            id="peak-over-capacity",
        ),
        pytest.param(
            _corrupt(lambda d: _first_plans(d)[0]["timing"].update(t_compute_ms=1.0)), id="timing-sum"
        ),
        pytest.param(_corrupt(lambda d: _first_plans(d)[0].update(mfu=1.2)), id="mfu-above-one"),
        pytest.param(
            _corrupt(lambda d: _first_plans(d)[0]["parallel"].update(dp=64)), id="device-overcommit"
        ),
        pytest.param("{not json", id="not-json"),
    ],
)
def test_plan_train_check_rejects(text):
    with pytest.raises(checks.CheckFailed):
        checks.check_plan_train(text, 16, 64e9, "auto")


def test_plan_train_check_rejects_wrong_exit_code():
    with pytest.raises(checks.CheckFailed):
        checks.check_plan_train(reference_text(), 16, 64e9, "auto", exit_code=2)


POOL_CHUNKS = [
    {"name": "a", "coeff_bsh": 2, "fwd_latency_ms": 5.0},
    {"name": "b", "coeff_bsh": 4, "fwd_latency_ms": 1.0},
    {"name": "c", "coeff_bsh": 8, "fwd_latency_ms": 0.5},
    {"name": "d", "coeff_bsh": 6, "fwd_latency_ms": 2.0, "recomputable": False},
]
SHAPE = (1, 115_200, 3072, 24, 8)


def _plan(required, exclude=()):
    table = ditplan.ChunkTable(chunks=tuple(ditplan.ChunkSpec(**c) for c in POOL_CHUNKS))
    plan = ditplan.plan_recompute(table, required, *SHAPE, exclude=exclude)
    saved, latency = plan.bytes_saved_per_layer, plan.latency_added_per_layer_ms
    return list(plan.selected), saved, latency, plan.feasible


def test_recompute_check_accepts_plan_recompute():
    pool = checks.recompute_pool(POOL_CHUNKS, SHAPE)
    for required in (0, pool["c"][0], pool["c"][0] + 1, sum(b for b, _ in pool.values()) + 1):
        checks.check_recompute(pool, required, *_plan(required))


def test_recompute_check_rejects_short_cover():
    pool = checks.recompute_pool(POOL_CHUNKS, SHAPE)
    required = pool["c"][0] + pool["b"][0]
    selected, _, _, feasible = _plan(required)
    short = selected[:-1]
    saved = sum(pool[n][0] for n in short)
    latency = sum(pool[n][1] for n in short)
    with pytest.raises(checks.CheckFailed):
        checks.check_recompute(pool, required, short, saved, latency, feasible)


def test_recompute_check_rejects_excluded_and_unrecomputable_chunks():
    pool = checks.recompute_pool(POOL_CHUNKS, SHAPE, exclude=["c"])
    for bad in (["c"], ["d"]):
        with pytest.raises(checks.CheckFailed):
            checks.check_recompute(pool, 1, bad, 0, 0.0, True)


def test_recompute_check_rejects_wrong_latency_and_feasibility():
    pool = checks.recompute_pool(POOL_CHUNKS, SHAPE)
    selected, saved, latency, feasible = _plan(pool["c"][0])
    with pytest.raises(checks.CheckFailed):
        checks.check_recompute(pool, pool["c"][0], selected, saved, latency + 0.1, feasible)
    with pytest.raises(checks.CheckFailed):
        checks.check_recompute(pool, pool["c"][0], selected, saved, latency, not feasible)


def test_oracle_matches_itertools_search():
    chunks = POOL_CHUNKS + [{"name": "e", "coeff_bsh": 1, "fwd_latency_ms": 0.1}]
    pool = checks.recompute_pool(chunks, SHAPE)
    items = list(pool.values())
    targets = [0, 1, 50_000_000, 130_000_000, 400_000_000, 10**12]
    expected = []
    for target in targets:
        costs = [
            sum(lat for _, lat in subset)
            for r in range(len(items) + 1)
            for subset in itertools.combinations(items, r)
            if sum(b for b, _ in subset) >= target
        ]
        expected.append(min(costs) if costs else None)
    assert checks.oracle_min_latency(pool, targets) == pytest.approx(expected)


def test_windows_and_tiles_checks_reject_gaps():
    windows = {"num_clips": 2, "clips": [[0, 4], [6, 10]], "multiplicity": [1] * 4 + [0, 0] + [1] * 4}
    with pytest.raises(checks.CheckFailed):
        checks.check_windows(json.dumps(windows), 0, 10, 4, 6)
    tiles = {
        "num_tiles": 2,
        "tiles": [
            {"start": [0, 0, 0], "size": [4, 4, 4], "device": 0},
            {"start": [0, 0, 6], "size": [4, 4, 4], "device": 0},
        ],
    }
    with pytest.raises(checks.CheckFailed):
        checks.check_vae_tiles(json.dumps(tiles), 0, (4, 4, 10), 1)


# -- tracing --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["plan-sweep", "chunk-tables"])
def test_wrappers_are_pass_through(name, work):
    originals = {(home, fn): getattr(sys.modules[home], fn) for _, home, fn in tracing.TARGETS}
    plain = make(name, 4, work)
    plain.setup()
    expected = run_ops(plain, 6)
    tracer = tracing.Tracer()
    traced = make(name, 4, work, trace=True)
    traced.setup()
    assert run_ops(traced, 6, tracer) == expected
    assert tracer.spans and not tracer.absent
    assert {(home, fn): getattr(sys.modules[home], fn) for _, home, fn in tracing.TARGETS} == originals
    assert ditplan.render is originals[("ditplan.report", "render")]
    for record in tracer.spans:
        assert record[tracing.END] >= record[tracing.START]


def test_missing_target_is_reported_absent(monkeypatch):
    missing = ("report", "ditplan.report", "no_such_function")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (missing,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ditplan.render(ditplan.run_train_plan(ditplan.load_config(REFERENCE)))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["ditplan.report.no_such_function"]


def test_self_time_subtracts_children():
    spans = [
        ["op", 0, 100, -1, 0, None],
        ["report.run_train_plan", 10, 90, 0, 0, None],
        ["simulate.estimate_step", 20, 50, 1, 0, None],
    ]
    stats = dict(workloads.EMPTY_STATS, candidates=1)
    ops = [{"kind": "train-api", "traced": True, "ns": 100, "stats": stats}]
    metrics = tracing.layer_metrics(spans, ops, {}, window=1)
    assert metrics["report.run_train_plan.self_ms"] == pytest.approx(50 / 1e6)
    assert metrics["simulate.estimate_step.self_ms"] == pytest.approx(30 / 1e6)


def test_steady_ops_pool_the_slowest_whole_windows():
    # Windows of 25 ops; every fourth window runs slow, and 20 ops trail the last whole one.
    ops = [{"i": i, "ns": 3 if (i // 25) % 4 == 1 else 1} for i in range(420)]
    kept = steady_ops(ops, 25)
    assert len(kept) == MIN_OPS and all(op["ns"] == 3 for op in kept)
    assert sorted(op["i"] // 25 for op in kept[::25]) == [1, 5, 9, 13]
    # A quarter of 20 windows of 10 ops is too few: the first MIN_OPS ops count.
    assert steady_ops(ops[:200], 10) == ops[:MIN_OPS]
    # With no whole window, every op counts.
    assert steady_ops(ops[:20], 25) == ops[:20]


# -- the result line and its records -------------------------------------------


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["cold-cli", "plan-sweep", "chunk-tables"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_records_environment(trace):
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", "chunk-tables",
            "--seed", "9", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 100
    units = tracing.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    result = json.loads((BENCH / ".work" / f"chunk-tables-seed9-trace{trace}.json").read_text())
    env = result["environment"]
    assert env["seed"] == 9 and env["nproc"] >= 1 and env["cli.interpreter_floor_ms"] > 0
    assert env["python"] and env["numpy"] and env["git_commit"]
