"""Benchmark worker: set up one workload, run its timed closed loop, report.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.
Prints one JSON object on its last stdout line. ``--setup-only`` stops
once the first timed op could start, so ``run.py`` can sample set-up
time several times per run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import EMPTY_STATS, WORKLOADS, answer_digest

# p90 needs ten samples beyond it; the digest covers this many ops.
MIN_OPS = 100
# The loop stops at --seconds once MIN_OPS ran and the last window is whole,
# and never runs past this cap.
MAX_LOOP_SECONDS = 120.0
# A traced run traces a seeded half of its first TRACE_WINDOW ops, which keeps
# the in-memory span list to a few hundred thousand records. The pick is
# pseudo-random so that it cannot line up with the strata the inputs cycle through.
TRACE_WINDOW = 600


def run_loop(workload, seconds: float, tracer: Tracer | None) -> dict:
    ops: list[dict] = []
    answers: list[str] = []
    failures: dict[int, str] = {}
    start = time.monotonic()
    deadline = start + seconds
    cap = start + min(3 * seconds, MAX_LOOP_SECONDS)
    i = 0
    while True:
        now = time.monotonic()
        if now >= cap or (now >= deadline and i >= MIN_OPS and i % workload.window == 0):
            break
        traced = tracer is not None and i < TRACE_WINDOW and random.Random(f"trace:{i}").random() < 0.5
        prep = workload.prepare(workload.make_input(i), i, traced)
        in_process_trace = traced and workload.in_process
        if in_process_trace:
            tracer.install()
            tracer.begin_op(i)
        error = None
        t0 = time.perf_counter_ns()
        try:
            answer = workload.run(prep)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            answer = f"error\n{type(exc).__name__}: {exc}"
            error = answer
        elapsed = time.perf_counter_ns() - t0
        if in_process_trace:
            tracer.end_op()
            tracer.uninstall()
        if traced and not workload.in_process:
            workload.collect_spans(prep, tracer)
        stats = dict(EMPTY_STATS)
        if error is None:
            try:
                stats = workload.check(i, prep, answer)
            except Exception as exc:  # checks.CheckFailed, or an answer too broken to parse
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures[i] = error
        ops.append({"kind": prep["kind"], "traced": traced, "ns": elapsed, "stats": stats})
        if i < MIN_OPS:
            answers.append(answer)
        i += 1
    return {"ops": ops, "answers": answers, "failures": failures}


def steady_ops(ops: list[dict], window: int) -> list[dict]:
    """The ops of the slowest quarter of the run's windows.

    A window is ``window`` consecutive ops, one whole cycle of the strata
    the inputs follow, so every window has the same mix; a last, partial
    window is dropped. On a shared host the same ops run up to 1.5x faster
    or slower from one second to the next, and the share of time spent
    fast changes from one minute to the next, so a median over a whole run
    moves with that share. The slow level repeats from run to run, so the
    end-to-end op metrics are taken over the slowest windows. A change to
    the program moves every window alike.

    Where a quarter of the windows holds fewer than MIN_OPS ops, the first
    windows holding MIN_OPS count instead, so every run of a seed times the
    same inputs; with fewer ops than one window, all ops count.
    """
    windows = [ops[k : k + window] for k in range(0, len(ops) - window + 1, window)]
    if not windows:
        return ops
    quarter = math.ceil(len(windows) / 4)
    if quarter * window < MIN_OPS:
        return [op for w in windows[: math.ceil(MIN_OPS / window)] for op in w]
    windows.sort(key=lambda w: sum(op["ns"] for op in w), reverse=True)
    return [op for w in windows[:quarter] for op in w]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root)
    work = Path(args.work)
    workload = WORKLOADS[args.workload](root, work, args.seed, bool(args.trace), dict(os.environ))
    workload.setup()
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0

    tracer = Tracer() if args.trace else None
    loop = run_loop(workload, args.seconds, tracer)
    ops = loop["ops"]
    # Read before finish(): its reference child is not one of the ops.
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_kb = resource.getrusage(usage).ru_maxrss
    loop["failures"].update(workload.finish())

    steady = steady_ops(ops, workload.window)
    plain = [op["ns"] / 1e6 for op in steady if not op["traced"]]
    busy_s = sum(op["ns"] for op in steady) / 1e9
    result = {
        "ready_ns": ready_ns,
        "attempted": len(ops),
        "failed": len(loop["failures"]),
        "failures": [f"op {i}: {msg}" for i, msg in sorted(loop["failures"].items())[:10]],
        "digest": answer_digest(loop["answers"]),
        "digest_ops": len(loop["answers"]),
        "reference_digest": workload.reference_digest,
        "metrics": {
            "op_p50_ms": statistics.median(plain) if plain else 0.0,
            "op_p90_ms": percentile(plain, 90),
            "ops_per_s": len(steady) / busy_s if busy_s else 0.0,
            "candidates_per_s": sum(op["stats"]["candidates"] for op in steady) / busy_s if busy_s else 0.0,
            "peak_rss_mb": peak_rss_kb / 1024,
        },
        "ops_failed_share": len(loop["failures"]) / len(ops) if ops else 0.0,
        "steady_ops": len(steady),
    }
    if tracer is not None:
        spans_path = work.parent / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with spans_path.open("w") as out:
            for record in tracer.spans:
                out.write(json.dumps(record) + "\n")
        result["spans_file"] = str(spans_path)
        result["absent"] = tracer.absent
        result["layer"] = layer_metrics(tracer.spans, ops, workload.oracle.metrics(), TRACE_WINDOW)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
