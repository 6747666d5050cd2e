"""Planner wall-time benchmark for ditplan.

    python3 benchmarks/run.py --workload {cold-cli,plan-sweep,chunk-tables,all}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ditplan is imported from its ``src``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Lines before it print every
metric with its unit, the output digests and the environment. The full
result, with the span file of a traced run, lands in ``benchmarks/.work``.
See ``benchmarks/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cold-cli", "plan-sweep", "chunk-tables")
END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "candidates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Set-up is sampled this many times per run (probes plus the timed worker).
SETUP_SAMPLES = 9
FLOOR_SAMPLES = 7
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    return env


def run_child(
    command: list[str], env: dict[str, str], cwd: Path, timeout: float = 60
) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=cwd, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        command_text = " ".join(command[:4])
        raise BenchmarkError(f"{command_text} ... exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def interpreter_floor_ms(env: dict[str, str], root: Path) -> float:
    """Median wall time of ``python -c pass``: a machine-speed reference."""
    samples = []
    for _ in range(FLOOR_SAMPLES):
        t0 = time.perf_counter_ns()
        run_child([sys.executable, "-c", "pass"], env, root)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


def import_probes(env: dict[str, str], root: Path) -> dict[str, float]:
    """``import ditplan`` wall time, and numpy's cumulative share from ``-X importtime``."""
    timed = (
        "import time; t = time.perf_counter(); import ditplan; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    ditplan_ms, numpy_ms = [], []
    for _ in range(IMPORT_SAMPLES):
        ditplan_ms.append(float(run_child([sys.executable, "-c", timed], env, root).stdout))
        log = run_child([sys.executable, "-X", "importtime", "-c", "import ditplan"], env, root).stderr
        for line in log.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_ms.append(int(fields[1]) / 1e3)
    return {
        "import.ditplan_ms": statistics.median(ditplan_ms),
        "import.numpy_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
    }


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, floor_ms: float) -> dict[str, object]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "seed": seed,
        "cli.interpreter_floor_ms": floor_ms,
    }


def spawn_worker(
    args, root: Path, work: Path, env: dict[str, str], setup_only: bool
) -> tuple[dict, float]:
    """Run one worker; return its result and its set-up time in seconds."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", str(root), "--work", str(work),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_ns = time.monotonic_ns()
    proc = run_child(command, env, root, timeout=WORKER_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready_ns"] - spawned_ns) / 1e9


def run_workload(args, root: Path) -> dict:
    src = root / "src"
    env = child_env(src)
    work = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        floor_ms = interpreter_floor_ms(env, root)
        # Half the set-up-only samples run before the timed worker and half after,
        # so they meet more than one of the host's speed spells.
        setups = [
            spawn_worker(args, root, work, env, setup_only=True)[1] for _ in range(SETUP_SAMPLES // 2)
        ]
        result, setup_s = spawn_worker(args, root, work, env, setup_only=False)
        setups += [
            spawn_worker(args, root, work, env, setup_only=True)[1] for _ in range(SETUP_SAMPLES // 2)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(setup_s)
    result["setup_samples_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["environment"] = environment(root, args.seed, floor_ms)
    if args.trace:
        extra = import_probes(env, root)
        extra["cli.interpreter_floor_ms"] = floor_ms
        result["layer"].update(extra)
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable block and return the JSON result line."""
    if args.trace:
        units = PER_LAYER_UNITS
        values = result["layer"]
    else:
        units = END_TO_END_UNITS
        values = result["metrics"]
    env = result["environment"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {result['attempted']}  "
        f"steady ops {result['steady_ops']}  "
        f"failed {result['failed']}  nproc {env['nproc']}  python {env['python']}  "
        f"numpy {env['numpy']}  commit {env['git_commit'][:12]}"
    )
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>16.6f} {unit}")
    print(f"  {'ops_failed_share':<48} {result['ops_failed_share']:>16.6f} share")
    print(f"  digest {result['digest']} over the first {result['digest_ops']} ops")
    print(f"  reference plan train sha256 {result['reference_digest']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if result.get("absent"):
        print(f"  absent trace targets: {', '.join(result['absent'])}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = BENCH_DIR.parent
    if not (root / "src" / "ditplan" / "__init__.py").is_file():
        print(f"benchmark: no ditplan sources at {root / 'src' / 'ditplan'}", file=sys.stderr)
        return 2
    # Build: byte-compile once, so no timed op pays for compiling sources.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            result = run_workload(one, root)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        out = BENCH_DIR / ".work" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1))
        lines[name] = report(one, result)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
