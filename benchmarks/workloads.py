"""The three workloads: seeded inputs, the timed op, and its output check.

Each workload is a closed loop with one client and no think time. Op
``i`` of a run with seed ``s`` always gets the same input, drawn from
``random.Random(f"{workload}:{s}:{i}")``, and no op repeats another's
input, so a cache keyed on whole inputs cannot serve repeats that real
sweeps would not have.

* ``cold-cli`` spawns one fresh interpreter per op, running
  ``ditplan.cli.main`` through ``cli_child.py``; the seven subcommands
  take turns. The worker itself never imports ditplan.
* ``plan-sweep`` runs warm in-process: variants of the reference config
  through ``parse_config`` -> ``run_train_plan`` -> ``render``, and one op
  in four through an in-process ``cli.main(["simulate", ...])``.
* ``chunk-tables`` runs warm in-process: a random 9-20 chunk table
  through ``plan_recompute`` at fixed targets, then one pinned one-stage
  ``run_train_plan(..., chunks=table)`` + ``render``.

Only stable entry points are used: ``ditplan.cli.main``,
``load_config``/``parse_config``, ``run_train_plan(config, chunks=,
offload_mode=)``, ``render`` and ``plan_recompute``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from typing import Any

import checks
from tracing import CLI_SUBCOMMANDS, PARENT, Tracer

REFERENCE_CONFIG = Path("src") / "ditplan" / "data" / "reference_config.json"
BENCH_DIR = Path(__file__).resolve().parent

# Stages added to variants: both sit above the 200k-token CP gate.
LONG_STAGES = (("long-125x1088x1920", [1, 125, 1088, 1920]), ("long-2x125x960", [2, 125, 960, 960]))
OFFLOAD_MODES = ("auto", "auto", "off", "optimizer-only")
# chunk-tables: targets per table, as fractions of the recomputable total.
TARGET_FRACTIONS = tuple(1.1 * k / 11 for k in range(12))
# The oracle enumerates 2^n subsets; keep it to pools of this size.
ORACLE_MAX_CHUNKS = 14
# Per-op counts; check_plan_train and check_simulate return the same keys.
EMPTY_STATS = {"candidates": 0, "plans": 0, "infeasible": 0, "first_attempt": 0}
# A CLI child running longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 30

# Imported by Workload.setup in warm workers; the cold-cli worker never imports it.
ditplan: Any = None


def config_variant(
    rng: random.Random, base: dict[str, Any], slot: int, allow_pin: bool
) -> tuple[dict[str, Any], str]:
    """A seeded variant of the reference config plus an offload mode.

    ``slot`` fixes the strata that set most of a variant's cost: the
    number of stages (2-5), which long stages join (none, either, both)
    and, one slot in five, a pinned layout. Consecutive slots cycle
    through them, so every run gets the same mix; the rest is random.
    """
    doc = copy.deepcopy(base)
    cluster = doc["cluster"]
    cluster["num_nodes"] = rng.randint(1, 8)
    cluster["device_mem"] = rng.randint(40, 96) * 1e9
    cluster["intra_node_bw"] = rng.choice((100e9, 200e9, 300e9, 450e9))
    cluster["inter_node_bw"] = rng.choice((12.5e9, 25e9, 50e9, 100e9))
    cluster["pcie_bw_per_device"] = rng.choice((16e9, 25e9, 32e9, 64e9))
    parallel = doc.setdefault("parallel", {})
    parallel["grad_accum"] = rng.choice((1, 1, 2, 4, 8))
    stages = base["stages"]
    picked = sorted(rng.sample(range(len(stages)), 2 + slot % 4))
    doc["stages"] = [copy.deepcopy(stages[i]) for i in picked]
    template = {k: v for k, v in stages[-1].items() if k not in ("image_bucket", "video_bucket")}
    for k, (name, bucket) in enumerate(LONG_STAGES):
        if (slot // 4) >> k & 1:
            doc["stages"].append({**template, "name": name, "video_bucket": list(bucket)})
    if allow_pin and slot % 5 == 4:
        # A pinned cp=2 is rejected by the CP gate on every bucket below it.
        tp = rng.choice((4, 8))
        total = cluster["num_nodes"] * cluster["devices_per_node"]
        cp = rng.choice((1, 1, 2)) if total >= 2 * tp else 1
        parallel.update(tp=tp, cp=cp, dp=total // (tp * cp))
    return doc, rng.choice(OFFLOAD_MODES)


def chunk_table(rng: random.Random, n: int) -> list[dict[str, Any]]:
    """``n`` random chunks mixing attention-class, non-recomputable and non-offloadable ones."""
    chunks = []
    for k in range(n):
        attention = rng.random() < 0.2
        chunks.append(
            {
                "name": f"{'attn' if attention else 'op'}{k:02d}",
                "coeff_bsh": rng.choice((1, 2, 2.5, 4, 6, 8, 12)),
                "coeff_bas": float(rng.choice((16, 32, 64, 96))) if attention else 0.0,
                "fwd_latency_ms": round(
                    math.exp(rng.uniform(math.log(20.0), math.log(150.0)))
                    if attention
                    else math.exp(rng.uniform(math.log(0.2), math.log(15.0))),
                    3,
                ),
                "recomputable": k == 0 or rng.random() >= 0.15,
                "offloadable": rng.random() >= 0.25,
            }
        )
    return chunks


def answer_digest(answers: list[str]) -> str:
    """sha256 over the per-op answer hashes, in op order."""
    per_op = [hashlib.sha256(a.encode()).hexdigest() for a in answers]
    return hashlib.sha256("\n".join(per_op).encode()).hexdigest()


def devices(doc: dict[str, Any]) -> int:
    return doc["cluster"]["num_nodes"] * doc["cluster"]["devices_per_node"]


class OracleTally:
    """Greedy-vs-exhaustive recompute comparisons, for ``recompute.oracle_*``."""

    def __init__(self) -> None:
        self.checked = 0
        self.gaps = 0
        self.excess_ms = 0.0

    def add(
        self, pool: dict[str, tuple[int, float]], targets: list[int], latencies: list[float]
    ) -> None:
        if len(pool) > ORACLE_MAX_CHUNKS:
            return
        for target, best, got in zip(targets, checks.oracle_min_latency(pool, targets), latencies):
            if best is None or target <= 0:
                continue
            self.checked += 1
            if got > best + 1e-6:
                self.gaps += 1
                self.excess_ms += got - best

    def metrics(self) -> dict[str, float]:
        if not self.checked:
            return {"recompute.oracle_gap_share": 0.0, "recompute.oracle_excess_ms": 0.0}
        return {
            "recompute.oracle_gap_share": self.gaps / self.checked,
            "recompute.oracle_excess_ms": self.excess_ms / self.checked,
        }


class Workload:
    """Base: ``make_input`` -> ``prepare`` (untimed) -> ``run`` (timed) -> ``check``."""

    name = ""
    in_process = True
    # Ops per timing window: one cycle of the strata that ``make_input``
    # cycles through (see worker.steady_ops).
    window = 1

    def __init__(self, root: Path, work: Path, seed: int, trace: bool, env: dict[str, str]) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.trace = trace
        self.env = env
        self.base = json.loads((root / REFERENCE_CONFIG).read_text())
        self.oracle = OracleTally()
        self.reference_digest = ""

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def write(self, name: str, payload: Any) -> str:
        path = self.work / name
        path.write_text(json.dumps(payload))
        return str(path)

    def setup(self) -> None:
        """Import ditplan, plan the reference config once and run warm-up ops."""
        global ditplan
        import ditplan
        import ditplan.cli  # noqa: F401  (cli is not imported by the package)

        text = ditplan.render(ditplan.run_train_plan(ditplan.load_config(self.root / REFERENCE_CONFIG)))
        self.reference_digest = hashlib.sha256(text.encode()).hexdigest()
        # Warm-up ops take negative indexes, outside the timed ops' inputs.
        for i in (-1, -2):
            # A warm-up failure is not counted: the timed ops show it.
            with contextlib.suppress(Exception):
                self.run(self.prepare(self.make_input(i), i))

    def finish(self) -> dict[int, str]:
        """Checks that need the whole run; returns op -> failure message."""
        return {}


class PlanSweep(Workload):
    name = "plan-sweep"
    window = 80  # config_variant's slots

    def make_input(self, i):
        rng = self.rng(i)
        kind = "simulate" if i % 4 == 3 else "train-api"
        doc, mode = config_variant(rng, self.base, i, allow_pin=kind == "train-api")
        return {"kind": kind, "doc": doc, "mode": mode}

    def prepare(self, inp, i, traced=False):
        if inp["kind"] == "simulate":
            return {**inp, "path": self.write(f"sweep-{i}.json", inp["doc"])}
        return inp

    def run(self, prep):
        if prep["kind"] == "simulate":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ditplan.cli.main(["simulate", "--config", prep["path"]])
            return f"{code}\n{out.getvalue()}"
        config = ditplan.parse_config(prep["doc"])
        return ditplan.render(ditplan.run_train_plan(config, offload_mode=prep["mode"]))

    def check(self, i, inp, answer):
        doc = inp["doc"]
        if inp["kind"] == "simulate":
            code, text = answer.split("\n", 1)
            return checks.check_simulate(text, doc["cluster"]["device_mem"], int(code))
        return checks.check_plan_train(answer, devices(doc), doc["cluster"]["device_mem"], inp["mode"])


class ChunkTables(Workload):
    name = "chunk-tables"
    window = 36  # 12 table sizes x 9 stages

    def make_input(self, i):
        rng = self.rng(i)
        # Table size and stage cycle with the op index, so every run gets the same mix.
        chunks = chunk_table(rng, 9 + i % 12)
        shape = (rng.choice((1, 2)), rng.choice((28_800, 57_600, 115_200)), 3072, 24, rng.choice((4, 8)))
        names = [c["name"] for c in chunks]
        exclude = sorted(rng.sample(names, len(names) // 4))
        total = sum(b for b, _ in checks.recompute_pool(chunks, shape).values())
        targets = [round(total * f) for f in TARGET_FRACTIONS]
        doc = copy.deepcopy(self.base)
        doc["cluster"]["num_nodes"] = rng.randint(1, 4)
        doc["cluster"]["device_mem"] = rng.randint(40, 96) * 1e9
        doc["stages"] = [copy.deepcopy(self.base["stages"][i % len(self.base["stages"])])]
        doc.setdefault("parallel", {}).update(tp=8, cp=1, dp=devices(doc) // 8)
        mode = rng.choice(OFFLOAD_MODES)
        return {
            "kind": "table", "chunks": chunks, "shape": shape, "exclude": exclude,
            "targets": targets, "doc": doc, "mode": mode,
        }

    def prepare(self, inp, i, traced=False):
        table = ditplan.ChunkTable(chunks=tuple(ditplan.ChunkSpec(**c) for c in inp["chunks"]))
        return {**inp, "table": table}

    def run(self, prep):
        calls = []
        for excluded in ((), prep["exclude"]):
            for target in prep["targets"]:
                plan = ditplan.plan_recompute(prep["table"], target, *prep["shape"], exclude=excluded)
                calls.append([
                    list(plan.selected), plan.bytes_saved_per_layer,
                    plan.latency_added_per_layer_ms, plan.feasible,
                ])
        config = ditplan.parse_config(prep["doc"])
        report = ditplan.run_train_plan(config, chunks=prep["table"], offload_mode=prep["mode"])
        return json.dumps(calls) + "\n" + ditplan.render(report)

    def check(self, i, inp, answer):
        head, text = answer.split("\n", 1)
        calls = json.loads(head)
        targets = inp["targets"]
        for k, excluded in enumerate(((), inp["exclude"])):
            pool = checks.recompute_pool(inp["chunks"], inp["shape"], excluded)
            results = calls[k * len(targets) : (k + 1) * len(targets)]
            for target, (selected, saved, latency, feasible) in zip(targets, results):
                checks.check_recompute(pool, target, selected, saved, latency, feasible)
            if self.trace:
                self.oracle.add(pool, targets, [r[2] for r in results])
        doc = inp["doc"]
        return checks.check_plan_train(text, devices(doc), doc["cluster"]["device_mem"], inp["mode"])


class ColdCli(Workload):
    name = "cold-cli"
    in_process = False
    window = len(CLI_SUBCOMMANDS)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.train_outputs: list[tuple[int, str, str, str]] = []

    def setup(self):
        # One untimed child warms the page cache; the worker never imports ditplan.
        argv = ["plan", "train", "--config", str(self.root / REFERENCE_CONFIG)]
        self.run(self.prepare({"kind": "plan-train", "argv": argv, "files": {}}, "warmup"))

    def make_input(self, i):
        rng = self.rng(i)
        kind = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
        if kind in ("plan-train", "simulate"):
            slot = i // len(CLI_SUBCOMMANDS)
            doc, mode = config_variant(rng, self.base, slot, allow_pin=kind == "plan-train")
            if kind == "plan-train":
                argv = ["plan", "train", "--config", "@config", "--offload", mode]
            else:
                argv = ["simulate", "--config", "@config"]
            return {"kind": kind, "argv": argv, "files": {"@config": doc}, "mode": mode}
        if kind == "plan-recompute":
            chunks = chunk_table(rng, rng.randint(9, ORACLE_MAX_CHUNKS))
            total = sum(b for b, _ in checks.recompute_pool(chunks, (1, 115_200, 3072, 24, 8)).values())
            required_mb = f"{rng.uniform(0.0, 1.1) * total / checks.MIB:.3f}"
            argv = ["plan", "recompute", "--required-mb", required_mb, "--chunk-table", "@table"]
            files = {"@table": {"chunks": chunks}}
            return {"kind": kind, "argv": argv, "files": files, "required_mb": required_mb}
        if kind == "plan-infer":
            steps = rng.randint(10, 100)
            argv = [
                "plan", "infer", "--steps", str(steps), "--warmup", str(rng.randint(0, min(15, steps))),
                "--interval", str(rng.randint(1, 5)), "--mode", rng.choice(("dit", "attn")),
                "--cached-cost-fraction", str(rng.choice((0.1, 0.25, 0.4, 0.5))),
            ]
            return {"kind": kind, "argv": argv, "files": {}, "steps": steps}
        if kind == "plan-windows":
            n_prime = rng.randint(16, 512)
            n = rng.randint(4, min(n_prime, 64))
            stride = rng.randint(1, n)
            argv = ["plan", "windows", "--n-prime", str(n_prime), "--n", str(n), "--stride", str(stride)]
            return {"kind": kind, "argv": argv, "files": {}, "window": [n_prime, n, stride]}
        if kind == "plan-vae-tiles":
            latent = [rng.randint(4, 33), rng.randint(16, 136), rng.randint(16, 240)]
            # A handful of tiles per axis, as in real decode tiling.
            tile = [rng.randint(max(2, math.ceil(d / 4)), d) for d in latent]
            overlap = [rng.randint(0, t // 4) for t in tile]
            count = rng.randint(1, 8)
            argv = [
                "plan", "vae-tiles", "--latent", ",".join(map(str, latent)),
                "--tile", ",".join(map(str, tile)), "--overlap", ",".join(map(str, overlap)),
                "--devices", str(count),
            ]
            return {"kind": kind, "argv": argv, "files": {}, "latent": latent, "devices": count}
        doc = copy.deepcopy(self.base)
        doc["buckets"] = [
            [
                rng.choice((1, 2, 4, 8)),
                rng.choice((1, 29, 61, 125)),
                rng.choice((320, 480, 640, 720, 854, 960)),
                rng.choice((320, 480, 640, 854, 960, 1280)),
            ]
            for _ in range(rng.randint(3, 8))
        ]
        tolerance = rng.choice((0.01, 0.05, 0.1, 0.25))
        argv = ["buckets", "check", "--config", "@config", "--tolerance", str(tolerance)]
        return {"kind": kind, "argv": argv, "files": {"@config": doc}, "tolerance": tolerance}

    def prepare(self, inp, i, traced=False):
        paths = {
            token: self.write(f"cli-{i}-{token[1:]}.json", payload)
            for token, payload in inp["files"].items()
        }
        argv = [paths.get(a, a) for a in inp["argv"]]
        command = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        if traced:
            spans = str(self.work / f"spans-{i}.json")
            command += ["--trace-out", spans, str(i)]
        else:
            spans = None
        return {**inp, "command": command + argv, "paths": paths, "spans": spans}

    def run(self, prep):
        proc = subprocess.run(
            prep["command"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=self.root, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return f"{proc.returncode}\n{proc.stdout}"

    def collect_spans(self, prep, tracer: Tracer) -> None:
        """Merge a traced child's spans into the worker's tracer."""
        path = Path(prep["spans"])
        if not path.is_file():  # the child failed before writing them; the op is failed already
            return
        child = json.loads(path.read_text())
        path.unlink()
        tracer.absent.extend(a for a in child["absent"] if a not in tracer.absent)
        offset = len(tracer.spans)
        for record in child["spans"]:
            if record[PARENT] >= 0:
                record[PARENT] += offset
            tracer.spans.append(record)

    def check(self, i, inp, answer):
        code_text, text = answer.split("\n", 1)
        code = int(code_text)
        kind = inp["kind"]
        if kind == "plan-train":
            doc = inp["files"]["@config"]
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.train_outputs.append((i, inp["paths"]["@config"], inp["mode"], digest))
            return checks.check_plan_train(
                text, devices(doc), doc["cluster"]["device_mem"], inp["mode"], exit_code=code
            )
        if kind == "simulate":
            return checks.check_simulate(text, inp["files"]["@config"]["cluster"]["device_mem"], code)
        if kind == "plan-recompute":
            chunks = inp["files"]["@table"]["chunks"]
            shape = (1, 115_200, 3072, 24, 8)
            selected = checks.check_recompute_cli(text, code, chunks, shape, inp["required_mb"])
            if self.trace:
                pool = checks.recompute_pool(chunks, shape)
                latency = sum(pool[n][1] for n in selected)
                self.oracle.add(pool, [int(float(inp["required_mb"]) * checks.MIB)], [latency])
        elif kind == "plan-infer":
            checks.check_infer(text, code, inp["steps"])
        elif kind == "plan-windows":
            checks.check_windows(text, code, *inp["window"])
        elif kind == "plan-vae-tiles":
            checks.check_vae_tiles(text, code, tuple(inp["latent"]), inp["devices"])
        else:
            doc = inp["files"]["@config"]
            patch = (doc["model"]["patch_t"], doc["model"]["patch_h"], doc["model"]["patch_w"])
            checks.check_buckets(text, code, doc["buckets"], inp["tolerance"], patch)
        return dict(EMPTY_STATS)

    def finish(self):
        """``plan train`` bytes must equal ``render(run_train_plan(load_config(f)))``.

        The expected bytes come from one reference child after the timed
        loop, so neither the worker nor op timing pays for them.
        """
        jobs = self.train_outputs
        request = self.write(
            "reference-jobs.json",
            {
                "reference_config": str(self.root / REFERENCE_CONFIG),
                "jobs": [[path, mode] for _, path, mode, _ in jobs],
            },
        )
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "reference.py"), request],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=self.root, text=True,
        )
        if proc.returncode != 0:
            reason = f"reference planning failed: {proc.stderr.strip()[-300:]}"
            return {i: reason for i, _, _, _ in jobs}
        reply = json.loads(proc.stdout)
        self.reference_digest = reply["reference"]
        failures = {}
        for (i, _, _, got), expected in zip(jobs, reply["expected"]):
            if got != expected:
                failures[i] = "plan train stdout differs from render(run_train_plan(load_config(f)))"
        return failures


WORKLOADS = {w.name: w for w in (ColdCli, PlanSweep, ChunkTables)}
