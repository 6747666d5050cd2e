"""Pass-through span wrappers around ditplan's layer functions.

The tracer replaces each target function at every name that a ditplan
module binds it to (``ditplan.report.estimate_step``,
``ditplan.comm.build_comm_plan`` inside the enumerator, ...), records one
span per call and restores the originals on :meth:`Tracer.uninstall`.
Spans stay in memory until the run ends. A target that no longer exists
is listed in :attr:`Tracer.absent`; the run goes on without it.

Recursive helpers such as ``report._round_floats`` are deliberately not
wrapped: a span per recursion step would swamp the timing.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (layer, home module, function). Layers are ditplan's modules.
TARGETS = (
    ("config", "ditplan.config", "load_config"),
    ("config", "ditplan.config", "parse_config"),
    ("buckets", "ditplan.buckets", "token_count"),
    ("buckets", "ditplan.buckets", "check_token_balance"),
    ("comm", "ditplan.comm", "enumerate_parallel_configs"),
    ("comm", "ditplan.comm", "build_comm_plan"),
    ("comm", "ditplan.comm", "cp_gate_and_comm"),
    ("memory", "ditplan.memory", "activation_per_layer"),
    ("memory", "ditplan.memory", "model_states_bytes"),
    ("recompute", "ditplan.recompute", "plan_recompute"),
    ("offload", "ditplan.offload", "balance_strategies"),
    ("offload", "ditplan.offload", "plan_activation_offload"),
    ("simulate", "ditplan.simulate", "estimate_step"),
    ("simulate", "ditplan.simulate", "simulate_stages"),
    ("report", "ditplan.report", "run_train_plan"),
    ("report", "ditplan.report", "render"),
    ("inference", "ditplan.inference", "plan_cache"),
    ("inference", "ditplan.inference", "plan_temporal_windows"),
    ("inference", "ditplan.inference", "plan_vae_tiles"),
    ("cli", "ditplan.cli", "build_parser"),
)

# Span record fields.
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Collects spans ``[name, start_ns, end_ns, parent, op, note]`` in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self.op = -1
        self._op_record: list[Any] | None = None
        self._stack: list[int] = []
        self._sites: list[tuple[Any, str, Callable, Callable]] | None = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        stack = self._stack
        record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list[Any]) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_record = self._open("op")

    def end_op(self) -> None:
        self._close(self._op_record)

    def wrap(self, name: str, fn: Callable, observe: Callable[[Any], Any] | None = None) -> Callable:
        """A pass-through wrapper recording one span per call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[NOTE] = type(exc).__name__
                raise
            finally:
                self._close(record)
            if observe is not None:
                record[NOTE] = observe(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _observer(self, name: str) -> Callable[[Any], Any] | None:
        if name == "comm.cp_gate_and_comm":
            return lambda gate: "rejected" if getattr(gate, "violation", None) else None
        if name == "report.render":
            return len
        if name == "cli.build_parser":
            return self._wrap_parse_args
        return None

    def _wrap_parse_args(self, parser: Any) -> None:
        parse_args = getattr(parser, "parse_args", None)
        if parse_args is not None:
            parser.parse_args = self.wrap("cli.parse_args", parse_args)

    def _find_sites(self) -> list[tuple[Any, str, Callable, Callable]]:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "ditplan" or name.startswith("ditplan."))
        ]
        sites = []
        for layer, home, function in TARGETS:
            original = getattr(sys.modules.get(home), function, None)
            if not callable(original):
                self.absent.append(f"{home}.{function}")
                continue
            name = f"{layer}.{function}"
            wrapper = self.wrap(name, original, self._observer(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, attr, original, wrapper))
        return sites

    def install(self) -> None:
        """Bind the wrappers in place of the originals (ditplan must be imported)."""
        if self._sites is None:
            self._sites = self._find_sites()
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites or ():
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = (
    "plan-train",
    "simulate",
    "plan-recompute",
    "plan-infer",
    "plan-windows",
    "plan-vae-tiles",
    "buckets-check",
)

SELF_MS = (
    "config.parse_config",
    "config.load_config",
    "buckets.check_token_balance",
    "comm.enumerate_parallel_configs",
    "comm.build_comm_plan",
    "memory.activation_per_layer",
    "recompute.plan_recompute",
    "offload.balance_strategies",
    "simulate.estimate_step",
    "simulate.simulate_stages",
    "report.run_train_plan",
    "report.render",
    "inference.plan_cache",
    "inference.plan_temporal_windows",
    "inference.plan_vae_tiles",
)
CALLS_PER_OP = (
    "comm.enumerate_parallel_configs",
    "recompute.plan_recompute",
    "offload.balance_strategies",
    "offload.plan_activation_offload",
    "simulate.estimate_step",
)
CALLS_PER_CANDIDATE = (
    "buckets.token_count",
    "comm.build_comm_plan",
    "comm.cp_gate_and_comm",
    "memory.activation_per_layer",
    "memory.model_states_bytes",
)

# Name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "import.ditplan_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.interpreter_floor_ms": "ms",
    "cli.parse_args_ms": "ms",
    **{f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS},
    **{f"{name}.self_ms": "ms/op" for name in SELF_MS},
    **{f"{name}.calls": "calls/op" for name in CALLS_PER_OP},
    **{f"{name}.calls_per_candidate": "calls/candidate" for name in CALLS_PER_CANDIDATE},
    "comm.cp_gate_rejected_share": "share",
    "recompute.plan_recompute.p50_us": "us",
    "recompute.oracle_gap_share": "share",
    "recompute.oracle_excess_ms": "ms/call",
    "offload.attempts_per_candidate": "calls/candidate",
    "offload.first_attempt_share": "share",
    "simulate.overflow_share": "share",
    "report.render_bytes_per_op": "bytes/op",
    "report.candidates_per_op": "count/op",
    "report.infeasible_share": "share",
    "trace.overhead_share": "share",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[list[Any]], ops: list[dict[str, Any]], extra: dict[str, float], window: int
) -> dict[str, float]:
    """Per-layer metrics from the spans of traced ops plus per-op records.

    ``ops`` holds one dict per timed op, in op order (``kind``, ``traced``,
    ``ns``, ``stats``); traced ops all lie among the first ``window``.
    ``extra`` supplies the readings taken outside the op loop (import
    probes, interpreter floor, oracle readings).
    """
    traced_ops = [op for op in ops if op["traced"]]
    plain_ops = [op for op in ops if not op["traced"]]
    n_traced = len(traced_ops)
    traced_candidates = sum(op["stats"]["candidates"] for op in traced_ops)

    child_ns: dict[int, int] = defaultdict(int)
    for record in spans:
        if record[PARENT] >= 0:
            child_ns[record[PARENT]] += record[END] - record[START]
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    attempts = 0
    for index, record in enumerate(spans):
        name = record[NAME]
        duration = record[END] - record[START]
        self_ns[name] += duration - child_ns[index]
        calls[name] += 1
        if name in ("recompute.plan_recompute", "cli.build_parser", "cli.parse_args"):
            durations[name].append(duration)
        if name == "report.render" and isinstance(record[NOTE], int):
            notes[name] += record[NOTE]
        elif record[NOTE] is not None:
            notes[f"{name}:{record[NOTE]}"] += 1
        parent = record[PARENT]
        if (
            name in ("offload.balance_strategies", "recompute.plan_recompute")
            and parent >= 0
            and spans[parent][NAME] == "report.run_train_plan"
        ):
            attempts += 1

    metrics: dict[str, float] = {}
    metrics["import.ditplan_ms"] = extra.get("import.ditplan_ms", 0.0)
    metrics["import.numpy_ms"] = extra.get("import.numpy_ms", 0.0)
    metrics["cli.interpreter_floor_ms"] = extra.get("cli.interpreter_floor_ms", 0.0)
    # build_parser and parse_args run once each per cli.main call.
    parse_ns = [b + p for b, p in zip(durations["cli.build_parser"], durations["cli.parse_args"])]
    metrics["cli.parse_args_ms"] = _median(parse_ns) / 1e6
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = _median([op["ns"] for op in plain_ops if op["kind"] == sub]) / 1e6
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = _ratio(self_ns[name], n_traced) / 1e6
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls"] = _ratio(calls[name], n_traced)
    for name in CALLS_PER_CANDIDATE:
        metrics[f"{name}.calls_per_candidate"] = _ratio(calls[name], traced_candidates)
    metrics["comm.cp_gate_rejected_share"] = _ratio(
        notes["comm.cp_gate_and_comm:rejected"], calls["comm.cp_gate_and_comm"]
    )
    metrics["recompute.plan_recompute.p50_us"] = _median(durations["recompute.plan_recompute"]) / 1e3
    metrics["recompute.oracle_gap_share"] = extra.get("recompute.oracle_gap_share", 0.0)
    metrics["recompute.oracle_excess_ms"] = extra.get("recompute.oracle_excess_ms", 0.0)
    metrics["offload.attempts_per_candidate"] = _ratio(attempts, traced_candidates)
    first_attempt = sum(op["stats"]["first_attempt"] for op in ops)
    plans = sum(op["stats"]["plans"] for op in ops)
    metrics["offload.first_attempt_share"] = _ratio(first_attempt, plans)
    metrics["simulate.overflow_share"] = _ratio(
        notes["simulate.estimate_step:MemoryOverflowError"], calls["simulate.estimate_step"]
    )
    metrics["report.render_bytes_per_op"] = _ratio(notes["report.render"], n_traced)
    candidates = sum(op["stats"]["candidates"] for op in ops)
    metrics["report.candidates_per_op"] = _ratio(candidates, len(ops))
    metrics["report.infeasible_share"] = _ratio(sum(op["stats"]["infeasible"] for op in ops), candidates)
    # Compare with the untraced ops of the same stretch of the run.
    traced_p50 = _median([op["ns"] for op in traced_ops])
    plain_p50 = _median([op["ns"] for op in ops[:window] if not op["traced"]])
    metrics["trace.overhead_share"] = _ratio(traced_p50 - plain_p50, plain_p50)
    return {name: metrics[name] for name in PER_LAYER_UNITS}
