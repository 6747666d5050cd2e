"""Plan-search driver and report emission.

``run_train_plan`` walks every stage bucket, enumerates candidate
parallel layouts once per distinct (batch, tokens) shape, balances
offload/recompute per candidate and costs the step once, producing one
ranked report document, a plain dict. Every
offload attempt of every mode picks its recompute and activation-offload
sets through the one selector, :func:`ditplan.offload.balance_strategies`.
Floats are rounded to three decimals where each entry is built; ranking
reads the unrounded step time.
:func:`render` is the one renderer of that document, as JSON, CSV or a
table, for both ``plan train`` and ``simulate``. Emission is byte-stable
(fixed key order); JSON goes through :func:`ditplan.emit.dump`, the one
JSON emitter.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any, NamedTuple

from .buckets import check_token_balance, snap_bucket, token_count
from .comm import build_comm_plan, enumerate_parallel_configs
from .config import (
    ParallelConfig,
    PlanningConfig,
    StageScenario,
    require_valid,
    resolved_param_count,
)
from .emit import dump
from .errors import ConfigError, InfeasibleError
from .memory import (BUILTIN_CHUNKS, ChunkTable, MemoryBreakdown, chunk_bytes_numerator,
                     model_states_bytes, resident_states)
from .offload import balance_strategies, effective_pcie_bw, plan_optimizer_offload
from .simulate import (BACKWARD_FLOPS_FACTOR, _cost_step, flops_per_microstep,
                       forward_ms_per_microstep, recompute_ms_per_chunk)

# Offload mode -> the (offload_optimizer, offload_activations) strategies tried, in order.
_ATTEMPTS = {"auto": ((False, True), (True, True)), "off": ((False, False),),
             "optimizer-only": ((True, False),)}
OFFLOAD_MODES = tuple(_ATTEMPTS)


def _round3(value: Any) -> Any:
    """Floats to three decimals, never ``-0.0``; ints and bools untouched.
    For the echoed input, whose numbers may be either."""
    if isinstance(value, float):
        value = round(value, 3)
        return value if value else 0.0
    return value


def _echo_input(config: PlanningConfig, chunks: ChunkTable, P: float) -> dict[str, Any]:
    model = config.model
    return {
        "model": {
            "hidden_size": model.hidden_size,
            "num_heads": model.num_heads,
            "num_layers": model.num_layers,
            "ffn_multiplier": model.ffn_multiplier,
            "adaln_mode": model.adaln_mode,
            "patch": [model.patch_t, model.patch_h, model.patch_w],
            "param_count": _round3(P),
            "param_count_source": "supplied" if model.param_count is not None else "estimated",
            "fitted_fields": list(config.fitted_fields),
        },
        "cluster": {k: _round3(v) for k, v in config.cluster._asdict().items()},
        "dtypes": config.dtypes._asdict(),
        "assumptions": {
            "tp_sp_overlap_fraction": _round3(config.overlap.tp_sp_fraction),
            "tp_sp_overlap_is_assumed": True,
            "compute_efficiency": _round3(config.overlap.efficiency),
            "collective_latency_ms": _round3(config.overlap.collective_latency_ms),
            "mfu_counts_recompute_flops": False,
            "chunk_table_ref_seqlen": chunks.ref_seqlen,
        },
    }


# A layout's model states and, per offload attempt, its resident states and layer budget.
_Layout = tuple[MemoryBreakdown, tuple[tuple[MemoryBreakdown, int | None], ...]]


class _Run(NamedTuple):
    """What every candidate of one report shares. ``attempts`` lists the
    (offload_optimizer, offload_activations) strategies to try, in order;
    ``layouts`` holds :func:`_layout_attempts`' answer per layout."""

    config: PlanningConfig
    chunks: ChunkTable
    P: float
    pcie: float
    attempts: tuple[tuple[bool, bool], ...]
    layouts: dict[tuple[int, int, str], _Layout]


def _layout_attempts(run: _Run, par: ParallelConfig) -> _Layout:
    """The model states at ``par`` and, in ``run.attempts`` order, each
    attempt's resident states and the activation bytes a layer may retain
    (``None`` when those states alone exceed device memory). Computed once per
    (tp, dp, zero_stage) per report: the model states depend on nothing else."""
    key = (par.tp, par.dp, par.zero_stage)
    layout = run.layouts.get(key)
    if layout is None:
        config = run.config
        device_mem, L = config.cluster.device_mem, config.model.num_layers
        states = model_states_bytes(run.P, config.dtypes, par)
        attempts = []
        for opt_off, _ in run.attempts:
            resident = resident_states(states, opt_off)
            act_budget = device_mem - resident.total
            attempts.append((resident, math.floor(act_budget / L) if act_budget >= 0 else None))
        layout = run.layouts[key] = states, tuple(attempts)
    return layout


class _Shape(NamedTuple):
    """What every candidate layout of one (batch, tokens) shape shares.
    ``shards`` maps a cp degree, once a candidate passes the CP gate with it,
    to each chunk's (name, unsharded byte numerator) and rescaled recompute
    ms at that shard; a candidate's retained bytes are
    ``round(numerator / tp)``, the formula of :func:`chunk_retained_bytes`."""

    B: int
    S: int
    fwd_flops: float
    shards: dict[int, tuple[list[tuple[str, float]], dict[str, float]]]


def _evaluate_candidate(
    run: _Run, shape: _Shape, par: ParallelConfig
) -> tuple[dict[str, Any], float | None]:
    """Balance strategies for one candidate and cost its step.

    Each offload attempt asks :func:`balance_strategies` for its recompute
    and activation-offload sets; the first attempt that fits is costed.

    Returns the plan entry and its unrounded step time, the ranking key.
    Infeasible candidates carry ``feasible=False`` plus a diagnostic
    instead of timings, and ``None`` for the step time.
    """
    config = run.config
    arch, cluster = config.model, config.cluster
    B, L = shape.B, arch.num_layers
    base = {"parallel": {"tp": par.tp, "cp": par.cp, "dp": par.dp, "zero_stage": par.zero_stage,
                         "grad_accum": par.grad_accum},
            "tokens_per_sample": shape.S, "tokens_per_batch": B * shape.S}
    efficiency = config.overlap.efficiency
    fwd_microstep_ms = forward_ms_per_microstep(shape.fwd_flops, cluster, par, efficiency)
    block_compute_ms = fwd_microstep_ms / L
    bwd_window_ms = BACKWARD_FLOPS_FACTOR * fwd_microstep_ms
    try:
        comm = build_comm_plan(arch, cluster, config.dtypes, par, B, shape.S, run.P, config.overlap,
                               first_fwd_window_ms=fwd_microstep_ms, last_bwd_window_ms=bwd_window_ms)
    except InfeasibleError as exc:
        return {**base, "feasible": False, "diagnostic": str(exc)}, None

    shard = shape.shards.get(par.cp)
    if shard is None:
        s_shard = shape.S // par.cp
        H, A = arch.hidden_size, arch.num_heads
        numerators = [(c.name, chunk_bytes_numerator(c, B, s_shard, H, A)) for c in run.chunks.chunks]
        shard = shape.shards[par.cp] = numerators, recompute_ms_per_chunk(run.chunks, B, s_shard)
    numerators, recompute_costs = shard
    tp = par.tp
    sizes = {name: round(numerator / tp) for name, numerator in numerators}
    full_act = sum(sizes.values())

    states, attempts = _layout_attempts(run, par)
    last_diag = "no strategy attempted"
    for (opt_off, act_off), (resident, layer_budget) in zip(run.attempts, attempts):
        if layer_budget is None:
            last_diag = (f"model states ({resident.total / 1e9:.1f} GB) alone exceed device "
                         f"memory ({cluster.device_mem / 1e9:.1f} GB)")
            continue
        required = max(0, full_act - layer_budget)
        try:
            recompute, act_plan = balance_strategies(
                required, run.chunks, sizes, cluster, block_compute_ms, L,
                offload_activations=act_off,
            )
        except InfeasibleError as exc:
            last_diag = str(exc)
            continue

        opt_exposed = 0.0
        if opt_off:
            opt_exposed = plan_optimizer_offload(
                states.optimizer, run.pcie, fwd_microstep_ms, bwd_window_ms
            )
        act_exposed = act_plan.exposed_ms_per_layer * L
        retained = full_act - recompute.bytes_saved_per_layer - act_plan.bytes_per_layer
        est = _cost_step(
            arch, par, recompute_costs, fwd_microstep_ms, resident, retained,
            recompute, act_exposed, opt_exposed, comm, efficiency,
        )
        step_ms, memory = est.step_time_ms, est.memory
        # Rounded to three decimals, never -0.0. The latency is never
        # negative, and an empty recompute set's int 0 stays an int.
        return {
            **base,
            "feasible": True,
            "comm": {
                "tp_sp_raw_ms_per_layer": round(comm.tp_sp_raw_ms_per_layer, 3) or 0.0,
                "tp_sp_exposed_ms_per_layer": round(comm.tp_sp_exposed_ms_per_layer, 3) or 0.0,
                "cp_ms_per_layer": round(comm.cp_ms_per_layer, 3) or 0.0,
                "dp_raw_ms_per_step": round(comm.dp_raw_ms_per_step, 3) or 0.0,
                "dp_exposed_ms_per_step": round(comm.dp_exposed_ms_per_step, 3) or 0.0,
            },
            "recompute": {
                "selected": list(recompute.selected),
                "mib_saved_per_layer": round(recompute.mib_saved_per_layer, 3) or 0.0,
                "latency_ms_per_layer": round(recompute.latency_added_per_layer_ms, 3),
            },
            "offload": {
                "optimizer_offloaded": opt_off,
                "optimizer_exposed_ms": round(opt_exposed, 3) or 0.0,
                "activation_set": list(act_plan.selected),
                "activation_exposed_ms_per_microstep": round(act_exposed, 3) or 0.0,
            },
            "memory": {
                "params_gb": round(memory.params / 1e9, 3) or 0.0,
                "grads_gb": round(memory.grads / 1e9, 3) or 0.0,
                "optimizer_gb": round(memory.optimizer / 1e9, 3) or 0.0,
                "activations_gb": round(memory.activations_peak / 1e9, 3) or 0.0,
                "peak_gb": round(est.peak_mem_bytes / 1e9, 3) or 0.0,
            },
            "timing": {
                "t_compute_ms": round(est.t_compute_ms, 3) or 0.0,
                "t_recompute_ms": round(est.t_recompute_ms, 3) or 0.0,
                "t_exposed_comm_ms": round(est.t_exposed_comm_ms, 3) or 0.0,
                "t_exposed_offload_ms": round(est.t_exposed_offload_ms, 3) or 0.0,
                "step_time_ms": round(step_ms, 3) or 0.0,
            },
            "mfu": round(est.mfu, 3) or 0.0,
        }, step_ms
    return {**base, "feasible": False, "diagnostic": last_diag}, None


def _plan_shape(run: _Run, B: int, S: int) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Evaluate every candidate layout of one (batch, tokens) shape: its
    entries by rank, and its infeasible entries by (cp, tp, dp)."""
    config = run.config
    arch = config.model
    pinned = config.parallel.pinned
    if pinned is not None:
        pars = [pinned]
    else:
        pars = enumerate_parallel_configs(arch, config.cluster, B * S,
                                          config.parallel.zero_stage, config.parallel.grad_accum)
    shape = _Shape(B, S, flops_per_microstep(arch, B, S), {})
    ranked, infeasible = [], []
    for par in pars:
        entry, step_ms = _evaluate_candidate(run, shape, par)
        if step_ms is None:
            infeasible.append(entry)
        else:
            ranked.append(((round(step_ms, 6), par.cp, par.tp, par.dp), entry))
    ranked.sort(key=lambda item: item[0])
    infeasible.sort(key=lambda e: (e["parallel"]["cp"], e["parallel"]["tp"], e["parallel"]["dp"]))
    return [entry for _, entry in ranked], infeasible


def _infeasible_reason(stage_doc: dict[str, Any], entry: dict[str, Any]) -> str:
    """Why one candidate of a stage doc is infeasible, as its warning reads."""
    par = entry["parallel"]
    return (f"{stage_doc['stage']}/{stage_doc['bucket_kind']} tp={par['tp']} cp={par['cp']} "
            f"dp={par['dp']}: {entry['diagnostic']}")


def _copy(value: Any) -> Any:
    """A copy of nested dicts and lists that shares no mutable object with ``value``."""
    if type(value) is dict:
        return {key: _copy(item) for key, item in value.items()}
    if type(value) is list:
        return [_copy(item) for item in value]
    return value


def run_train_plan(
    config: PlanningConfig,
    chunks: ChunkTable | None = None,
    offload_mode: str = "auto",
) -> dict[str, Any]:
    """Enumerate, balance, simulate and rank plans for every stage bucket,
    snapped by :func:`snap_bucket` (a config without stages plans each of its
    buckets as a stage); return the report document, which :func:`render`
    serializes.

    Work is done at five levels, each once: per run (the param count, the
    PCIe bandwidth, the offload attempts), per layout (the model states and
    each attempt's memory side, :func:`_layout_attempts`), per distinct
    (batch, tokens) shape (the enumeration, the forward FLOPs and every
    candidate's entry; a later bucket of the same shape gets copies), per
    (shape, cp shard) (each chunk's byte numerator and rescaled recompute
    latency) and per candidate layout. Output is deterministic for
    identical input: a final sort fixes the order.
    """
    if offload_mode not in OFFLOAD_MODES:
        raise ConfigError(f"offload mode must be one of {OFFLOAD_MODES}", "offload")
    chunks = chunks or BUILTIN_CHUNKS
    arch = config.model
    require_valid(config)
    run = _Run(config, chunks, resolved_param_count(arch), effective_pcie_bw(config.cluster),
               _ATTEMPTS[offload_mode], {})

    warnings: list[str] = []
    if len(config.buckets) >= 2:
        balance = check_token_balance(config.buckets, arch)
        for left, right, dev in balance.flagged:
            warnings.append(
                f"bucket imbalance: {left} vs {right} differ by {dev * 100:.1f}% "
                f"(tolerance {balance.tolerance * 100:.1f}%)"
            )

    stages = config.stages or [StageScenario(name=f"bucket-{b.label()}", video_bucket=b)
                               for b in config.buckets]
    if not stages:
        raise ConfigError("config has neither stages nor buckets", "stages")

    stage_docs = []
    shapes: dict[tuple[int, int], tuple[list[dict[str, Any]], list[dict[str, Any]]]] = {}
    for stage in stages:
        for kind, bucket in stage.buckets():
            bucket = snap_bucket(bucket, arch)
            key = (bucket.batch, token_count(bucket, arch).tokens)
            planned = shapes.get(key)
            if planned is None:
                plans, infeasible = shapes[key] = _plan_shape(run, *key)
            else:
                plans, infeasible = map(_copy, planned)
            stage_doc = {"stage": stage.name, "bucket_kind": kind, "bucket": list(bucket),
                         "plans": plans, "infeasible": infeasible}
            stage_docs.append(stage_doc)
            warnings.extend(_infeasible_reason(stage_doc, entry) for entry in infeasible)

    return {
        "input": _echo_input(config, chunks, run.P),
        "buckets": [list(b) for b in config.buckets],
        "stages": stage_docs,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


_CSV_COLUMNS = [
    "stage",
    "bucket_kind",
    "bucket",
    "tokens_per_batch",
    "tp",
    "cp",
    "dp",
    "zero_stage",
    "grad_accum",
    "feasible",
    "step_time_ms",
    "mfu",
    "peak_gb",
    "t_compute_ms",
    "t_recompute_ms",
    "t_exposed_comm_ms",
    "t_exposed_offload_ms",
    "recompute_set",
    "offload_set",
    "optimizer_offloaded",
    "diagnostic",
]


def _csv_rows(document: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for stage in document["stages"]:
        for entry in list(stage["plans"]) + list(stage["infeasible"]):
            par = entry["parallel"]
            row = {
                "stage": stage["stage"],
                "bucket_kind": stage["bucket_kind"],
                "bucket": "x".join(str(v) for v in stage["bucket"]),
                "tokens_per_batch": entry["tokens_per_batch"],
                "tp": par["tp"],
                "cp": par["cp"],
                "dp": par["dp"],
                "zero_stage": par["zero_stage"],
                "grad_accum": par["grad_accum"],
                "feasible": entry["feasible"],
            }
            if entry["feasible"]:
                row.update(
                    {
                        "step_time_ms": f"{entry['timing']['step_time_ms']:.3f}",
                        "mfu": f"{entry['mfu']:.3f}",
                        "peak_gb": f"{entry['memory']['peak_gb']:.3f}",
                        "t_compute_ms": f"{entry['timing']['t_compute_ms']:.3f}",
                        "t_recompute_ms": f"{entry['timing']['t_recompute_ms']:.3f}",
                        "t_exposed_comm_ms": f"{entry['timing']['t_exposed_comm_ms']:.3f}",
                        "t_exposed_offload_ms": f"{entry['timing']['t_exposed_offload_ms']:.3f}",
                        "recompute_set": "+".join(entry["recompute"]["selected"]),
                        "offload_set": "+".join(entry["offload"]["activation_set"]),
                        "optimizer_offloaded": entry["offload"]["optimizer_offloaded"],
                        "diagnostic": "",
                    }
                )
            else:
                row.update(dict.fromkeys(_CSV_COLUMNS[len(row) : -1], ""))
                row["diagnostic"] = entry["diagnostic"]
            rows.append(row)
    return rows


def render(document: dict[str, Any], format: str = "json") -> str:
    """Serialize a report document; identical documents yield identical bytes."""
    if format == "json":
        return dump(document) + "\n"
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in _csv_rows(document):
            writer.writerow(row)
        return buffer.getvalue()
    if format == "table":
        lines = []
        header = (
            f"{'stage':<24} {'bucket':<16} {'tp':>3} {'cp':>3} {'dp':>3} "
            f"{'step_ms':>12} {'mfu':>6} {'peak_gb':>8}  plan"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in _csv_rows(document):
            if row["feasible"]:
                plan = row["recompute_set"] or "-"
                if row["offload_set"]:
                    plan += f" | offload {row['offload_set']}"
                if row["optimizer_offloaded"] is True:
                    plan += " | opt->host"
                lines.append(
                    f"{row['stage']:<24} {row['bucket']:<16} {row['tp']:>3} {row['cp']:>3} "
                    f"{row['dp']:>3} {row['step_time_ms']:>12} {row['mfu']:>6} "
                    f"{row['peak_gb']:>8}  {plan}"
                )
            else:
                lines.append(
                    f"{row['stage']:<24} {row['bucket']:<16} {row['tp']:>3} {row['cp']:>3} "
                    f"{row['dp']:>3} {'infeasible':>12} {'':>6} {'':>8}  {row['diagnostic']}"
                )
        for warning in document["warnings"]:
            lines.append(f"warning: {warning}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {format!r}", "format")


def require_feasible(document: dict[str, Any]) -> None:
    """Raise :class:`InfeasibleError`, naming five infeasible candidates, when no plan fits."""
    if not any(stage["plans"] for stage in document["stages"]):
        reasons = [_infeasible_reason(stage, entry)
                   for stage in document["stages"] for entry in stage["infeasible"]]
        raise InfeasibleError("no feasible plan; diagnostics: " + "; ".join(reasons[:5]))
