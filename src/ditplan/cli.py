"""Command-line entry point.

Subcommands: ``plan train``, ``plan infer``, ``plan recompute``,
``plan windows``, ``plan vae-tiles``, ``buckets check``, ``simulate``.
Every subcommand takes ``--out``; ``--config`` goes to the three that read
a planning config (``plan train``, ``buckets check``, ``simulate``) and
``--format`` to the two with more than one emitter (``plan train``,
``simulate``). Exit codes: 0 success, 2 config error, 3 infeasible, 4 I/O
error.

Each subcommand imports the modules it runs when it runs, so a cold
``plan windows`` never loads the training planner.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .emit import dump
from .errors import ConfigError, InfeasibleError, PlanningError, finite_number

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _write_out(dump(payload) + "\n", out)


def _add_common(
    parser: argparse.ArgumentParser, config: bool = False, formats: bool = False
) -> None:
    if config:
        parser.add_argument("--config", required=True, help="planning config JSON")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    if formats:
        parser.add_argument("--format", default="json", choices=("json", "table", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ditplan",
        description="Planning and what-if simulation for long-context video DiT training and inference.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="produce a plan")
    plan_subs = plan.add_subparsers(dest="plan_command", required=True)

    train = plan_subs.add_parser("train", help="enumerate, balance and rank training plans")
    _add_common(train, config=True, formats=True)
    train.add_argument("--offload", default="auto", choices=("auto", "off", "optimizer-only"))
    train.add_argument("--chunk-table", default=None, help="chunk table JSON (default: built-in)")
    train.set_defaults(run=_cmd_plan_train)

    infer = plan_subs.add_parser("infer", help="diffusion cache schedule")
    _add_common(infer)
    infer.add_argument("--steps", type=int, required=True)
    infer.add_argument("--warmup", type=int, default=10)
    infer.add_argument("--interval", type=int, default=3)
    infer.add_argument("--mode", default="dit", choices=("dit", "attn"))
    infer.add_argument("--cached-cost-fraction", type=float, default=0.25)
    infer.set_defaults(run=_cmd_plan_infer)

    rec = plan_subs.add_parser("recompute", help="select chunks to recompute")
    _add_common(rec)
    rec.add_argument("--required-mb", type=float, required=True, help="savings target, MiB/layer")
    rec.add_argument("--chunk-table", default=None, help="chunk table JSON (default: built-in)")
    rec.set_defaults(run=_cmd_plan_recompute)

    windows = plan_subs.add_parser("windows", help="temporal sliding-window plan")
    _add_common(windows)
    windows.add_argument("--n-prime", type=int, required=True, help="latent length")
    windows.add_argument("--n", type=int, required=True, help="window length")
    windows.add_argument("--stride", type=int, required=True)
    windows.set_defaults(run=_cmd_plan_windows)

    tiles = plan_subs.add_parser("vae-tiles", help="VAE decode tiling plan")
    _add_common(tiles)
    tiles.add_argument("--latent", required=True, help="T,H,W latent dims")
    tiles.add_argument("--tile", required=True, help="T,H,W tile size")
    tiles.add_argument("--overlap", default="0,0,0", help="T,H,W overlap")
    tiles.add_argument("--devices", type=int, default=1)
    tiles.set_defaults(run=_cmd_plan_vae_tiles)

    buckets = subs.add_parser("buckets", help="bucket utilities")
    bucket_subs = buckets.add_subparsers(dest="bucket_command", required=True)
    check = bucket_subs.add_parser("check", help="token-balance check across buckets")
    _add_common(check, config=True)
    check.add_argument("--tolerance", type=float, default=0.01)
    check.set_defaults(run=_cmd_buckets_check)

    sim = subs.add_parser("simulate", help="per-stage step estimates")
    _add_common(sim, config=True, formats=True)
    sim.add_argument("--stage", default=None, help="only this stage name")
    sim.add_argument("--chunk-table", default=None)
    sim.set_defaults(run=_cmd_simulate)

    return parser


def _parse_triple(text: str, flag: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("expected T,H,W", flag)
    try:
        t, h, w = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError("expected three integers", flag) from exc
    return (t, h, w)


def _chunks_from(args: argparse.Namespace):
    from .memory import BUILTIN_CHUNKS, load_chunk_table

    return load_chunk_table(args.chunk_table) if args.chunk_table else BUILTIN_CHUNKS


def _cmd_plan_train(args: argparse.Namespace) -> int:
    from .config import load_config
    from .report import render, require_feasible, run_train_plan

    config = load_config(args.config)
    report = run_train_plan(config, chunks=_chunks_from(args), offload_mode=args.offload)
    _write_out(render(report, args.format), args.out)
    require_feasible(report)
    return EXIT_OK


def _cmd_plan_infer(args: argparse.Namespace) -> int:
    from .inference import plan_cache

    mode = "dit-layer-cache" if args.mode == "dit" else "attention-cache"
    schedule = plan_cache(
        args.steps, args.warmup, args.interval, args.cached_cost_fraction, mode
    )
    payload = {
        "total_steps": schedule.total_steps,
        "warmup": schedule.warmup,
        "interval": schedule.interval,
        "mode": schedule.mode,
        "cached_cost_fraction": schedule.cached_cost_fraction,
        "full_steps": schedule.full_steps,
        "cached_steps": schedule.cached_steps,
        "speedup": round(schedule.speedup, 3),
        "per_step_full": [int(f) for f in schedule.per_step_full],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_plan_recompute(args: argparse.Namespace) -> int:
    from .memory import MIB, chunk_retained_bytes
    from .recompute import memory_latency_ratio, plan_recompute

    chunks = _chunks_from(args)
    ref = (chunks.ref_batch, chunks.ref_seqlen, chunks.ref_hidden, chunks.ref_heads, chunks.ref_tp)
    required = int(finite_number(args.required_mb, "--required-mb") * MIB)
    plan = plan_recompute(chunks, required, *ref)
    lines = [
        f"{'chunk':<28} {'retained_mib':>12} {'latency_ms':>10} {'ratio':>8} {'selected':>9}"
    ]
    for chunk in sorted(chunks.chunks, key=lambda c: -memory_latency_ratio(c, *ref)):
        retained = chunk_retained_bytes(chunk, *ref)
        ratio = memory_latency_ratio(chunk, *ref)
        mark = "yes" if chunk.name in plan.selected else ""
        lines.append(
            f"{chunk.name:<28} {retained / MIB:>12.1f} {chunk.fwd_latency_ms:>10.2f} "
            f"{ratio:>8.1f} {mark:>9}"
        )
    lines.append(
        f"required {args.required_mb:.0f} MiB/layer -> saved {plan.mib_saved_per_layer:.1f} MiB, "
        f"+{plan.latency_added_per_layer_ms:.2f} ms/layer, feasible={plan.feasible}"
    )
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if plan.feasible else EXIT_INFEASIBLE


def _cmd_plan_windows(args: argparse.Namespace) -> int:
    from .inference import plan_temporal_windows

    plan = plan_temporal_windows(args.n_prime, args.n, args.stride)
    payload = {
        "n_prime": plan.n_prime,
        "window": plan.window,
        "stride": plan.stride,
        "num_clips": plan.num_clips,
        "clips": [list(c) for c in plan.clips],
        "multiplicity": list(plan.coverage),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_plan_vae_tiles(args: argparse.Namespace) -> int:
    from .inference import plan_vae_tiles

    plan = plan_vae_tiles(
        _parse_triple(args.latent, "--latent"),
        _parse_triple(args.tile, "--tile"),
        _parse_triple(args.overlap, "--overlap"),
        args.devices,
    )
    payload = {
        "latent": list(plan.latent),
        "overlap": list(plan.overlap),
        "devices": plan.devices,
        "num_tiles": len(plan.tiles),
        "parallel_speedup": round(plan.parallel_speedup, 3),
        "tiles": [
            {"start": list(t.start), "size": list(t.size), "device": t.device}
            for t in plan.tiles
        ],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_buckets_check(args: argparse.Namespace) -> int:
    from .buckets import check_token_balance
    from .config import load_config, require_valid

    config = load_config(args.config)
    require_valid(config)
    if not config.buckets:
        raise ConfigError("config has no buckets", "buckets")
    tolerance = finite_number(args.tolerance, "--tolerance")
    if tolerance < 0:
        raise ConfigError(f"must be >= 0, got {tolerance}", "--tolerance")
    report = check_token_balance(config.buckets, tolerance, arch=config.model)
    payload = {
        "tolerance": tolerance,
        "balanced": report.balanced,
        "max_deviation": round(report.max_deviation, 6),
        "buckets": [
            {
                "bucket": list(e.bucket.key()),
                "snapped": list(e.snapped.key()),
                "tokens_per_sample": e.tokens,
                "tokens_per_batch": e.tokens_batch,
            }
            for e in report.entries
        ],
        "flagged": [
            {"left": left, "right": right, "deviation": round(dev, 6)}
            for left, right, dev in report.flagged
        ],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    import csv
    import dataclasses
    import io

    from .config import load_config
    from .report import run_train_plan

    config = load_config(args.config)
    stages = list(config.stages)
    if args.stage is not None:
        stages = [s for s in stages if s.name == args.stage]
        if not stages:
            raise ConfigError(f"no stage named {args.stage!r}", "stages")
    if not stages:
        raise ConfigError("config has no stages", "stages")
    parallel = config.parallel
    if parallel.pinned is None:
        tp = min(config.cluster.devices_per_node, 8)
        parallel = dataclasses.replace(
            parallel, tp=tp, cp=1, dp=max(1, config.cluster.total_devices // tp)
        )
    config = dataclasses.replace(config, parallel=parallel, stages=tuple(stages))
    report = run_train_plan(config, chunks=_chunks_from(args), offload_mode="auto")
    rows = []
    for doc in report.document["stages"]:
        if not doc["plans"]:
            bucket = "x".join(str(v) for v in doc["bucket"])
            diagnostic = doc["infeasible"][0]["diagnostic"]
            raise InfeasibleError(f"{doc['stage']}/{doc['bucket_kind']} {bucket}: {diagnostic}")
        entry = doc["plans"][0]
        rows.append(
            {
                "stage": doc["stage"],
                "bucket_kind": doc["bucket_kind"],
                "bucket": doc["bucket"],
                **entry,
                "step_time_ms": entry["timing"]["step_time_ms"],
                "peak_gb": entry["memory"]["peak_gb"],
            }
        )
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        floats = ("step_time_ms", "mfu", "peak_gb")
        writer.writerow(["stage", "bucket_kind", "bucket", "tokens_per_batch", *floats])
        for r in rows:
            bucket = "x".join(str(v) for v in r["bucket"])
            writer.writerow(
                [r["stage"], r["bucket_kind"], bucket, r["tokens_per_batch"]]
                + [f"{r[name]:.3f}" for name in floats]
            )
        _write_out(buffer.getvalue(), args.out)
    elif args.format == "table":
        lines = [
            f"{'stage':<24} {'kind':<6} {'bucket':<16} {'tokens':>9} {'step_ms':>12} {'mfu':>6} {'peak_gb':>8}"
        ]
        for r in rows:
            lines.append(
                f"{r['stage']:<24} {r['bucket_kind']:<6} "
                f"{'x'.join(str(v) for v in r['bucket']):<16} {r['tokens_per_batch']:>9} "
                f"{r['step_time_ms']:>12.3f} {r['mfu']:>6.3f} {r['peak_gb']:>8.3f}"
            )
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        par = {"tp": parallel.tp, "cp": parallel.cp, "dp": parallel.dp}
        _emit_json({"parallel": par, "stages": rows}, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
