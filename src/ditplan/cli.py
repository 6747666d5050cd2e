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

The command line is one table, ``_LEAVES``: the command words of each
subcommand map to its handler and its flags, and each flag to a
converter, a default or "required", and optional choices. :func:`main`
walks ``argv`` once (no ``argparse``) and hands the handler a
``types.SimpleNamespace``. ``--flag value`` and ``--flag=value`` both
work; the token after a flag is always its value, even when it starts
with ``-``; a repeated flag keeps its last value; flags are never
abbreviated. ``-h``/``--help`` prints the commands or flags of its level
and exits 0. A usage error (unknown command or flag, missing required
flag, bad number, value outside the choices) prints ``usage:`` and
``error:`` lines on stderr and raises ``SystemExit(2)``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

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


def _parse_triple(text: str, flag: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("expected T,H,W", flag)
    try:
        t, h, w = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError("expected three integers", flag) from exc
    return (t, h, w)


def _chunks_from(args: SimpleNamespace):
    from .memory import BUILTIN_CHUNKS, load_chunk_table

    return load_chunk_table(args.chunk_table) if args.chunk_table else BUILTIN_CHUNKS


def _cmd_plan_train(args: SimpleNamespace) -> int:
    from .config import load_config
    from .report import render, require_feasible, run_train_plan

    config = load_config(args.config)
    report = run_train_plan(config, chunks=_chunks_from(args), offload_mode=args.offload)
    _write_out(render(report, args.format), args.out)
    require_feasible(report)
    return EXIT_OK


def _cmd_plan_infer(args: SimpleNamespace) -> int:
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


def _cmd_plan_recompute(args: SimpleNamespace) -> int:
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


def _cmd_plan_windows(args: SimpleNamespace) -> int:
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


def _cmd_plan_vae_tiles(args: SimpleNamespace) -> int:
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


def _cmd_buckets_check(args: SimpleNamespace) -> int:
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


def _cmd_simulate(args: SimpleNamespace) -> int:
    import csv
    import io

    from .comm import tp_degrees
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
        tp = max(tp for tp in tp_degrees(config.model, config.cluster) if tp <= 8)
        parallel = parallel._replace(tp=tp, cp=1, dp=max(1, config.cluster.total_devices // tp))
    config = config._replace(parallel=parallel, stages=tuple(stages))
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


# The command line as data. _GROUPS maps the command words of the top level
# and of each group to its help; _LEAVES maps the command words of each
# subcommand to (help, handler, flags), and each flag to (converter, default
# or _REQUIRED, choices or None, help).
_REQUIRED = object()
_CONFIG = {"--config": (str, _REQUIRED, None, "planning config JSON")}
_OUT = {"--out": (str, None, None, "write output here instead of stdout")}
_FORMAT = {"--format": (str, "json", ("json", "table", "csv"), "output format")}
_CHUNKS = {"--chunk-table": (str, None, None, "chunk table JSON (default: built-in)")}
_GROUPS = {
    (): "Planning and what-if simulation for long-context video DiT training and inference.",
    ("plan",): "produce a plan",
    ("buckets",): "bucket utilities",
}
_LEAVES = {
    ("plan", "train"): ("enumerate, balance and rank training plans", _cmd_plan_train, {
        **_CONFIG, **_OUT, **_FORMAT, **_CHUNKS,
        "--offload": (str, "auto", ("auto", "off", "optimizer-only"), "offload mode"),
    }),
    ("plan", "infer"): ("diffusion cache schedule", _cmd_plan_infer, {
        **_OUT,
        "--steps": (int, _REQUIRED, None, "denoising steps"),
        "--warmup": (int, 10, None, "full steps before caching starts"),
        "--interval": (int, 3, None, "one full step every this many"),
        "--mode": (str, "dit", ("dit", "attn"), "what the cached steps reuse"),
        "--cached-cost-fraction": (float, 0.25, None, "cost of a cached step"),
    }),
    ("plan", "recompute"): ("select chunks to recompute", _cmd_plan_recompute, {
        **_OUT, "--required-mb": (float, _REQUIRED, None, "savings target, MiB/layer"), **_CHUNKS,
    }),
    ("plan", "windows"): ("temporal sliding-window plan", _cmd_plan_windows, {
        **_OUT,
        "--n-prime": (int, _REQUIRED, None, "latent length"),
        "--n": (int, _REQUIRED, None, "window length"),
        "--stride": (int, _REQUIRED, None, "window stride"),
    }),
    ("plan", "vae-tiles"): ("VAE decode tiling plan", _cmd_plan_vae_tiles, {
        **_OUT,
        "--latent": (str, _REQUIRED, None, "T,H,W latent dims"),
        "--tile": (str, _REQUIRED, None, "T,H,W tile size"),
        "--overlap": (str, "0,0,0", None, "T,H,W overlap"),
        "--devices": (int, 1, None, "devices to spread tiles over"),
    }),
    ("buckets", "check"): ("token-balance check across buckets", _cmd_buckets_check, {
        **_CONFIG, **_OUT, "--tolerance": (float, 0.01, None, "largest relative deviation"),
    }),
    ("simulate",): ("per-stage step estimates", _cmd_simulate, {
        **_CONFIG, **_OUT, **_FORMAT, "--stage": (str, None, None, "only this stage name"), **_CHUNKS,
    }),
}
_HELP = ("-h", "--help")


def _commands(words: tuple[str, ...]) -> dict[str, str]:
    """The command words one level below ``words``, with their help."""
    below = {**_GROUPS, **{key: leaf[0] for key, leaf in _LEAVES.items()}}
    return {key[-1]: text for key, text in below.items() if key and key[:-1] == words}


def _spec(flag: str, choices: tuple[str, ...] | None) -> str:
    return f"{flag} " + (f"{{{','.join(choices)}}}" if choices else flag[2:].upper().replace("-", "_"))


def _usage(words: tuple[str, ...]) -> str:
    if words not in _LEAVES:
        return " ".join(("usage: ditplan", *words, f"[-h] {{{','.join(_commands(words))}}} ..."))
    specs = [_spec(flag, choices) if default is _REQUIRED else f"[{_spec(flag, choices)}]"
             for flag, (_, default, choices, _) in _LEAVES[words][2].items()]
    return " ".join(("usage: ditplan", *words, "[-h]", *specs))


def _fail(words: tuple[str, ...], message: str):
    """Report a usage error as argparse does: usage and error lines on stderr, exit 2."""
    sys.stderr.write(f"{_usage(words)}\n{' '.join(('ditplan', *words))}: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _invalid_choice(name: str, value: str, choices) -> str:
    return f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _help(words: tuple[str, ...]):
    """Print the commands or flags one level below ``words`` and exit 0."""
    if words in _LEAVES:
        title, rows = "flags:", [("-h, --help", "show this help and exit")]
        for flag, (_, default, choices, text) in _LEAVES[words][2].items():
            note = " (required)" if default is _REQUIRED else "" if default is None else f" (default: {default})"
            rows.append((_spec(flag, choices), text + note))
    else:
        title, rows = "commands:", list(_commands(words).items())
    width = max(len(name) for name, _ in rows) + 2
    lines = [_usage(words), "", _GROUPS.get(words) or _LEAVES[words][0], "", title]
    sys.stdout.write("\n".join(lines + [f"  {name:<{width}}{text}" for name, text in rows]) + "\n")
    raise SystemExit(EXIT_OK)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Walk ``argv`` once: the command words down to a leaf, then the leaf's
    flags. Returns the flag values by name plus ``run``, the leaf's handler."""
    words: tuple[str, ...] = ()
    tokens = iter(argv)
    while words not in _LEAVES:
        token = next(tokens, None)
        if token in _HELP:
            _help(words)
        commands = _commands(words)
        if token not in commands:
            _fail(words, "the following arguments are required: command" if token is None
                  else _invalid_choice("command", token, commands))
        words += (token,)
    _, handler, flags = _LEAVES[words]
    given: dict[str, str] = {}
    unknown: list[str] = []
    for token in tokens:
        if token in _HELP:
            _help(words)
        flag, has_value, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
        elif has_value or (value := next(tokens, None)) is not None:
            given[flag] = value  # the token after a flag is its value; the last repeat wins
        else:
            _fail(words, f"argument {flag}: expected one argument")
    values = {"run": handler}
    for flag, (convert, default, choices, _) in flags.items():
        value = default
        if flag in given:
            try:
                value = convert(given[flag])
            except ValueError:
                _fail(words, f"argument {flag}: invalid {convert.__name__} value: {given[flag]!r}")
            if choices and value not in choices:
                _fail(words, _invalid_choice(flag, value, choices))
        values[flag[2:].replace("-", "_")] = value
    missing = [flag for flag, spec in flags.items() if spec[1] is _REQUIRED and flag not in given]
    if missing:
        _fail(words, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _fail(words, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def build_parser() -> SimpleNamespace:
    """The parser as an object, for callers that build it and then call
    ``build_parser().parse_args(argv)``."""
    return SimpleNamespace(parse_args=parse_args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
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
