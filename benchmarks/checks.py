"""Output checks for every benchmark op, and the exhaustive recompute oracle.

Every check works on the bytes an op emitted (or on the plain values
``plan_recompute`` returned) and on the generated input, never on
ditplan's own objects, so a wrong answer cannot vouch for itself. A
failed check raises :class:`CheckFailed`; the worker counts it in
``failed``.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, Iterable, Mapping

MIB = 1024 * 1024
CP_TOKEN_GATE = 200_000
# Reports round floats to three decimals; half a unit of the last digit.
HALF_ULP3 = 0.0005


class CheckFailed(Exception):
    """An op's answer broke one of the benchmark's output checks."""


def _reject_constant(token: str) -> None:
    raise CheckFailed(f"non-finite number {token} in JSON output")


def parse_json(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _guarded(check):
    """Turn a malformed answer (missing key, wrong type) into CheckFailed."""

    @functools.wraps(check)
    def run(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise CheckFailed(f"malformed answer: {type(exc).__name__}: {exc}") from exc

    return run


def _check_timing(timing: Mapping[str, float], where: str) -> None:
    terms = ("t_compute_ms", "t_recompute_ms", "t_exposed_comm_ms", "t_exposed_offload_ms")
    total = sum(timing[t] for t in terms)
    # Each of the five figures is rounded on its own.
    _expect(
        abs(timing["step_time_ms"] - total) <= 5 * HALF_ULP3 + 1e-9,
        f"{where}: step_time_ms {timing['step_time_ms']} != sum of terms {total:.4f}",
    )


def _check_mfu(mfu: float, where: str) -> None:
    _expect(0.0 < mfu <= 1.0, f"{where}: mfu {mfu} outside (0, 1]")


def _check_peak(peak_gb: float, device_mem: float, where: str) -> None:
    _expect(
        peak_gb <= device_mem / 1e9 + HALF_ULP3 + 1e-9,
        f"{where}: peak {peak_gb} GB over device memory {device_mem / 1e9} GB",
    )


@_guarded
def check_plan_train(
    text: str,
    total_devices: int,
    device_mem: float,
    offload_mode: str,
    exit_code: int | None = None,
) -> dict[str, int]:
    """Check a rendered ``plan train`` JSON report; return its counts.

    ``plans`` counts feasible plans and ``first_attempt`` those found by
    the offload mode's first attempt.

    ``exit_code`` is the CLI's exit code when the report came from the CLI:
    0 needs a feasible plan, 3 (infeasible) needs none, anything else fails.
    """
    doc = parse_json(text)
    stats = {"candidates": 0, "plans": 0, "infeasible": 0, "first_attempt": 0}
    for stage in doc["stages"]:
        name = f"{stage['stage']}/{stage['bucket_kind']}"
        previous = -math.inf
        for plan in stage["plans"]:
            where = f"{name} tp={plan['parallel']['tp']} cp={plan['parallel']['cp']}"
            _expect(plan["feasible"] is True, f"{where}: plan listed as feasible is not")
            par = plan["parallel"]
            _expect(
                par["tp"] * par["cp"] * par["dp"] <= total_devices,
                f"{where}: tp*cp*dp exceeds {total_devices} devices",
            )
            _expect(
                par["cp"] == 1 or plan["tokens_per_batch"] > CP_TOKEN_GATE,
                f"{where}: cp>1 at {plan['tokens_per_batch']} tokens, below the CP gate",
            )
            _check_peak(plan["memory"]["peak_gb"], device_mem, where)
            _check_timing(plan["timing"], where)
            _check_mfu(plan["mfu"], where)
            overlap = set(plan["recompute"]["selected"]) & set(plan["offload"]["activation_set"])
            _expect(not overlap, f"{where}: chunks both recomputed and offloaded: {overlap}")
            step = plan["timing"]["step_time_ms"]
            _expect(step >= previous, f"{name}: plans not sorted by step time")
            previous = step
            # In auto mode the first attempt keeps optimizer states on device.
            if offload_mode != "auto" or not plan["offload"]["optimizer_offloaded"]:
                stats["first_attempt"] += 1
        for entry in stage["infeasible"]:
            _expect(entry["feasible"] is False, f"{name}: infeasible entry marked feasible")
            _expect(bool(entry["diagnostic"]), f"{name}: infeasible entry without diagnostic")
        stats["plans"] += len(stage["plans"])
        stats["infeasible"] += len(stage["infeasible"])
    stats["candidates"] = stats["plans"] + stats["infeasible"]
    if exit_code is not None:
        expected = 0 if stats["plans"] else 3
        _expect(exit_code == expected, f"exit code {exit_code}, expected {expected}")
    return stats


@_guarded
def check_simulate(text: str, device_mem: float, exit_code: int) -> dict[str, int]:
    """Check ``simulate`` JSON output; every stage bucket is one evaluated candidate."""
    _expect(exit_code == 0, f"simulate exit code {exit_code}")
    doc = parse_json(text)
    rows = doc["stages"]
    _expect(len(rows) > 0, "simulate returned no stages")
    for row in rows:
        where = f"simulate {row['stage']}/{row['bucket_kind']}"
        _check_timing(row["timing"], where)
        _check_mfu(row["mfu"], where)
        _check_peak(row["peak_gb"], device_mem, where)
        _expect(row["tokens_per_batch"] > 0, f"{where}: no tokens")
    return {"candidates": len(rows), "plans": 0, "infeasible": 0, "first_attempt": 0}


# ---------------------------------------------------------------------------
# Recompute selection
# ---------------------------------------------------------------------------


def chunk_bytes(chunk: Mapping[str, Any], B: int, S: int, H: int, A: int, tp: int) -> int:
    """Retained activation bytes of one chunk per layer per rank (byte formulas)."""
    raw = (chunk["coeff_bsh"] * B * S * H + chunk.get("coeff_bas", 0.0) * B * A * S) / tp
    return round(raw)


def recompute_pool(
    chunks: Iterable[Mapping[str, Any]],
    shape: tuple[int, int, int, int, int],
    exclude: Iterable[str] = (),
) -> dict[str, tuple[int, float]]:
    """Name -> (bytes, latency) of the chunks a recompute plan may select."""
    excluded = set(exclude)
    return {
        c["name"]: (chunk_bytes(c, *shape), c["fwd_latency_ms"])
        for c in chunks
        if c.get("recomputable", True) and c["name"] not in excluded
    }


@_guarded
def check_recompute(
    pool: Mapping[str, tuple[int, float]],
    required: int,
    selected: Iterable[str],
    bytes_saved: int,
    latency_ms: float,
    feasible: bool,
    latency_tolerance: float = 1e-6,
) -> None:
    """Selected chunks come from the pool, cover the target, and add up."""
    selected = list(selected)
    outside = [n for n in selected if n not in pool]
    _expect(not outside, f"selected chunks outside the pool (excluded or not recomputable): {outside}")
    _expect(len(set(selected)) == len(selected), "a chunk is selected twice")
    total = sum(b for b, _ in pool.values())
    _expect(
        feasible == (total >= required),
        f"feasible={feasible} but pool total {total} vs target {required}",
    )
    saved = sum(pool[n][0] for n in selected)
    if feasible:
        _expect(saved >= required, f"selection saves {saved} bytes, short of the target {required}")
    _expect(bytes_saved == saved, f"reported savings {bytes_saved} != sum of selected chunks {saved}")
    latency = sum(pool[n][1] for n in selected)
    _expect(
        abs(latency_ms - latency) <= latency_tolerance,
        f"reported latency {latency_ms} != sum of selected latencies {latency}",
    )


@_guarded
def check_recompute_cli(
    text: str, exit_code: int, chunks: list[Mapping[str, Any]], shape, required_mb: str
) -> list[str]:
    """Check ``plan recompute`` text output against the chunk table it was given."""
    lines = text.rstrip("\n").split("\n")
    _expect(len(lines) == len(chunks) + 2, f"expected {len(chunks) + 2} lines, got {len(lines)}")
    selected = [line.split()[0] for line in lines[1:-1] if line.split()[-1] == "yes"]
    summary = lines[-1]
    _expect(summary.startswith("required "), f"no summary line: {summary!r}")
    feasible_text = summary.rsplit("feasible=", 1)[1]
    _expect(feasible_text in ("True", "False"), f"bad feasible flag {feasible_text!r}")
    feasible = feasible_text == "True"
    _expect(exit_code == (0 if feasible else 3), f"exit code {exit_code} with feasible={feasible}")
    saved_mib = float(summary.split("saved ", 1)[1].split(" MiB", 1)[0])
    latency = float(summary.split("+", 1)[1].split(" ms/layer", 1)[0])
    pool = recompute_pool(chunks, shape)
    required = int(float(required_mb) * MIB)
    saved = sum(pool[n][0] for n in selected if n in pool)
    check_recompute(pool, required, selected, saved, latency, feasible, latency_tolerance=0.005 + 1e-9)
    _expect(
        abs(saved_mib - saved / MIB) <= 0.05 + 1e-9,
        f"printed savings {saved_mib} MiB != {saved / MIB:.3f}",
    )
    return selected


def oracle_min_latency(
    pool: Mapping[str, tuple[int, float]], targets: Iterable[int]
) -> list[float | None]:
    """Exhaustive minimum recompute latency covering each target (None: infeasible).

    Enumerates all 2^n subsets with numpy; meant for pools of at most
    14 chunks.
    """
    import numpy as np

    sizes = [b for b, _ in pool.values()]
    latencies = [lat for _, lat in pool.values()]
    saved = np.zeros(1, dtype=np.int64)
    cost = np.zeros(1, dtype=np.float64)
    for size, lat in zip(sizes, latencies):
        saved = np.concatenate([saved, saved + size])
        cost = np.concatenate([cost, cost + lat])
    answers: list[float | None] = []
    for target in targets:
        covering = cost[saved >= target]
        answers.append(float(covering.min()) if covering.size else None)
    return answers


# ---------------------------------------------------------------------------
# Inference and bucket subcommands
# ---------------------------------------------------------------------------


@_guarded
def check_infer(text: str, exit_code: int, steps: int) -> None:
    _expect(exit_code == 0, f"plan infer exit code {exit_code}")
    doc = parse_json(text)
    _expect(doc["total_steps"] == steps, f"total_steps {doc['total_steps']} != {steps}")
    _expect(doc["full_steps"] + doc["cached_steps"] == steps, "full + cached steps != steps")
    flags = doc["per_step_full"]
    _expect(
        len(flags) == steps and sum(flags) == doc["full_steps"],
        "per-step flags disagree with full_steps",
    )
    _expect(doc["speedup"] >= 1.0 - HALF_ULP3, f"speedup {doc['speedup']} below 1")


@_guarded
def check_windows(text: str, exit_code: int, n_prime: int, n: int, stride: int) -> None:
    _expect(exit_code == 0, f"plan windows exit code {exit_code}")
    doc = parse_json(text)
    multiplicity = doc["multiplicity"]
    _expect(len(multiplicity) == n_prime, "multiplicity length != n'")
    _expect(min(multiplicity) >= 1, "an index is covered by no clip")
    expected = math.ceil((n_prime - n) / stride) + 1
    _expect(
        doc["num_clips"] == expected == len(doc["clips"]),
        f"clip count {doc['num_clips']} != {expected}",
    )
    for start, end in doc["clips"]:
        _expect(0 <= start and end <= n_prime and end - start == n, f"bad clip [{start}, {end})")


@_guarded
def check_vae_tiles(text: str, exit_code: int, latent: tuple[int, int, int], devices: int) -> None:
    _expect(exit_code == 0, f"plan vae-tiles exit code {exit_code}")
    doc = parse_json(text)
    tiles = doc["tiles"]
    _expect(doc["num_tiles"] == len(tiles) > 0, "tile count mismatch")
    starts: list[set[int]] = [set(), set(), set()]
    for tile in tiles:
        _expect(0 <= tile["device"] < devices, f"tile on device {tile['device']}")
        for axis in range(3):
            start, size = tile["start"][axis], tile["size"][axis]
            _expect(
                0 <= start and start + size <= latent[axis], f"tile leaves the latent on axis {axis}"
            )
            starts[axis].add(start)
    _expect(
        len(tiles) == len(starts[0]) * len(starts[1]) * len(starts[2]),
        "tiles are not a full grid",
    )
    size = tiles[0]["size"]
    for axis in range(3):
        reach = 0
        for start in sorted(starts[axis]):
            _expect(start <= reach, f"gap before {start} on axis {axis}")
            reach = max(reach, start + size[axis])
        _expect(reach == latent[axis], f"tiles stop at {reach} of {latent[axis]} on axis {axis}")


def tokens_per_sample(frames: int, height: int, width: int, patch: tuple[int, int, int]) -> int:
    """Post-patchify tokens of one sample under the default causal VAE (4x time, 8x space)."""
    t_lat, h_lat, w_lat = 1 + (frames - 1) // 4, height // 8, width // 8
    return math.ceil(t_lat / patch[0]) * math.ceil(h_lat / patch[1]) * math.ceil(w_lat / patch[2])


@_guarded
def check_buckets(text: str, exit_code: int, buckets: list[list[int]], tolerance: float, patch) -> None:
    _expect(exit_code == 0, f"buckets check exit code {exit_code}")
    doc = parse_json(text)
    entries = doc["buckets"]
    _expect([e["bucket"] for e in entries] == buckets, "bucket list does not echo the input")
    grain = (8 * patch[1], 8 * patch[2])
    for entry in entries:
        batch, frames, height, width = entry["snapped"]
        _expect(
            height % grain[0] == 0 and width % grain[1] == 0,
            f"snapped {entry['snapped']} off the grain",
        )
        tokens = tokens_per_sample(frames, height, width, patch)
        _expect(
            entry["tokens_per_sample"] == tokens,
            f"{entry['bucket']}: {entry['tokens_per_sample']} tokens, expected {tokens}",
        )
        _expect(entry["tokens_per_batch"] == batch * tokens, f"{entry['bucket']}: tokens per batch")
    _expect(doc["balanced"] == (not doc["flagged"]), "balanced flag disagrees with flagged pairs")
    for pair in doc["flagged"]:
        _expect(
            tolerance < pair["deviation"] <= doc["max_deviation"] + 1e-6,
            f"flagged deviation {pair['deviation']}",
        )
