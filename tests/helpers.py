"""Shared test oracles and generators: random timelines, a from-scratch
peak, the exhaustive recompute search, the record-based recompute cover,
whole-latent VAE blend weights, and seeded planning configs and chunk
tables for whole-report digests."""

from __future__ import annotations

import json
import random
from itertools import combinations
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ditplan.errors import ConfigError
from ditplan.inference import TilePlan
from ditplan.memory import (
    MIB,
    ActivationTimeline,
    ChunkSpec,
    ChunkTable,
    TimelineEvent,
    chunk_retained_bytes,
)
from ditplan.presets import reference_config_path
from ditplan.recompute import RecomputePlan


def make_random_timeline(rng: np.random.Generator, max_pairs: int = 100) -> ActivationTimeline:
    """A well-formed alloc/free sequence with some lifecycle-tagged frees."""
    n_pairs = int(rng.integers(1, max_pairs + 1))
    events: list[TimelineEvent] = []
    live: list[tuple[str, int, int]] = []  # (name, bytes, alloc_time)
    time = 0
    allocated = 0
    while allocated < n_pairs or live:
        do_alloc = allocated < n_pairs and (not live or rng.random() < 0.55)
        if do_alloc:
            name = f"buf{allocated}"
            size = int(rng.integers(0, 1 << 20))
            events.append(TimelineEvent(time=time, kind="alloc", name=name, bytes=size))
            live.append((name, size, time))
            allocated += 1
        else:
            idx = int(rng.integers(0, len(live)))
            name, size, alloc_time = live.pop(idx)
            tag = None
            last_consumer = None
            if rng.random() < 0.4:
                tag = "shared-storage" if rng.random() < 0.5 else "merged-redundant"
                last_consumer = int(rng.integers(alloc_time, time + 1))
            events.append(
                TimelineEvent(
                    time=time,
                    kind="free",
                    name=name,
                    bytes=size,
                    tag=tag,
                    last_consumer_time=last_consumer,
                )
            )
        # occasional time ties exercise the stable ordering
        if rng.random() < 0.8:
            time += 1
    return ActivationTimeline.build(events)


def prefix_max_peak(timeline: ActivationTimeline) -> int:
    """Oracle: re-sum every prefix from scratch and take the maximum."""
    sizes = {}
    deltas = []
    for event in timeline.events:
        if event.kind == "alloc":
            sizes[event.name] = event.bytes
            deltas.append(event.bytes)
        else:
            deltas.append(-sizes[event.name])
    arr = np.asarray(deltas, dtype=np.int64)
    peak = 0
    for i in range(len(arr)):
        peak = max(peak, int(arr[: i + 1].sum()))
    return peak


def brute_force_recompute(
    chunks: ChunkTable | Sequence[ChunkSpec],
    required_savings_per_layer: int,
    B: int = 1,
    S: int = 115_200,
    H: int = 3072,
    A: int = 24,
    tp: int = 8,
    exclude: Iterable[str] = (),
) -> RecomputePlan:
    """Oracle: exhaustive subset search for the cheapest covering recompute set.

    Ties break on fewer chunks, then lexicographic names; the same plan
    shape as ``plan_recompute`` returns.
    """
    excluded = set(exclude)
    table = chunks.chunks if isinstance(chunks, ChunkTable) else tuple(chunks)
    pool = [c for c in table if c.recomputable and c.name not in excluded]
    if len(pool) > 20:
        raise ConfigError(f"brute force limited to 20 chunks, got {len(pool)}", "chunks")
    saved = {c.name: chunk_retained_bytes(c, B, S, H, A, tp) for c in pool}

    def plan(selection: Sequence[ChunkSpec], feasible: bool) -> RecomputePlan:
        names = tuple(sorted(c.name for c in selection))
        return RecomputePlan(
            selected=names,
            bytes_saved_per_layer=sum(saved[n] for n in names),
            latency_added_per_layer_ms=round(sum(c.fwd_latency_ms for c in selection), 9),
            feasible=feasible,
        )

    if sum(saved.values()) < required_savings_per_layer:
        return plan(pool, feasible=False)
    best: tuple[float, int, tuple[str, ...]] | None = None
    best_sel: Sequence[ChunkSpec] = ()
    for r in range(len(pool) + 1):
        for subset in combinations(pool, r):
            if sum(saved[c.name] for c in subset) < required_savings_per_layer:
                continue
            key = (
                sum(c.fwd_latency_ms for c in subset),
                len(subset),
                tuple(sorted(c.name for c in subset)),
            )
            if best is None or key < best:
                best, best_sel = key, subset
    return plan(best_sel, feasible=True)


def reference_cover(
    pool: Sequence[ChunkSpec], saved: dict[str, int], required: int
) -> RecomputePlan:
    """Oracle: the refined-greedy recompute cover as it read chunk records
    through a name -> bytes map, kept verbatim so that the tuple-based
    ``recompute.cover`` can be checked to return the very same plan."""

    def plan_from(selection, feasible):
        names = tuple(sorted(c.name for c in selection))
        return RecomputePlan(
            selected=names,
            bytes_saved_per_layer=sum(saved[n] for n in names),
            latency_added_per_layer_ms=round(sum(c.fwd_latency_ms for c in selection), 9),
            feasible=feasible,
        )

    def prune(selection):
        kept = list(selection)
        spare = sum(saved[c.name] for c in kept) - required
        for chunk in sorted(selection, key=lambda c: (-c.fwd_latency_ms, c.name)):
            if saved[chunk.name] <= spare:
                kept.remove(chunk)
                spare -= saved[chunk.name]
        return kept

    if required == 0:
        return plan_from([], feasible=True)
    if sum(saved[c.name] for c in pool) < required:
        return plan_from(pool, feasible=False)
    order = sorted(
        pool,
        key=lambda c: (-(saved[c.name] / MIB) / c.fwd_latency_ms, c.fwd_latency_ms, c.name),
    )
    prefix: list[ChunkSpec] = []
    cum = 0
    for chunk in order:
        prefix.append(chunk)
        cum += saved[chunk.name]
        if cum >= required:
            break
    candidates = [prune(prefix)]
    head = prefix[:-1]
    deficit = required - sum(saved[c.name] for c in head)
    head_names = {c.name for c in head}
    swaps = [c for c in pool if c.name not in head_names and saved[c.name] >= deficit]
    if swaps:
        cheapest = min(swaps, key=lambda c: (c.fwd_latency_ms, c.name))
        candidates.append(prune(head + [cheapest]))
    singles = [c for c in pool if saved[c.name] >= required]
    if singles:
        candidates.append([min(singles, key=lambda c: (c.fwd_latency_ms, c.name))])
    best = min(
        candidates,
        key=lambda sel: (
            sum(c.fwd_latency_ms for c in sel),
            len(sel),
            tuple(sorted(c.name for c in sel)),
        ),
    )
    return plan_from(best, feasible=True)


# Criterion 8's 100 (latent, tile, overlap) cases: five latents, five tile
# sizes and four overlap rules.
_VAE_LATENTS = [(1, 16, 16), (4, 40, 40), (8, 24, 64), (32, 90, 160), (16, 48, 48)]
_VAE_TILES = [(1, 8, 8), (4, 16, 16), (8, 48, 48), (40, 100, 100), (2, 12, 20)]
_VAE_OVERLAP_RULES = [
    lambda t: (0, 0, 0),
    lambda t: (0, t[1] // 4, t[2] // 4),
    lambda t: (t[0] // 2, t[1] // 2, t[2] // 2),
    lambda t: (0, t[1] // 3, min(7, t[2] // 2)),
]
VAE_GRID_CASES = [
    (latent, tile, rule(tile))
    for latent in _VAE_LATENTS
    for tile in _VAE_TILES
    for rule in _VAE_OVERLAP_RULES
]


def tile_slices(tile) -> tuple[slice, slice, slice]:
    return tuple(slice(tile.start[a], tile.start[a] + tile.size[a]) for a in range(3))


def numpy_axis_ramp(size: int, overlap: int) -> np.ndarray:
    ramp = np.ones(size, dtype=np.float64)
    edge = min(overlap, size)
    if edge > 0:
        rise = (np.arange(edge) + 1.0) / (edge + 1.0)
        ramp[:edge] = np.minimum(ramp[:edge], rise)
        ramp[size - edge :] = np.minimum(ramp[size - edge :], rise[::-1])
    return ramp


def numpy_blend_weights(plan: TilePlan) -> Iterator[np.ndarray]:
    """Oracle: each tile's 3-D blend weights over its own slice, in ``tiles``
    order, as the raw profile shared by every tile divided by the sum of
    all tiles' profiles over the whole latent (``profile / total``)."""
    t, h, w = (numpy_axis_ramp(plan.tiles[0].size[a], plan.overlap[a]) for a in range(3))
    profile = t[:, None, None] * h[None, :, None] * w[None, None, :]
    total = np.zeros(plan.latent, dtype=np.float64)
    for tile in plan.tiles:
        total[tile_slices(tile)] += profile
    for tile in plan.tiles:
        yield profile / total[tile_slices(tile)]


def _reference_doc() -> dict[str, Any]:
    return json.loads(reference_config_path().read_text())


def sweep_config(seed: int) -> dict[str, Any]:
    """A seeded variant of the reference config: cluster size, device
    memory, bandwidths, ``grad_accum``, a 1-3 stage subset and, one time
    in four, a stage above the context-parallel token gate."""
    rng = random.Random(f"sweep:{seed}")
    doc = _reference_doc()
    cluster = doc["cluster"]
    cluster["num_nodes"] = rng.randint(1, 8)
    cluster["device_mem"] = rng.randint(40, 96) * 1e9
    cluster["intra_node_bw"] = rng.choice((100e9, 200e9, 300e9, 450e9))
    cluster["inter_node_bw"] = rng.choice((12.5e9, 25e9, 50e9, 100e9))
    cluster["pcie_bw_per_device"] = rng.choice((16e9, 25e9, 32e9, 64e9))
    doc["parallel"]["grad_accum"] = rng.choice((1, 1, 2, 4, 8))
    stages = doc["stages"]
    picked = sorted(rng.sample(range(len(stages)), rng.randint(1, 3)))
    doc["stages"] = [stages[i] for i in picked]
    if rng.random() < 0.25:
        doc["stages"].append({"name": "long-125x1088x1920", "video_bucket": [1, 125, 1088, 1920]})
    return doc


def random_chunk_table(seed: int) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """A seeded 9-20 chunk table plus a pinned tp=8 one-stage config
    (one of the long joint or SFT stages) to plan it on."""
    rng = random.Random(f"chunks:{seed}")
    chunks = []
    for k in range(rng.randint(9, 20)):
        attention = rng.random() < 0.2
        chunks.append(
            {
                "name": f"{'attn' if attention else 'op'}{k:02d}",
                "coeff_bsh": rng.choice((1, 2, 2.5, 4, 6, 8, 12)),
                "coeff_bas": float(rng.choice((16, 32, 64, 96))) if attention else 0.0,
                "fwd_latency_ms": round(
                    rng.uniform(20.0, 150.0) if attention else rng.uniform(0.2, 15.0), 3
                ),
                "recomputable": k == 0 or rng.random() >= 0.15,
                "offloadable": rng.random() >= 0.25,
            }
        )
    doc = _reference_doc()
    doc["cluster"]["num_nodes"] = rng.randint(1, 4)
    doc["cluster"]["device_mem"] = rng.randint(24, 64) * 1e9
    doc["stages"] = [rng.choice(doc["stages"][4:])]
    doc["parallel"].update(tp=8, cp=1, dp=doc["cluster"]["num_nodes"])
    return chunks, doc
