"""Selective-recomputation planning under a per-layer memory budget.

Selection follows the memory-latency ratio (bytes of activation saved per
millisecond of recomputation). IO-bound operators dominate this ranking;
recomputing attention sits at the bottom. The planner is a refined greedy:
it takes the descending-ratio prefix, then prunes chunks the cover does
not need, considers swapping the crossing chunk for a cheaper one, and
checks the best single-chunk cover.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError
from .memory import MIB, ChunkSpec, ChunkTable, chunk_retained_bytes


class RecomputePlan(NamedTuple):
    selected: tuple[str, ...]
    bytes_saved_per_layer: int
    latency_added_per_layer_ms: float
    feasible: bool

    @property
    def mib_saved_per_layer(self) -> float:
        return self.bytes_saved_per_layer / MIB


def memory_latency_ratio(
    chunk: ChunkSpec, B: int, S: int, H: int, A: int, tp: int
) -> float:
    """MiB of retained activation freed per millisecond of recompute latency."""
    retained_mib = chunk_retained_bytes(chunk, B, S, H, A, tp) / MIB
    return retained_mib / chunk.fwd_latency_ms


def _resolve(chunks: ChunkTable | Sequence[ChunkSpec]) -> tuple[ChunkSpec, ...]:
    return chunks.chunks if isinstance(chunks, ChunkTable) else tuple(chunks)


# A pool entry: (bytes the chunk retains per layer, its table latency in ms, its name).
PoolEntry = tuple[int, float, str]


def _plan_from(selection: Sequence[PoolEntry], feasible: bool) -> RecomputePlan:
    return RecomputePlan(
        tuple(sorted(name for _, _, name in selection)),
        sum(size for size, _, _ in selection),
        round(sum(lat for _, lat, _ in selection), 9),
        feasible,
    )


_NOTHING = _plan_from((), feasible=True)  # its latency is the int 0


def _prune(selection: list[PoolEntry], required: int) -> list[PoolEntry]:
    # Drop entries the cover does not need, most expensive latency first.
    spare = sum(size for size, _, _ in selection) - required
    dropped = set()
    for _, name, size in sorted((-lat, name, size) for size, lat, name in selection):
        if size <= spare:
            dropped.add(name)
            spare -= size
    return [entry for entry in selection if entry[2] not in dropped]


def cover(pool: Sequence[PoolEntry], required: int) -> RecomputePlan:
    """Pick a minimal-latency subset of ``pool`` saving at least ``required`` bytes per layer.

    ``pool`` holds one ``(bytes, latency_ms, name)`` entry per candidate
    chunk, names unique. Infeasibility (even the whole pool saves too
    little) is encoded in the plan, not raised.
    """
    if required == 0:
        return _NOTHING
    if sum(size for size, _, _ in pool) < required:
        return _plan_from(pool, feasible=False)

    # Descending memory-latency ratio, then latency, then name.
    ranked = sorted([(-(size / MIB) / lat, lat, name, size) for size, lat, name in pool])
    prefix: list[PoolEntry] = []
    cum = 0
    for _, lat, name, size in ranked:
        prefix.append((size, lat, name))
        cum += size
        if cum >= required:
            break

    candidates = [_prune(prefix, required)]
    # Swap the crossing chunk for the cheapest single chunk covering the
    # deficit left by the rest of the prefix.
    head = prefix[:-1]
    deficit = required - (cum - prefix[-1][0])
    head_names = {name for _, _, name in head}
    swaps = [(lat, name, size) for size, lat, name in pool
             if name not in head_names and size >= deficit]
    if swaps:
        lat, name, size = min(swaps)
        candidates.append(_prune(head + [(size, lat, name)], required))
    # Best single-chunk cover, if any chunk alone suffices.
    singles = [(lat, name, size) for size, lat, name in pool if size >= required]
    if singles:
        lat, name, size = min(singles)
        candidates.append([(size, lat, name)])

    # Least summed latency, then fewest chunks, then names; the first on a full tie.
    latency, _, names, i = min(
        (sum(lat for _, lat, _ in sel), len(sel), tuple(sorted(name for _, _, name in sel)), i)
        for i, sel in enumerate(candidates)
    )
    return RecomputePlan(names, sum(size for size, _, _ in candidates[i]), round(latency, 9), True)


def plan_recompute(
    chunks: ChunkTable | Sequence[ChunkSpec],
    required_savings_per_layer: int,
    B: int = 1,
    S: int = 115_200,
    H: int = 3072,
    A: int = 24,
    tp: int = 8,
    exclude: Iterable[str] = (),
) -> RecomputePlan:
    """Size the recomputable chunks at ``(B, S, H, A, tp)`` and :func:`cover` the
    required bytes per layer with them.

    ``exclude`` removes chunks handled elsewhere (offloaded or flagged
    non-recomputable) before selection.
    """
    if required_savings_per_layer < 0:
        raise ConfigError("required savings must be >= 0", "recompute.required")
    excluded = set(exclude)
    pool = [c for c in _resolve(chunks) if c.recomputable and c.name not in excluded]
    return cover(
        [(chunk_retained_bytes(c, B, S, H, A, tp), c.fwd_latency_ms, c.name) for c in pool],
        required_savings_per_layer,
    )
