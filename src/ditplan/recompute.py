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
from .memory import MIB, ChunkSpec, ChunkTable, chunk_bytes_numerator, chunk_retained_bytes


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


# A pool entry: (bytes the chunk retains per layer, its table latency in ms, its name).
PoolEntry = tuple[int, float, str]


def _key(selection: Sequence[PoolEntry]) -> tuple[float, int, tuple[str, ...], int]:
    """A selection's (summed latency, chunk count, sorted names, bytes): among
    covers, the least latency wins, then the fewest chunks, then the names."""
    return (sum(lat for _, lat, _ in selection), len(selection),
            tuple(sorted(name for _, _, name in selection)), sum(size for size, _, _ in selection))


def _plan(key: tuple[float, int, tuple[str, ...], int], feasible: bool) -> RecomputePlan:
    latency, _, names, saved = key
    return RecomputePlan(names, saved, round(latency, 9), feasible)


_NOTHING = _plan(_key(()), feasible=True)  # its latency is the int 0


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
        return _plan(_key(pool), feasible=False)

    # Descending memory-latency ratio, then latency, then name.
    ranked = sorted([(-(size / MIB) / lat, lat, name, size) for size, lat, name in pool])
    prefix: list[PoolEntry] = []
    cum = 0
    for _, lat, name, size in ranked:
        prefix.append((size, lat, name))
        cum += size
        if cum >= required:
            break

    best = _key(_prune(prefix, required))
    # Swap the crossing chunk for the cheapest single chunk covering the
    # deficit left by the rest of the prefix; the crossing chunk itself
    # would rebuild the prefix.
    head = prefix[:-1]
    deficit = required - (cum - prefix[-1][0])
    head_names = {name for _, _, name in head}
    lat, name, size = min((lat, name, size) for size, lat, name in pool
                          if name not in head_names and size >= deficit)
    if name != prefix[-1][2]:
        best = min(best, _key(_prune(head + [(size, lat, name)], required)))
    # Best single-chunk cover, if any chunk alone suffices.
    singles = [(lat, name, size) for size, lat, name in pool if size >= required]
    if singles:
        lat, name, size = min(singles)
        best = min(best, _key([(size, lat, name)]))
    return _plan(best, feasible=True)


def plan_recompute(
    chunks: ChunkTable,
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
    if tp < 1:
        raise ConfigError("tp must be >= 1", "parallel.tp")
    excluded = set(exclude)
    return cover(
        [(round(chunk_bytes_numerator(c, B, S, H, A) / tp), c.fwd_latency_ms, c.name)
         for c in chunks.chunks if c.recomputable and c.name not in excluded],
        required_savings_per_layer,
    )
