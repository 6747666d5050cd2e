"""Selective-recomputation planning under a per-layer memory budget.

Selection follows the memory-latency ratio (bytes of activation saved per
millisecond of recomputation). IO-bound operators dominate this ranking;
recomputing attention sits at the bottom. The planner is a refined greedy:
it takes the descending-ratio prefix, then prunes chunks the cover does
not need, considers swapping the crossing chunk for a cheaper one, and
checks the best single-chunk cover.

A pool is ranked once: by descending ratio with running byte sums (the
pool's fractional-knapsack bound), and by (latency, name). Each target is
a query: bisect the sums for the crossing chunk, scan by latency for the
swap and the single cover. :func:`plan_recompute` keeps its last ranked
pool in one slot keyed on the table's identity (hashing a table costs
what the slot saves; the slot holds the table, so its id is not reused)
plus the shape, tp and exclusions: a sweep of targets ranks it once.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
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
# A selection's (summed latency, chunk count, sorted names, bytes): among
# covers, the least latency wins, then the fewest chunks, then the names.
Key = tuple[float, int, tuple[str, ...], int]


def _plan(key: Key, feasible: bool) -> RecomputePlan:
    latency, _, names, saved = key
    return RecomputePlan(names, saved, round(latency, 9), feasible)


_NOTHING = _plan((0, 0, (), 0), feasible=True)  # its latency is the int 0


def _rank(pool: Sequence[PoolEntry]) -> tuple:
    """``pool`` as given; its bytes, latencies and names by descending ratio
    (then latency, then name) and their running byte sums; and each entry's
    ``(latency, name, rank)`` in ascending order, and by descending latency
    then name, the order :func:`_select` prunes in."""
    ranked = sorted([(-(size / MIB) / lat, lat, name, size) for size, lat, name in pool])
    _, lats, names, sizes = tuple(zip(*ranked)) or ((),) * 4
    by_lat = sorted(zip(lats, names, range(len(lats))))
    # Descending latency; the sort is stable, so equal latencies keep name order.
    by_cost = sorted(by_lat, key=itemgetter(0), reverse=True)
    return pool, sizes, lats, names, list(accumulate(sizes)), by_lat, by_cost


def _select(ranked: tuple, k: int, last: int, required: int) -> Key:
    """The key of ranks ``0..k-1`` plus ``last`` once pruned: drop, most
    expensive latency first, every entry the cover does not need."""
    _, sizes, lats, names, sums, _, by_cost = ranked
    spare = sums[k] - sizes[k] + sizes[last] - required
    kept = []
    for _, _, i in by_cost:
        if i < k or i == last:
            size = sizes[i]
            if size <= spare:
                spare -= size
            else:
                kept.append(i)
    kept.sort()  # selection order: the head by rank, then ``last``
    return (sum([lats[i] for i in kept]), len(kept), tuple(sorted([names[i] for i in kept])),
            required + spare)


def _query(ranked: tuple, required: int) -> RecomputePlan:
    pool, sizes, _, _, sums, by_lat, _ = ranked
    if required == 0:
        return _NOTHING
    if not sums or sums[-1] < required:
        return _plan((sum(lat for _, lat, _ in pool), len(pool), tuple(sorted(name for _, _, name in pool)),
                      sum(size for size, _, _ in pool)), feasible=False)
    k = bisect_left(sums, required)  # the crossing chunk's rank
    best = _select(ranked, k, k, required)
    # Swap the crossing chunk for the cheapest later chunk covering what the
    # head leaves; the crossing chunk itself would rebuild the prefix.
    deficit = required - sums[k] + sizes[k]
    for _, _, rank in by_lat:
        if rank >= k and sizes[rank] >= deficit:
            break
    if rank != k:
        best = min(best, _select(ranked, k, rank, required))
    # Best single-chunk cover, if any chunk alone suffices.
    for lat, name, rank in by_lat:
        if sizes[rank] >= required:
            best = min(best, (lat, 1, (name,), sizes[rank]))
            break
    return _plan(best, feasible=True)


def cover(pool: Sequence[PoolEntry], required: int) -> RecomputePlan:
    """Pick a minimal-latency subset of ``pool`` saving at least ``required`` bytes per layer.

    ``pool`` holds one ``(bytes, latency_ms, name)`` entry per candidate
    chunk, names unique. Infeasibility (even the whole pool saves too
    little) is encoded in the plan, not raised.
    """
    return _query(_rank(pool), required)


# plan_recompute's last (table, (B, S, H, A, tp, exclusions), ranked pool), read and
# written whole: a concurrent caller may rank again but never reads a torn entry.
_last: tuple = (None, None, None)


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
    global _last
    if required_savings_per_layer < 0:
        raise ConfigError("required savings must be >= 0", "recompute.required")
    if tp < 1:
        raise ConfigError("tp must be >= 1", "parallel.tp")
    excluded = frozenset(exclude)
    key = (B, S, H, A, tp, excluded)
    table, last_key, ranked = _last
    if table is not chunks or last_key != key:
        ranked = _rank(
            [(round(chunk_bytes_numerator(c, B, S, H, A) / tp), c.fwd_latency_ms, c.name)
             for c in chunks.chunks if c.recomputable and c.name not in excluded])
        _last = chunks, key, ranked
    return _query(ranked, required_savings_per_layer)
