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


def _plan_from(selection: Iterable[ChunkSpec], saved: dict[str, int], feasible: bool) -> RecomputePlan:
    names = tuple(sorted(c.name for c in selection))
    return RecomputePlan(
        selected=names,
        bytes_saved_per_layer=sum(saved[n] for n in names),
        latency_added_per_layer_ms=round(
            sum(c.fwd_latency_ms for c in selection), 9
        ),
        feasible=feasible,
    )


def _prune(selection: list[ChunkSpec], saved: dict[str, int], required: int) -> list[ChunkSpec]:
    # Drop chunks the cover does not need, most expensive latency first.
    kept = list(selection)
    spare = sum(saved[c.name] for c in kept) - required
    for chunk in sorted(selection, key=lambda c: (-c.fwd_latency_ms, c.name)):
        if saved[chunk.name] <= spare:
            kept.remove(chunk)
            spare -= saved[chunk.name]
    return kept


def cover(pool: Sequence[ChunkSpec], saved: dict[str, int], required: int) -> RecomputePlan:
    """Pick a minimal-latency subset of ``pool`` saving at least ``required`` bytes per layer.

    ``saved`` maps chunk names to the bytes each retains per layer; it may
    also name chunks outside the pool. Infeasibility (even the whole pool
    saves too little) is encoded in the plan, not raised.
    """
    if required == 0:
        return _plan_from([], saved, feasible=True)
    if sum(saved[c.name] for c in pool) < required:
        return _plan_from(pool, saved, feasible=False)

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

    candidates = [_prune(prefix, saved, required)]
    # Swap the crossing chunk for the cheapest single chunk covering the
    # deficit left by the rest of the prefix.
    head = prefix[:-1]
    deficit = required - sum(saved[c.name] for c in head)
    head_names = {c.name for c in head}
    swaps = [c for c in pool if c.name not in head_names and saved[c.name] >= deficit]
    if swaps:
        cheapest = min(swaps, key=lambda c: (c.fwd_latency_ms, c.name))
        candidates.append(_prune(head + [cheapest], saved, required))
    # Best single-chunk cover, if any chunk alone suffices.
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
    return _plan_from(best, saved, feasible=True)


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
    saved = {c.name: chunk_retained_bytes(c, B, S, H, A, tp) for c in pool}
    return cover(pool, saved, required_savings_per_layer)
