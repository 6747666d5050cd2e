"""Recomputation planning walkthrough: memory-latency ratios and selection.

Recomputing an operator during backward frees its retained activations at
the price of re-running its forward. The selection key is the
memory-latency ratio (MiB freed per ms re-run). IO-bound operators like
GeLU free the same memory as attention at a tiny fraction of the re-run
cost, so they always go first; Flash Attention sits at the bottom with a
ratio under 1.
"""

from itertools import combinations

from ditplan import BUILTIN_CHUNKS, MIB, memory_latency_ratio, plan_recompute
from ditplan.memory import chunk_retained_bytes

args = dict(B=1, S=115_200, H=3072, A=24, tp=8)


def optimal_ms(required: int) -> float:
    """Cheapest re-run latency over every covering subset of the table."""
    pool = [(chunk_retained_bytes(c, **args), c.fwd_latency_ms) for c in BUILTIN_CHUNKS.chunks]
    return min(
        sum(ms for _, ms in subset)
        for r in range(len(pool) + 1)
        for subset in combinations(pool, r)
        if sum(size for size, _ in subset) >= required
    )


print("== ratio table at the 115k-token reference shape ==")
print(f"  {'chunk':<28} {'retained':>9} {'fwd ms':>8} {'ratio':>8}")
ranked = sorted(BUILTIN_CHUNKS.chunks, key=lambda c: -memory_latency_ratio(c, **args))
for chunk in ranked:
    print(
        f"  {chunk.name:<28} {chunk_retained_bytes(chunk, **args) / MIB:>6.1f}MiB "
        f"{chunk.fwd_latency_ms:>8.2f} {memory_latency_ratio(chunk, **args):>8.1f}"
    )

print()
print("== greedy selection vs the exhaustive optimum ==")
print(f"  {'required':>9} {'greedy set':<58} {'greedy ms':>9} {'optimal ms':>10}")
for required_mib in (100, 400, 800, 1200):
    required = required_mib * MIB
    greedy = plan_recompute(BUILTIN_CHUNKS, required, **args)
    names = "+".join(greedy.selected)
    print(
        f"  {required_mib:>6}MiB {names:<58} {greedy.latency_added_per_layer_ms:>9.2f} "
        f"{optimal_ms(required):>10.2f}"
    )
print("  the refined greedy (ratio prefix, prune, tail swap, single cover)")
print("  matches the 512-subset optimum everywhere on this table.")

print()
print("== infeasibility is data, not an exception ==")
too_much = plan_recompute(BUILTIN_CHUNKS, 5000 * MIB, **args)
print(
    f"  asking for 5000 MiB/layer: feasible={too_much.feasible}, "
    f"selected all {len(too_much.selected)} chunks for {too_much.mib_saved_per_layer:.0f} MiB"
)
