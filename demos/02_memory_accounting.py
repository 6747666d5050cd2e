"""Memory accounting walkthrough: model states, activations, lifecycle peaks.

A 13.4B-parameter model under AdamW with EMA carries 20 bytes of state
per parameter (2B params + 2B grads + 4B master + 8B moments + 4B EMA):
268 GB before a single activation. Activations at 115k tokens are far
larger still, which is why the planner spends most of its effort on them.
"""

from ditplan import (
    BUILTIN_CHUNKS,
    MIB,
    DTypePolicy,
    ParallelConfig,
    TimelineEvent,
    activation_per_layer,
    chunk_retained_bytes,
    model_states_bytes,
    peak_memory,
)
from ditplan.presets import TABLE2_FIT

P = 13.4e9
dtypes = DTypePolicy()

print("== model states ==")
for par in [
    ParallelConfig(tp=1, cp=1, dp=1, zero_stage="none"),
    ParallelConfig(tp=8, cp=1, dp=2, zero_stage="optimizer-partitioned"),
    ParallelConfig(tp=8, cp=1, dp=16, zero_stage="optimizer-partitioned"),
]:
    states = model_states_bytes(P, dtypes, par)
    print(
        f"  tp={par.tp} dp={par.dp:>2} zero={par.zero_stage:<21} "
        f"params {states.params / 1e9:6.2f} GB  grads {states.grads / 1e9:6.2f} GB  "
        f"optimizer {states.optimizer / 1e9:6.2f} GB  total {states.total / 1e9:7.2f} GB"
    )

print()
print("== per-chunk activations at the 115k-token reference shape (tp=8) ==")
args = dict(B=1, S=115_200, H=3072, A=24, tp=8)
print(f"  {'chunk':<28} {'retained':>12}")
for chunk in BUILTIN_CHUNKS.chunks:
    print(f"  {chunk.name:<28} {chunk_retained_bytes(chunk, **args) / MIB:>9.1f} MiB")
per_layer = activation_per_layer(BUILTIN_CHUNKS, **args)
print(f"  {'all nine, per layer':<28} {per_layer / MIB:>9.1f} MiB")
L = TABLE2_FIT.num_layers
print(f"  x {L} layers = {per_layer * L / 1e9:.0f} GB per rank before any recomputation")
full_rank = activation_per_layer(BUILTIN_CHUNKS, B=1, S=115_200, H=3072, A=24, tp=1)
print(f"  unsharded (tp=1) the same activations reach {full_rank * L / 1e12:.1f} TB,")
print("  matching the activations-dwarf-model-states picture for long videos.")

print()
print("== lifecycle control: delayed frees inflate the peak ==")
# A fused QKV buffer's storage is shared with downstream views, so its
# recorded free lands only when the MLP input dies; its last true
# consumer was attention, much earlier.
events = [
    TimelineEvent(0, "alloc", "qkv", 100 * MIB),
    TimelineEvent(1, "alloc", "attn_out", 50 * MIB),
    TimelineEvent(2, "alloc", "mlp_in", 80 * MIB),
    TimelineEvent(3, "free", "qkv", 100 * MIB, tag="shared-storage", last_consumer_time=1),
    TimelineEvent(4, "free", "attn_out", 50 * MIB),
    TimelineEvent(5, "free", "mlp_in", 80 * MIB),
]
plain = peak_memory(events)
optimized = peak_memory(events, lifecycle_optimized=True)
print(f"  recorded frees:   peak {plain / MIB:.0f} MiB")
print(f"  prompt frees:     peak {optimized / MIB:.0f} MiB")
print(f"  moving the tagged free to its last true consumer saves {(plain - optimized) / MIB:.0f} MiB")
