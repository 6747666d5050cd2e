"""Parallelism and offload walkthrough: comm costs, placement, NUMA limits.

Placement rules: TP-SP innermost (inside the node), context parallelism
only for ultra-long sequences (cp=2 above 200k tokens, each doubling only
while the cp/2 shards stay above it), then ZeRO-style data parallelism
outermost with optimizer states partitioned. A pinned layout passes the
same rules as an enumerated one.
Offloading rides PCIe and is throttled by the host write bandwidth that
all devices of a NUMA domain share. Each comm helper takes the launch
latency (0.02 ms here, the ``OverlapConfig`` default) explicitly.
"""

from ditplan import (
    Bucket,
    balance_strategies,
    DTypePolicy,
    cp_gate_and_comm,
    dp_comm,
    effective_pcie_bw,
    enumerate_parallel_configs,
    plan_optimizer_offload,
    token_count,
    tp_sp_layer_comm,
)
from ditplan.memory import BUILTIN_CHUNKS, MIB, chunk_retained_bytes
from ditplan.presets import REFERENCE_CLUSTER, TABLE2_FIT

dtypes = DTypePolicy()
LATENCY_MS = 0.02

print("== TP-SP per-layer collectives (115k tokens, 2-byte activations) ==")
for tp in (2, 4, 8):
    raw, exposed = tp_sp_layer_comm(1, 115_200, 3072, tp, 2, 200e9, 0.8, LATENCY_MS)
    print(f"  tp={tp}: raw {raw:6.2f} ms/layer, exposed {exposed:5.2f} ms at 0.8 fused overlap")

print()
print("== the context-parallel gate ==")
for tokens, cp in ((115_200, 2), (230_400, 2), (230_400, 4)):
    result = cp_gate_and_comm(tokens, 1, tokens, 3072, cp, 2, 50e9, LATENCY_MS)
    if result.violation:
        print(f"  {tokens:,} tokens, cp={cp}: REJECTED ({result.violation})")
    else:
        print(f"  {tokens:,} tokens, cp={cp}: enabled, {result.time_ms:.2f} ms/layer all-to-all")

print()
print("== data-parallel collectives, once per optimizer step ==")
raw, exposed = dp_comm(
    13.4e9, dtypes, 8, 16, 50e9, LATENCY_MS, first_fwd_window_ms=700, last_bwd_window_ms=700
)
print(f"  P=13.4e9, tp=8, dp=16: raw {raw:.1f} ms/step, exposed {exposed:.1f} ms under wide windows")

print()
print("== candidate enumeration (tp ascending, then cp) ==")
for bucket, label in [
    (Bucket(1, 125, 720, 1280), "115k tokens"),
    (Bucket(1, 253, 720, 1280), "230k tokens"),
]:
    tokens_batch = token_count(bucket, TABLE2_FIT).tokens_batch
    configs = enumerate_parallel_configs(
        TABLE2_FIT, REFERENCE_CLUSTER, tokens_batch, "optimizer-partitioned", 1
    )
    combos = ", ".join(f"(tp={c.tp},cp={c.cp},dp={c.dp})" for c in configs[:5])
    print(f"  {label}: {combos}{' ...' if len(configs) > 5 else ''}")

print()
print("== offloading against the NUMA write-bandwidth cap ==")
for per_numa in (1, 2, 4, 8):
    bw = effective_pcie_bw(REFERENCE_CLUSTER._replace(devices_per_numa=per_numa))
    print(f"  {per_numa} devices per NUMA domain: {bw / 1e9:.0f} GB/s per device")
bw = effective_pcie_bw(REFERENCE_CLUSTER)
exposed = plan_optimizer_offload(13.4e9, bw, 600.0, 1200.0)
print(f"  optimizer states 13.4 GB: {2 * 13.4e9 / bw * 1e3:.0f} ms round trip, {exposed:.0f} ms exposed")
sizes = {c.name: chunk_retained_bytes(c, 1, 115_200, 3072, 24, 8) for c in BUILTIN_CHUNKS.chunks}
recompute, offload = balance_strategies(
    400 * MIB, BUILTIN_CHUNKS, sizes, REFERENCE_CLUSTER, block_compute_ms=480.0, num_layers=54,
)
print(
    f"  activation deficit 400 MiB/layer: offload {list(offload.selected)} "
    f"({offload.bytes_per_layer / MIB:.0f} MiB/layer, exposed {offload.exposed_ms_per_layer:.1f} ms "
    f"under 480 ms blocks), recompute {list(recompute.selected) or 'nothing'}"
)
recompute, _ = balance_strategies(
    400 * MIB, BUILTIN_CHUNKS, sizes, REFERENCE_CLUSTER, block_compute_ms=480.0, num_layers=54,
    offload_activations=False,
)
print(f"  the same deficit with activation offload off: recompute {list(recompute.selected)}")
