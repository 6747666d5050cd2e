"""Optimizer-state and activation offloading plans, and strategy balancing.

Offloading trades PCIe traffic for device memory. Transfers only pay off
when they hide under computation: optimizer shards ride the first forward
and last backward micro-steps, per-block activations ride the adjacent
block's compute. Concurrent devices in one NUMA domain share host DDR
write bandwidth, capping the per-device PCIe rate.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .config import ClusterSpec
from .errors import ConfigError, InfeasibleError
from .memory import MIB, ChunkSpec, ChunkTable
from .recompute import RecomputePlan, cover

# Tensors below this size are not worth an offload round trip.
OFFLOAD_THRESHOLD_BYTES = 64 * MIB


def plan_optimizer_offload(
    opt_bytes_per_rank: float,
    pcie_bw: float,
    first_fwd_window_ms: float,
    last_bwd_window_ms: float,
) -> tuple[float, float]:
    """Optimizer-state staging cost per step in ms: (transfer, exposed).

    States move device-to-host after the update and back before the next
    one; the D2H leg hides under the first forward micro-step, the H2D
    leg under the last backward micro-step.
    """
    if first_fwd_window_ms < 0 or last_bwd_window_ms < 0:
        raise ConfigError("overlap windows must be >= 0", "offload.windows")
    if opt_bytes_per_rank <= 0:
        return (0.0, 0.0)
    leg_ms = opt_bytes_per_rank / pcie_bw * 1e3
    exposed = max(0.0, leg_ms - first_fwd_window_ms) + max(0.0, leg_ms - last_bwd_window_ms)
    return (2 * leg_ms, exposed)


def effective_pcie_bw(cluster: ClusterSpec, concurrent_devices: int) -> float:
    """Per-device transfer bandwidth once NUMA-domain host writes saturate."""
    if concurrent_devices < 1:
        raise ConfigError("concurrent_devices must be >= 1", "offload.concurrent_devices")
    sharing = min(concurrent_devices, cluster.devices_per_numa)
    return min(cluster.pcie_bw_per_device, cluster.host_write_bw_per_numa / sharing)


class ActivationOffloadPlan(NamedTuple):
    selected: tuple[str, ...]
    bytes_per_layer: int
    exposed_ms_per_layer_per_direction: float

    @property
    def exposed_ms_per_layer(self) -> float:
        return 2 * self.exposed_ms_per_layer_per_direction


class OffloadPlan(NamedTuple):
    """Combined optimizer + activation offload outcome for one layout."""

    optimizer_offloaded: bool
    optimizer_exposed_ms: float
    activation_offload_set: tuple[str, ...]
    activation_exposed_ms_per_microstep: float


NO_OFFLOAD = OffloadPlan(
    optimizer_offloaded=False,
    optimizer_exposed_ms=0.0,
    activation_offload_set=(),
    activation_exposed_ms_per_microstep=0.0,
)


def balance_strategies(
    deficit: int,
    chunks: ChunkTable | Sequence[ChunkSpec],
    sizes: dict[str, int],
    cluster: ClusterSpec,
    cp: int,
    block_compute_ms: float,
    num_layers: int,
) -> tuple[RecomputePlan, ActivationOffloadPlan]:
    """Cover a per-layer memory deficit with offload first, then recompute.

    (1) Offload, attention-class chunks first (their recomputation is the
    costliest), then by bytes, until the deficit is covered. A chunk is
    eligible when it is offloadable, at least ``OFFLOAD_THRESHOLD_BYTES``
    and its own transfer fits under one block's compute. The test is per
    chunk, but the selected chunks' transfers are summed: whatever of
    that sum exceeds ``block_compute_ms`` is exposed, per layer, per
    direction. (2) Recompute whatever deficit remains.

    ``sizes`` maps every chunk name to the bytes it retains per layer per
    rank at the candidate's shape (its context-parallel shard included),
    and ``deficit`` is the per-layer shortfall at context-parallel degree
    ``cp``. Returns ``(recompute, offload)``. Raises
    :class:`InfeasibleError`, its message prefixed ``cp=N:``, when the
    offloaded activations of all layers exceed host memory or the deficit
    exceeds what offload and recompute can save together.
    """
    chunk_list = chunks.chunks if isinstance(chunks, ChunkTable) else tuple(chunks)
    bw = effective_pcie_bw(cluster, cluster.devices_per_numa)

    # Attention-class chunks first, then by bytes, then by name.
    overlappable = sorted(
        (not c.is_attention_class, -sizes[c.name], c.name)
        for c in chunk_list
        if c.offloadable
        and sizes[c.name] >= OFFLOAD_THRESHOLD_BYTES
        and sizes[c.name] / bw * 1e3 <= block_compute_ms
    )
    offloaded: set[str] = set()
    offload_bytes = 0
    for _, neg_size, name in overlappable:
        if offload_bytes >= deficit:
            break
        offloaded.add(name)
        offload_bytes -= neg_size

    pool = [(sizes[c.name], c.fwd_latency_ms, c.name)
            for c in chunk_list if c.recomputable and c.name not in offloaded]
    recompute = cover(pool, max(0, deficit - offload_bytes))
    host_needed = offload_bytes * num_layers
    if host_needed > cluster.host_mem:
        raise InfeasibleError(
            f"cp={cp}: offloaded activations ({host_needed / 1e9:.1f} GB) "
            f"exceed host memory ({cluster.host_mem / 1e9:.1f} GB)"
        )
    if not recompute.feasible:
        raise InfeasibleError(
            f"cp={cp}: deficit {deficit / MIB:.0f} MiB/layer exceeds offloadable "
            f"+ recomputable savings {(offload_bytes + recompute.bytes_saved_per_layer) / MIB:.0f} MiB/layer"
        )
    transfer_ms = offload_bytes / bw * 1e3 if offload_bytes else 0.0
    exposed_ms = max(0.0, transfer_ms - block_compute_ms)
    return recompute, ActivationOffloadPlan(tuple(sorted(offloaded)), offload_bytes, exposed_ms)
