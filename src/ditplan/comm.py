"""Communication volumes, times and overlap for TP-SP, CP and data parallelism.

Collectives are costed with the ring model: a degree-k all-gather or
reduce-scatter moves (k-1)/k of the tensor per rank, plus a small fixed
launch latency per operation. Context parallelism is priced at inter-node
bandwidth because TP-SP already occupies the node; :func:`cp_rejected`
gates it on ultra-long sequences for pinned and enumerated layouts alike,
since cross-node all-to-all is the dominant bottleneck otherwise.

Every helper takes the per-operation launch latency explicitly;
:func:`build_comm_plan` passes ``OverlapConfig.collective_latency_ms``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import ClusterSpec, DTypePolicy, ModelArch, OverlapConfig, ParallelConfig, tp_violations
from .errors import ConfigError, InfeasibleError

CP_TOKEN_GATE = 200_000

# Backward mirrors the forward collectives (all-gather and reduce-scatter
# swap roles), so one micro-step carries two forward-sized comm legs.
FWD_BWD_COMM_LEGS = 2.0


def tp_sp_layer_comm(
    B: int,
    S: int,
    H: int,
    tp: int,
    act_bytes: int,
    intra_bw: float,
    overlap_fraction: float,
    collective_latency_ms: float,
) -> tuple[float, float]:
    """Per-layer forward TP-SP time in ms: (raw, exposed).

    Two collectives per layer (all-gather of the sequence-sharded input,
    reduce-scatter of the output), each moving B*S*H*act_bytes*(tp-1)/tp.
    Fused matmul-collective pipelining hides ``overlap_fraction`` of it.
    """
    if tp < 1:
        raise ConfigError("tp must be >= 1", "parallel.tp")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ConfigError("overlap fraction must be in [0, 1]", "overlap.tp_sp_fraction")
    if tp == 1:
        return (0.0, 0.0)
    volume = 2 * B * S * H * act_bytes * (tp - 1) / tp
    raw = volume / intra_bw * 1e3 + 2 * collective_latency_ms
    exposed = raw * (1.0 - overlap_fraction)
    return (raw, exposed)


def cp_rejected(tokens_batch: int, cp: int) -> bool:
    """The CP gate: cp=2 needs the whole batch above :data:`CP_TOKEN_GATE`,
    and each further doubling needs the previous degree's shards above it;
    once shards fit TP-SP alone, higher CP is not minimally viable."""
    return cp > 1 and tokens_batch / (cp // 2) <= CP_TOKEN_GATE


class CpGateResult(NamedTuple):
    """Outcome of the context-parallel gate plus the per-layer all-to-all cost.
    CP is enabled when ``cp > 1`` and ``violation`` is ``None``."""

    time_ms: float
    violation: str | None = None


def cp_gate_and_comm(
    tokens_batch: int,
    B: int,
    S: int,
    H: int,
    cp: int,
    act_bytes: int,
    inter_bw: float,
    collective_latency_ms: float,
) -> CpGateResult:
    """Gate CP with :func:`cp_rejected` and cost its per-layer transposes.

    A request the gate rejects is recorded as a violation (the plan is
    rejected downstream, this never raises); for cp >= 4 it names the
    cp/2 split whose shards fall below the threshold. Two all-to-alls
    bracket each attention, each moving B*S*H*act_bytes*(cp-1)/cp.
    """
    if cp < 1:
        raise ConfigError("cp must be >= 1", "parallel.cp")
    if cp_rejected(tokens_batch, cp):
        split = f" split {cp // 2} ways" if cp >= 4 else ""
        return CpGateResult(
            time_ms=0.0,
            violation=(
                f"cp={cp} rejected: {tokens_batch} tokens{split} is below the "
                f"{CP_TOKEN_GATE} ultra-long-sequence threshold"
            ),
        )
    if cp == 1:
        return CpGateResult(time_ms=0.0)
    volume = 2 * B * S * H * act_bytes * (cp - 1) / cp
    time_ms = volume / inter_bw * 1e3 + 2 * collective_latency_ms
    return CpGateResult(time_ms=time_ms)


def dp_comm(
    P: float,
    dtypes: DTypePolicy,
    tp: int,
    dp: int,
    inter_bw: float,
    collective_latency_ms: float,
    first_fwd_window_ms: float = 0.0,
    last_bwd_window_ms: float = 0.0,
) -> tuple[float, float]:
    """Per-optimizer-step data-parallel time in ms: (raw, exposed).

    One parameter all-gather and one gradient reduce-scatter per step
    (once per accumulation cycle, not per micro-step). The all-gather
    hides under the first forward micro-step, the reduce-scatter under
    the last backward micro-step; whatever does not fit is exposed.
    """
    if dp < 1 or tp < 1:
        raise ConfigError("degrees must be >= 1", "parallel")
    if dp == 1:
        return (0.0, 0.0)
    shard = P / tp
    ring = (dp - 1) / dp
    ag_ms = shard * dtypes.param_bytes * ring / inter_bw * 1e3 + collective_latency_ms
    rs_ms = shard * dtypes.grad_bytes * ring / inter_bw * 1e3 + collective_latency_ms
    raw = ag_ms + rs_ms
    exposed = max(0.0, ag_ms - first_fwd_window_ms) + max(0.0, rs_ms - last_bwd_window_ms)
    return (raw, exposed)


class CommPlan(NamedTuple):
    """Assembled communication picture for one (bucket, parallel config) pair."""

    tp_sp_raw_ms_per_layer: float
    tp_sp_exposed_ms_per_layer: float
    cp_ms_per_layer: float
    dp_raw_ms_per_step: float
    dp_exposed_ms_per_step: float
    num_layers: int

    @property
    def exposed_ms_per_microstep(self) -> float:
        # Both classes pay a forward and a backward leg per layer; CP
        # all-to-alls sit on the critical path around attention.
        per_layer = (
            self.tp_sp_exposed_ms_per_layer + self.cp_ms_per_layer
        ) * FWD_BWD_COMM_LEGS
        return per_layer * self.num_layers

    def exposed_ms_per_step(self, grad_accum: int) -> float:
        return self.exposed_ms_per_microstep * grad_accum + self.dp_exposed_ms_per_step


def build_comm_plan(
    arch: ModelArch,
    cluster: ClusterSpec,
    dtypes: DTypePolicy,
    par: ParallelConfig,
    B: int,
    S: int,
    P: float,
    overlap: OverlapConfig = OverlapConfig(),
    first_fwd_window_ms: float = 0.0,
    last_bwd_window_ms: float = 0.0,
) -> CommPlan:
    """Cost every communication class for one candidate layout.

    ``S`` is the full per-sample sequence; CP shards it, so TP-SP inside a
    CP group only sees S/cp tokens. A layout the CP gate rejects raises
    :class:`InfeasibleError` carrying the gate's diagnostic.
    """
    gate = cp_gate_and_comm(
        B * S,
        B,
        S,
        arch.hidden_size,
        par.cp,
        dtypes.act_bytes,
        cluster.inter_node_bw,
        overlap.collective_latency_ms,
    )
    if gate.violation is not None:
        raise InfeasibleError(gate.violation)
    s_shard = S // par.cp
    tp_raw, tp_exposed = tp_sp_layer_comm(
        B,
        s_shard,
        arch.hidden_size,
        par.tp,
        dtypes.act_bytes,
        cluster.intra_node_bw,
        overlap.tp_sp_fraction,
        overlap.collective_latency_ms,
    )
    dp_raw, dp_exposed = dp_comm(
        P,
        dtypes,
        par.tp,
        par.dp,
        cluster.inter_node_bw,
        overlap.collective_latency_ms,
        first_fwd_window_ms,
        last_bwd_window_ms,
    )
    return CommPlan(
        tp_sp_raw_ms_per_layer=tp_raw,
        tp_sp_exposed_ms_per_layer=tp_exposed,
        cp_ms_per_layer=gate.time_ms,
        dp_raw_ms_per_step=dp_raw,
        dp_exposed_ms_per_step=dp_exposed,
        num_layers=arch.num_layers,
    )


def tp_degrees(arch: ModelArch, cluster: ClusterSpec) -> list[int]:
    """The divisors of devices_per_node (by trial division up to its square
    root) that pass the TP rule, :func:`~ditplan.config.tp_violations`, ascending."""
    n = cluster.devices_per_node
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = small + [n // d for d in reversed(small) if d * d != n]
    return [tp for tp in divisors if not tp_violations(arch, cluster, tp)]


def enumerate_parallel_configs(
    arch: ModelArch,
    cluster: ClusterSpec,
    tokens_batch: int,
    zero_stage: str,
    grad_accum: int,
) -> list[ParallelConfig]:
    """All (tp, cp, dp) splits of the cluster that a pinned layout would pass
    with, by ascending tp then cp, for a bucket of ``tokens_batch`` tokens.

    TP takes the :func:`tp_degrees`; CP takes power-of-two degrees until
    :func:`cp_rejected` stops it; DP absorbs the rest. Every layout carries
    the given ``zero_stage`` and ``grad_accum``.
    """
    total = cluster.total_devices
    candidates: list[ParallelConfig] = []
    for tp in tp_degrees(arch, cluster):
        cp = 1
        while tp * cp <= total and not cp_rejected(tokens_batch, cp):
            if total % (tp * cp) == 0:
                candidates.append(
                    ParallelConfig(
                        tp=tp,
                        cp=cp,
                        dp=total // (tp * cp),
                        zero_stage=zero_stage,
                        grad_accum=grad_accum,
                    )
                )
            cp *= 2
    return candidates
