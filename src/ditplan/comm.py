"""Communication volumes, times and overlap for TP-SP, CP and data parallelism.

Collectives are costed with the ring model: a degree-k all-gather or
reduce-scatter moves (k-1)/k of the tensor per rank, plus a small fixed
launch latency per operation (``OverlapConfig.collective_latency_ms``).
Context parallelism is priced at inter-node bandwidth because TP-SP already
occupies the node; the CP gate, :data:`~ditplan.config.CP_GATE`, admits it
only on ultra-long sequences, for pinned and enumerated layouts alike, since
cross-node all-to-all is the dominant bottleneck otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# CP_TOKEN_GATE is re-exported here, as ditplan.comm.CP_TOKEN_GATE.
from .config import (CP_GATE, CP_TOKEN_GATE, LAYOUT_RULES, ClusterSpec, DTypePolicy, ModelArch,
                     OverlapConfig, ParallelConfig)
from .errors import ConfigError, InfeasibleError

# The CP gate reads only cp and the token count.
_CP_GATE_PASSES, _CP_GATE_MESSAGE = CP_GATE


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
    """Gate CP with :data:`~ditplan.config.CP_GATE` and cost its per-layer
    transposes.

    A request the gate rejects is recorded as a violation, the gate's
    message (the plan is rejected downstream); a cp that is not a power of
    two raises :class:`ConfigError`, as no layout may hold one. Two
    all-to-alls bracket each attention, each moving B*S*H*act_bytes*(cp-1)/cp.
    """
    if cp < 1 or cp & (cp - 1):
        raise ConfigError(f"cp must be a power of two >= 1, got {cp}", "parallel.cp")
    if not _CP_GATE_PASSES(None, None, None, cp, None, tokens_batch):
        return CpGateResult(time_ms=0.0,
                            violation=_CP_GATE_MESSAGE(None, None, None, cp, None, tokens_batch))
    if cp == 1:
        return CpGateResult(time_ms=0.0)
    volume = 2 * B * S * H * act_bytes * (cp - 1) / cp
    time_ms = volume / inter_bw * 1e3 + 2 * collective_latency_ms
    return CpGateResult(time_ms=time_ms)


class CommPlan(NamedTuple):
    """Each collective's time for one (bucket, layout) pair: TP-SP and CP per layer
    and leg, DP per optimizer step. :func:`~ditplan.simulate.estimate_step` adds them up."""

    tp_sp_raw_ms_per_layer: float
    tp_sp_exposed_ms_per_layer: float
    cp_ms_per_layer: float
    dp_raw_ms_per_step: float
    dp_exposed_ms_per_step: float


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

    TP-SP runs two collectives per layer (all-gather of the sequence-sharded
    input, reduce-scatter of the output) over ``intra_node_bw``, each moving
    B*(S/cp)*H*act_bytes*(tp-1)/tp; fused matmul-collective pipelining hides
    ``overlap.tp_sp_fraction`` of it. DP runs one parameter all-gather and
    one gradient reduce-scatter of the P/tp shard per optimizer step (once
    per accumulation cycle, not per micro-step) over ``inter_node_bw``. The
    all-gather hides under the first forward micro-step, the reduce-scatter
    under the last backward micro-step; whatever does not fit is exposed.
    """
    latency_ms = overlap.collective_latency_ms
    gate = cp_gate_and_comm(B * S, B, S, arch.hidden_size, par.cp, dtypes.act_bytes,
                            cluster.inter_node_bw, latency_ms)
    if gate.violation is not None:
        raise InfeasibleError(gate.violation)
    tp, dp = par.tp, par.dp
    tp_raw = tp_exposed = dp_raw = dp_exposed = 0.0
    if tp > 1:
        volume = 2 * B * (S // par.cp) * arch.hidden_size * dtypes.act_bytes * (tp - 1) / tp
        tp_raw = volume / cluster.intra_node_bw * 1e3 + 2 * latency_ms
        tp_exposed = tp_raw * (1.0 - overlap.tp_sp_fraction)
    if dp > 1:
        shard = P / tp
        ring = (dp - 1) / dp
        ag_ms = shard * dtypes.param_bytes * ring / cluster.inter_node_bw * 1e3 + latency_ms
        rs_ms = shard * dtypes.grad_bytes * ring / cluster.inter_node_bw * 1e3 + latency_ms
        dp_raw = ag_ms + rs_ms
        dp_exposed = (max(0.0, ag_ms - first_fwd_window_ms)
                      + max(0.0, rs_ms - last_bwd_window_ms))
    return CommPlan(
        tp_sp_raw_ms_per_layer=tp_raw,
        tp_sp_exposed_ms_per_layer=tp_exposed,
        cp_ms_per_layer=gate.time_ms,
        dp_raw_ms_per_step=dp_raw,
        dp_exposed_ms_per_step=dp_exposed,
    )


def enumerate_parallel_configs(
    arch: ModelArch,
    cluster: ClusterSpec,
    tokens_batch: int,
    zero_stage: str,
    grad_accum: int,
) -> list[ParallelConfig]:
    """Every whole-cluster (tp, cp, dp) split that breaks none of the
    :data:`~ditplan.config.LAYOUT_RULES` for a bucket of ``tokens_batch``
    tokens, by ascending tp then cp.

    TP takes the divisors of devices_per_node (by trial division up to its
    square root), CP the powers of two, and DP the rest. Every rule is
    monotone in cp, so raising cp stops at the first broken rule. Every
    layout carries the given ``zero_stage`` and ``grad_accum``.
    """
    n, total = cluster.devices_per_node, cluster.total_devices
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    candidates: list[ParallelConfig] = []
    for tp in small + [n // d for d in reversed(small) if d * d != n]:
        cp = 1
        while True:
            dp = total // (tp * cp) or 1  # past the cluster, the overcommit rule stops cp
            if not all(passes(arch, cluster, tp, cp, dp, tokens_batch)
                       for passes, _ in LAYOUT_RULES):
                break
            if tp * cp * dp == total:
                candidates.append(ParallelConfig(tp=tp, cp=cp, dp=dp, zero_stage=zero_stage,
                                                 grad_accum=grad_accum))
            cp *= 2
    return candidates
