"""Per-rank memory accounting: model states, per-chunk activations, peak sweep.

Chunk formulas follow the fused-operation accounting used for long-video
transformer blocks: retained bytes per layer are affine in B*S*H (token
activations) and B*A*S (per-head attention statistics), divided by the
tensor-parallel degree. Coefficients already include the 2-byte element
size, i.e. they are byte formulas, which is the only reading that
reproduces the reference measurements.

The inputs :class:`ChunkSpec`, :class:`ChunkTable` and :class:`TimelineEvent`
are records (see :mod:`ditplan.errors`), so their schema rows parse a chunk
table file; :class:`MemoryBreakdown` and :class:`ActivationTimeline` are results.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

from .errors import (_PARSERS, _REQUIRED, ConfigError, MalformedTimelineError, _field_names,
                     _parse_record, _Record, read_json)

if TYPE_CHECKING:
    from .config import DTypePolicy, ParallelConfig

MIB = 1024 * 1024

# Lifecycle tags for free events whose recorded release point lags the last
# true consumer (aliased storage, obsolete concat sources).
SHARED_STORAGE = "shared-storage"
MERGED_REDUNDANT = "merged-redundant"
_LIFECYCLE_TAGS = (SHARED_STORAGE, MERGED_REDUNDANT)

_COEFFICIENT = ("v >= 0", "coefficients must be >= 0", "chunk.{name}")
_AT_LEAST_ONE = ("v >= 1", "must be >= 1")


class ChunkSpec(_Record):
    """One fused operation of the transformer block.

    ``coeff_bsh`` multiplies B*S*H, ``coeff_bas`` multiplies B*A*S, both in
    bytes. ``fwd_latency_ms`` is the profiled forward latency at the
    table's reference shape.
    """

    _schema = ("chunk", (
        ("name", "str", _REQUIRED),
        ("coeff_bsh", "number", _REQUIRED, _COEFFICIENT),
        ("coeff_bas", "number", 0.0, _COEFFICIENT),
        ("fwd_latency_ms", "number", 1.0,
         ("v > 0", "fwd_latency_ms must be positive", "chunk.{name}")),
        ("recomputable offloadable", "bool", True),
    ))
    __slots__ = _field_names(_schema)

    @property
    def is_attention_class(self) -> bool:
        """Chunks with a per-head term hold attention state and scale O(S^2) in compute."""
        return self.coeff_bas > 0


def chunk_bytes_numerator(chunk: ChunkSpec, B: int, S: int, H: int, A: int) -> float:
    """The chunk's retained bytes per layer before tensor-parallel sharding."""
    return chunk.coeff_bsh * B * S * H + chunk.coeff_bas * B * A * S


def chunk_retained_bytes(chunk: ChunkSpec, B: int, S: int, H: int, A: int, tp: int) -> int:
    """Activation bytes this chunk keeps alive per layer per rank:
    ``round(chunk_bytes_numerator(...) / tp)``."""
    if tp < 1:
        raise ConfigError("tp must be >= 1", "parallel.tp")
    return round(chunk_bytes_numerator(chunk, B, S, H, A) / tp)


def _parse_chunks(entries: Any, path: str) -> tuple[ChunkSpec, ...]:
    if not isinstance(entries, list):
        raise ConfigError("expected an array of chunks", path)
    return tuple(_parse_record(ChunkSpec, entry, f"{path}[{i}]") for i, entry in enumerate(entries))


_PARSERS["chunks"] = _parse_chunks


class ChunkTable(_Record):
    """A named set of chunks plus the shape their latencies were profiled at."""

    _schema = ("", (
        ("chunks", "chunks", _REQUIRED,
         ("len({c.name for c in v}) == len(v)", "duplicate chunk names", "chunks")),
        ("ref_batch", "int", 1, _AT_LEAST_ONE),
        ("ref_seqlen", "int", 115_200, _AT_LEAST_ONE),
        ("ref_hidden", "int", 3072, _AT_LEAST_ONE),
        ("ref_heads", "int", 24, _AT_LEAST_ONE),
        ("ref_tp", "int", 8, _AT_LEAST_ONE),
    ))
    __slots__ = (*_field_names(_schema), "__dict__")  # the dict holds _index only

    @cached_property
    def _index(self) -> dict[str, ChunkSpec]:
        """Name -> chunk, built on first lookup; not a field, so never compared."""
        return {c.name: c for c in self.chunks}

    def by_name(self, name: str) -> ChunkSpec:
        chunk = self._index.get(name)
        if chunk is None:
            raise ConfigError(f"unknown chunk {name!r}", "chunks")
        return chunk

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.chunks)


# Reference per-layer accounting for the 125-frame 1280x720 shape
# (115,200 tokens, 24 heads, hidden 3072, tp 8). Latencies are the
# measured forward times shipped as reference data.
BUILTIN_CHUNKS = ChunkTable(
    chunks=(
        ChunkSpec("flash_attention", coeff_bsh=2, coeff_bas=64, fwd_latency_ms=127.5),
        ChunkSpec("out_linear_reduce_scatter", coeff_bsh=2, fwd_latency_ms=13.4),
        ChunkSpec("ffn_linear2_reduce_scatter", coeff_bsh=2, fwd_latency_ms=8.9),
        ChunkSpec("all_gather_ffn_linear1", coeff_bsh=8, fwd_latency_ms=8.6),
        ChunkSpec("all_gather_qkv_linear", coeff_bsh=6, fwd_latency_ms=7.7),
        ChunkSpec("fused_qknorm", coeff_bsh=4, fwd_latency_ms=1.9),
        ChunkSpec("gate", coeff_bsh=2, fwd_latency_ms=0.36),
        ChunkSpec("layernorm_scale_shift", coeff_bsh=4, fwd_latency_ms=0.58),
        ChunkSpec("gelu", coeff_bsh=8, fwd_latency_ms=0.64),
    )
)


def load_chunk_table(path: str | Path) -> ChunkTable:
    """Load a chunk table from JSON: {"chunks": [{name, coeff_bsh, ...}], "ref_<x>": ...}."""
    return _parse_record(ChunkTable, read_json(path, "chunk table"), "")


class MemoryBreakdown(NamedTuple):
    """Per-rank bytes by state class; ``total`` is always the sum of parts."""

    params: float
    grads: float
    master: float
    moments: float
    ema: float
    activations_peak: float = 0.0

    @property
    def optimizer(self) -> float:
        return self.master + self.moments + self.ema

    @property
    def total(self) -> float:
        return (
            self.params + self.grads + self.master + self.moments + self.ema + self.activations_peak
        )


def model_states_bytes(P: float, dtypes: DTypePolicy, par: ParallelConfig) -> MemoryBreakdown:
    """Model-state bytes per rank under TP sharding and optional optimizer partitioning.

    Parameters and gradients stay replicated across the data-parallel
    group (full replicas during fwd/bwd); optimizer states (master
    weights, two AdamW moments, EMA) additionally divide by dp when
    partitioned.
    """
    if P <= 0:
        if P == 0:
            return MemoryBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
        raise ConfigError("param count must be >= 0", "model.param_count")
    opt_div = par.tp * (par.dp if par.zero_stage == "optimizer-partitioned" else 1)
    return MemoryBreakdown(
        params=P * dtypes.param_bytes / par.tp,
        grads=P * dtypes.grad_bytes / par.tp,
        master=P * dtypes.master_bytes / opt_div,
        moments=P * 2 * dtypes.moment_bytes / opt_div,
        ema=P * dtypes.ema_bytes / opt_div,
    )


def activation_per_layer(
    chunks: ChunkTable | Sequence[ChunkSpec],
    B: int,
    S: int,
    H: int,
    A: int,
    tp: int,
    recompute_set: Iterable[str] = (),
    offload_set: Iterable[str] = (),
) -> int:
    """Bytes retained per layer per rank after discarding recomputed/offloaded chunks."""
    chunk_list = chunks.chunks if isinstance(chunks, ChunkTable) else tuple(chunks)
    names = {c.name for c in chunk_list}
    excluded = set(recompute_set) | set(offload_set)
    unknown = excluded - names
    if unknown:
        raise ConfigError(f"unknown chunk name(s) in plan: {sorted(unknown)}", "recompute_set")
    return sum(
        chunk_retained_bytes(c, B, S, H, A, tp) for c in chunk_list if c.name not in excluded
    )


# ---------------------------------------------------------------------------
# Activation lifecycle timelines
# ---------------------------------------------------------------------------


class TimelineEvent(_Record):
    """One alloc/free event at an integer time index.

    Tagged free events carry ``last_consumer_time``: the time index of the
    last operation that truly needs the buffer. Lifecycle optimization
    moves such frees to just after that point.
    """

    _schema = ("timeline", (
        ("time", "int", _REQUIRED),
        ("kind", "choice", _REQUIRED,
         ("v in ('alloc', 'free')", "event kind must be 'alloc' or 'free'", "timeline.{name}")),
        ("name", "str", _REQUIRED),
        ("bytes", "int", _REQUIRED, ("v >= 0", "event bytes must be >= 0", "timeline.{name}")),
        ("tag", "choice?", None,
         (f"v is None or v in {_LIFECYCLE_TAGS}", f"tag must be one of {_LIFECYCLE_TAGS}",
          "timeline.{name}")),
        ("last_consumer_time", "int?", None),
    ))
    __slots__ = _field_names(_schema)


class ActivationTimeline(NamedTuple):
    events: tuple[TimelineEvent, ...]

    @staticmethod
    def build(events: Sequence[TimelineEvent]) -> "ActivationTimeline":
        return ActivationTimeline(events=tuple(sorted(events, key=lambda e: e.time)))


def _effective_order(
    timeline: ActivationTimeline, lifecycle_optimized: bool
) -> list[TimelineEvent]:
    def sort_key(item: tuple[int, TimelineEvent]) -> tuple[float, int]:
        index, event = item
        time = float(event.time)
        if (
            lifecycle_optimized
            and event.kind == "free"
            and event.tag is not None
            and event.last_consumer_time is not None
        ):
            # Land between the last consumer and the next time index.
            time = min(time, event.last_consumer_time + 0.5)
        return (time, index)

    return [e for _, e in sorted(enumerate(timeline.events), key=sort_key)]


def peak_memory(timeline: ActivationTimeline, lifecycle_optimized: bool = False) -> int:
    """Maximum occupancy of a running alloc/free sweep over the timeline.

    With ``lifecycle_optimized``, frees tagged shared-storage or
    merged-redundant fire right after their last true consumer instead of
    at their recorded (delayed) release point.
    """
    live: dict[str, int] = {}
    occupancy = 0
    peak = 0
    for event in _effective_order(timeline, lifecycle_optimized):
        if event.kind == "alloc":
            if event.name in live:
                raise MalformedTimelineError(f"double alloc of {event.name!r}")
            live[event.name] = event.bytes
            occupancy += event.bytes
            peak = max(peak, occupancy)
        else:
            if event.name not in live:
                raise MalformedTimelineError(f"free before alloc for {event.name!r}")
            occupancy -= live.pop(event.name)
    if live:
        raise MalformedTimelineError(f"never freed: {sorted(live)}")
    return peak
