"""Static input descriptions: model, cluster, dtype policy, parallel layout, stages.

Every config record (the classes below and ``buckets.Bucket``) is an
immutable ``__slots__`` :class:`~ditplan.errors._Record` whose fields,
defaults and construction checks (positive counts, known enum values) come
from the schema rows it declares. The same rows drive JSON parsing
(unknown-key, missing-key and type errors). Records compare and hash by
value and offer ``_fields``, ``_asdict()``, ``_replace()`` and ``_make()``,
which re-run the checks. Cross-object rules such as "tp divides the hidden
size" are checked by :func:`validate`, which returns violations as data
instead of raising, so that a report can list every problem at once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .errors import (_PARSERS, _REQUIRED, ConfigError, _field_names, _parse_record, _Record,
                     _require_mapping, integer_value, read_json)

ADALN_MODES = ("shared-weights", "per-block-dedicated")
ZERO_STAGES = ("none", "optimizer-partitioned")

_DTYPE_WIDTHS = (1, 2, 4, 8)

# The causal video VAE every planned model sits behind: the leading frame
# stays whole and the rest compress by the temporal ratio, height and width
# divide by the spatial ratio, and each latent pixel carries this many
# channels.
VAE_TEMPORAL_RATIO = 4
VAE_SPATIAL_RATIO = 8
VAE_LATENT_CHANNELS = 8

# Checks shared by several schema rows (see ditplan.errors for the row format).
_NON_NEGATIVE = ("isinstance(v, int) and v >= 0", "must be a non-negative integer")
_PATCH = ("v >= 1", "patch dims must be >= 1")
_POSITIVE = ("v > 0", "must be positive")
_WIDTH = (f"v in {_DTYPE_WIDTHS}", f"must be one of {_DTYPE_WIDTHS}")
_DEGREE = ("v >= 1", "degree must be >= 1")
_ZERO = (f"v in {ZERO_STAGES}", f"zero_stage must be one of {ZERO_STAGES}")
_AT_LEAST_ONE = ("v >= 1", "must be >= 1")


def _parse_names(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise ConfigError("expected a list of layer names", path)
    return tuple(value)


def _parse_bucket(entry: Any, path: str) -> "Bucket":
    from .buckets import Bucket

    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise ConfigError("bucket must be [batch, frames, height, width]", path)
    values = [integer_value(v, f"{path}[{i}]") for i, v in enumerate(entry)]
    try:
        return Bucket(*values)
    except ConfigError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_buckets(entries: Any, path: str) -> tuple["Bucket", ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("expected an array of buckets", path)
    return tuple(_parse_bucket(entry, f"{path}[{i}]") for i, entry in enumerate(entries))


def _parse_stages(entries: Any, path: str) -> tuple[StageScenario, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("expected an array of stages", path)
    stages: list[StageScenario] = []
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        name = _require_mapping(entry, where).get("name")
        if not isinstance(name, str):
            raise ConfigError("stage needs a string name", f"{where}.name")
        if any(stage.name == name for stage in stages):
            raise ConfigError(f"duplicate stage name {name!r}", f"{where}.name")
        stages.append(_parse_record(StageScenario, entry, where))
    return tuple(stages)


_PARSERS.update(names=_parse_names, bucket=_parse_bucket, buckets=_parse_buckets,
                stages=_parse_stages)


class ModelArch(_Record):
    """Transformer shape description.

    ``param_count`` may be supplied directly when the true total is known
    (preferred); :func:`estimate_param_count` is a convenience for models
    where only the dims are known.
    """

    _schema = ("model", (
        ("hidden_size num_heads", "int", _REQUIRED, _NON_NEGATIVE,
         ("v >= 1", "hidden_size and num_heads must be >= 1", "model")),
        ("num_layers", "int", _REQUIRED, _NON_NEGATIVE),
        ("ffn_multiplier", "int", 4, _NON_NEGATIVE),
        ("adaln_mode", "choice", "per-block-dedicated",
         (f"v in {ADALN_MODES}", f"adaln_mode must be one of {ADALN_MODES}")),
        ("patch_t", "int", 1, _PATCH),
        ("patch_h patch_w", "int", 2, _PATCH),
        ("param_count", "float?", None,
         ("v is None or v > 0", "param_count must be positive when supplied")),
        ("extra_unpartitioned_layers", "names", ("patchify", "final_proj")),
    ))
    __slots__ = _field_names(_schema)

    @property
    def patch_volume(self) -> int:
        return self.patch_t * self.patch_h * self.patch_w


class ClusterSpec(_Record):
    """Hardware description. Bandwidths in bytes/s, memory in bytes, FLOPs in FLOP/s."""

    _schema = ("cluster", (
        ("num_nodes devices_per_node", "int", _REQUIRED, _POSITIVE),
        ("device_mem peak_flops_per_device intra_node_bw inter_node_bw pcie_bw_per_device "
         "host_write_bw_per_numa", "float", _REQUIRED, _POSITIVE),
        ("devices_per_numa", "int", _REQUIRED, _POSITIVE,
         ("v <= devices_per_node", "devices_per_numa cannot exceed devices_per_node")),
        ("host_mem", "float", _REQUIRED, _POSITIVE),
    ))
    __slots__ = _field_names(_schema)

    @property
    def total_devices(self) -> int:
        return self.num_nodes * self.devices_per_node


class DTypePolicy(_Record):
    """Bytes per element for each model-state class.

    The default (2-byte params/grads/activations, 4-byte master weights,
    AdamW moments and EMA) puts a 13.4B model at 268 GB of model states.
    """

    _schema = ("dtypes", (
        ("param_bytes grad_bytes", "int", 2, _WIDTH),
        ("master_bytes moment_bytes ema_bytes", "int", 4, _WIDTH),
        ("act_bytes", "int", 2, _WIDTH),
    ))
    __slots__ = _field_names(_schema)


class ParallelConfig(_Record):
    """One candidate parallel layout: tensor/context/data degrees plus options."""

    _schema = ("parallel", (
        ("tp cp dp", "int", 1, _DEGREE),
        ("zero_stage", "choice", "optimizer-partitioned", _ZERO),
        ("grad_accum", "int", 1, _DEGREE),
    ))
    __slots__ = _field_names(_schema)

    @property
    def devices_used(self) -> int:
        return self.tp * self.cp * self.dp


class StageScenario(_Record):
    """One training-stage row: which bucket(s) it runs and at what batch size."""

    _schema = ("stages", (
        ("name", "str", _REQUIRED),
        ("image_bucket", "bucket?", None),
        ("video_bucket", "bucket?", None,
         ("image_bucket is not None or v is not None", "stage needs at least one bucket",
          "stages.{name}")),
        ("global_batch step_count", "int", 1,
         ("v >= 1", "batch and step counts must be >= 1", "stages.{name}")),
    ))
    __slots__ = _field_names(_schema)

    def buckets(self) -> list[tuple[str, "Bucket"]]:
        out = []
        if self.image_bucket is not None:
            out.append(("image", self.image_bucket))
        if self.video_bucket is not None:
            out.append(("video", self.video_bucket))
        return out


def tp_violations(arch: ModelArch, cluster: ClusterSpec, tp: int) -> list[str]:
    """The TP rule: ``tp`` divides H, the head count and devices_per_node, so
    each TP group sits inside one node, whose intra_node_bw prices its
    collectives. One string per failed condition; empty means allowed."""
    sizes = (("H", arch.hidden_size), ("num_heads", arch.num_heads),
             ("devices_per_node", cluster.devices_per_node))
    return [f"tp does not divide {name} ({size} % {tp} != 0)" for name, size in sizes if size % tp]


def validate(arch: ModelArch, cluster: ClusterSpec, par: ParallelConfig) -> list[str]:
    """Cross-check a (model, cluster, parallel) triple, tp by :func:`tp_violations`.

    Returns a deterministic, order-stable list of violation strings, one per
    failed condition; empty means valid. Violations are data, not failures.
    """
    violations: list[str] = []
    if arch.num_layers < 1:
        violations.append("num_layers must be >= 1 to plan a step")
    if arch.hidden_size % arch.num_heads != 0:
        violations.append(
            f"num_heads does not divide hidden_size ({arch.hidden_size} % {arch.num_heads} != 0)"
        )
    violations += tp_violations(arch, cluster, par.tp)
    if par.devices_used > cluster.total_devices:
        violations.append(
            f"device overcommit: tp*cp*dp = {par.devices_used} "
            f"exceeds cluster total {cluster.total_devices}"
        )
    return violations


class ParamCountEstimate(NamedTuple):
    """Parameter-count breakdown; AdaLN is reported separately because
    per-block modulation layers alone can add multiple billions."""

    total: float
    transformer: float
    adaln: float
    embedding_head: float


def estimate_param_count(arch: ModelArch) -> ParamCountEstimate:
    """Estimate parameters from dims when the true count is not supplied.

    Per transformer block: 4*H^2 attention (QKV + output projection) plus
    2*ffn_multiplier*H^2 FFN. Per-block-dedicated AdaLN adds 6*H^2 per
    block (one Linear regressing scale/shift/gate pairs); shared mode
    amortizes to a single 6*H^2 module. Patchify embedding and the final
    projection contribute the (small) embedding/head term.
    """
    h2 = arch.hidden_size**2
    per_layer = 4 * h2 + 2 * arch.ffn_multiplier * h2
    transformer = arch.num_layers * per_layer
    if arch.adaln_mode == "per-block-dedicated":
        adaln = arch.num_layers * 6 * h2
    else:
        adaln = 6 * h2
    in_features = arch.patch_volume * VAE_LATENT_CHANNELS
    embedding_head = 2 * in_features * arch.hidden_size
    return ParamCountEstimate(
        total=float(transformer + adaln + embedding_head),
        transformer=float(transformer),
        adaln=float(adaln),
        embedding_head=float(embedding_head),
    )


def resolved_param_count(arch: ModelArch) -> float:
    """Supplied count when present, estimate otherwise."""
    if arch.param_count is not None:
        return float(arch.param_count)
    return estimate_param_count(arch).total


class OverlapConfig(_Record):
    """Overlap and collective-cost knobs.

    ``tp_sp_fraction`` is the fraction of TP-SP collective time hidden by
    fused matmul pipelining. No measured value is available for it, so it
    is an explicit assumption (default 0.8) and is echoed in reports.
    """

    _schema = ("overlap", (
        ("tp_sp_fraction", "float", 0.8, ("0.0 <= v <= 1.0", "must be in [0, 1]")),
        ("collective_latency_ms", "float", 0.02, ("v >= 0", "must be >= 0")),
        ("efficiency", "float", 0.5, ("0.0 < v <= 1.0", "must be in (0, 1]")),
    ))
    __slots__ = _field_names(_schema)


class ParallelSection(_Record):
    """The ``parallel`` config block: degrees may be left null to enumerate."""

    _schema = ("parallel", (
        ("tp cp dp", "int?", None),
        ("zero_stage", "choice", "optimizer-partitioned", _ZERO),
        ("grad_accum", "int", 1, _AT_LEAST_ONE),
    ))
    __slots__ = _field_names(_schema)

    @property
    def pinned(self) -> ParallelConfig | None:
        if self.tp is None and self.cp is None and self.dp is None:
            return None
        if self.tp is None or self.cp is None or self.dp is None:
            raise ConfigError("pin all of tp, cp, dp or none of them", "parallel")
        return ParallelConfig(**self._asdict())  # the same fields, checked as a layout


class PlanningConfig(_Record):
    """Everything one planning run needs, as parsed from a single JSON document."""

    _schema = ("", (
        ("model", "ModelArch", _REQUIRED),
        ("cluster", "ClusterSpec", _REQUIRED),
        ("dtypes", "DTypePolicy", DTypePolicy()),
        ("parallel", "ParallelSection", ParallelSection()),
        ("overlap", "OverlapConfig", OverlapConfig()),
        ("stages", "stages", ()),
        ("buckets", "buckets", ()),
        ("fitted_fields", None, ()),
    ))
    __slots__ = _field_names(_schema)


def require_valid(config: PlanningConfig) -> None:
    """Raise :class:`ConfigError` listing every :func:`validate` violation of
    the config's pinned layout, or of tp=cp=dp=1 when none is pinned."""
    violations = validate(config.model, config.cluster, config.parallel.pinned or ParallelConfig())
    if violations:
        raise ConfigError("; ".join(violations), "config")


def parse_config(doc: Mapping[str, Any]) -> PlanningConfig:
    """Build a :class:`PlanningConfig` from a parsed JSON document."""
    return _parse_record(PlanningConfig, doc, "")


def load_config(path: str | Path) -> PlanningConfig:
    """Parse a planning config from a JSON file."""
    return parse_config(read_json(path, "config"))
