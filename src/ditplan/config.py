"""Static input descriptions: model, cluster, dtype policy, parallel layout, stages.

Every config record below is an immutable ``__slots__``
:class:`~ditplan.errors._Record` whose fields, defaults and construction
checks (positive counts, known enum values) come from the schema rows it
declares. The same rows drive JSON parsing (unknown-key, missing-key and
type errors). Records compare and hash by value and offer ``_fields``,
``_asdict()``, ``_replace()`` and ``_make()``, which re-run the checks.
Cross-object rules are checked by :func:`validate`, which returns
violations as data instead of raising, so that a report can list every
problem at once; its layout rules, :data:`LAYOUT_RULES`, are also the
candidate enumerator's, and the last of them, :data:`CP_GATE`, is the CP
gate's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .errors import (_PARSERS, _REQUIRED, ConfigError, _field_names, _parse_record, _Record,
                     integer_value, read_json)

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


class Bucket(_Record):
    """One shape class of training samples: ``batch``, ``frames``, ``height``, ``width``.

    ``frames`` must be a count the causal VAE takes; height and width may be
    any size, as :func:`ditplan.buckets.snap_bucket` rounds them before a
    bucket is planned.
    """

    _schema = ("bucket", (
        ("batch", "int", _REQUIRED, _AT_LEAST_ONE),
        ("frames", "int", _REQUIRED, _AT_LEAST_ONE,
         (f"(v - 1) % {VAE_TEMPORAL_RATIO} == 0",
          f"frames-1 must be divisible by the temporal ratio {VAE_TEMPORAL_RATIO}")),
        ("height width", "int", _REQUIRED, _AT_LEAST_ONE),
    ))
    __slots__ = _field_names(_schema)

    def label(self) -> str:
        return f"{{{self.batch},{self.frames},{self.height},{self.width}}}"


def _parse_bucket(entry: Any, path: str) -> Bucket:
    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise ConfigError("bucket must be [batch, frames, height, width]", path)
    values = [integer_value(v, f"{path}[{i}]") for i, v in enumerate(entry)]
    try:
        return Bucket(*values)
    except ConfigError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_buckets(entries: Any, path: str) -> tuple[Bucket, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("expected an array of buckets", path)
    return tuple(_parse_bucket(entry, f"{path}[{i}]") for i, entry in enumerate(entries))


def _parse_stages(entries: Any, path: str) -> tuple[StageScenario, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError("expected an array of stages", path)
    stages: list[StageScenario] = []
    for i, entry in enumerate(entries):
        stage = _parse_record(StageScenario, entry, f"{path}[{i}]")
        if any(other.name == stage.name for other in stages):
            raise ConfigError(f"duplicate stage name {stage.name!r}", f"{path}[{i}].name")
        stages.append(stage)
    return tuple(stages)


_PARSERS.update(bucket=_parse_bucket, buckets=_parse_buckets, stages=_parse_stages)


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

    def buckets(self) -> list[tuple[str, Bucket]]:
        out = []
        if self.image_bucket is not None:
            out.append(("image", self.image_bucket))
        if self.video_bucket is not None:
            out.append(("video", self.video_bucket))
        return out


# The CP gate's threshold: cp=2 needs a bucket's batch above this many tokens.
CP_TOKEN_GATE = 200_000

# The CP gate, a layout rule as below: cp=2 needs the batch above CP_TOKEN_GATE
# and each further doubling the cp/2 shards above it, so CP stays minimally viable.
CP_GATE = (
    lambda m, c, tp, cp, dp, n: n is None or cp == 1 or n / (cp // 2) > CP_TOKEN_GATE,
    lambda m, c, tp, cp, dp, n:
    f"cp={cp} rejected: {n} tokens{f' split {cp // 2} ways' if cp >= 4 else ''} is below "
    f"the {CP_TOKEN_GATE} ultra-long-sequence threshold",
)

# The layout rules, in order: (passes, message) pairs called with (model,
# cluster, tp, cp, dp, tokens_batch), tokens_batch None when no bucket is
# given. Each is monotone in cp: a layout that breaks one breaks it at twice
# the cp too, dp the rest.
LAYOUT_RULES = (
    # The TP rule: a TP group sits inside one node, priced at intra_node_bw.
    (lambda m, c, tp, cp, dp, n: m.hidden_size % tp == 0,
     lambda m, c, tp, cp, dp, n: f"tp does not divide H ({m.hidden_size} % {tp} != 0)"),
    (lambda m, c, tp, cp, dp, n: m.num_heads % tp == 0,
     lambda m, c, tp, cp, dp, n: f"tp does not divide num_heads ({m.num_heads} % {tp} != 0)"),
    (lambda m, c, tp, cp, dp, n: c.devices_per_node % tp == 0,
     lambda m, c, tp, cp, dp, n:
     f"tp does not divide devices_per_node ({c.devices_per_node} % {tp} != 0)"),
    (lambda m, c, tp, cp, dp, n: tp * cp * dp <= c.total_devices,
     lambda m, c, tp, cp, dp, n:
     f"device overcommit: tp*cp*dp = {tp * cp * dp} exceeds cluster total {c.total_devices}"),
    (lambda m, c, tp, cp, dp, n: cp & (cp - 1) == 0,
     lambda m, c, tp, cp, dp, n: f"cp is not a power of two (cp={cp})"),
    CP_GATE,
)


def validate(arch: ModelArch, cluster: ClusterSpec, par: ParallelConfig) -> list[str]:
    """Cross-check a (model, cluster, parallel) triple: the model's own checks,
    then the :data:`LAYOUT_RULES` with no bucket given.

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
    layout = (arch, cluster, par.tp, par.cp, par.dp, None)
    return violations + [message(*layout) for passes, message in LAYOUT_RULES
                         if not passes(*layout)]


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
