"""Named presets and the shipped reference configuration.

The "table2-fit" model preset carries dims inferred from the reference
per-layer accounting (hidden 3072, 24 heads) and a layer count fitted so
that per-block modulation layers add just over 3B parameters. These are
inferred values, not published ones; reports label them fitted.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .config import ClusterSpec, ModelArch, PlanningConfig, load_config

TABLE2_FIT_FITTED_FIELDS = ("hidden_size", "num_heads", "num_layers")

TABLE2_FIT = ModelArch(
    hidden_size=3072,
    num_heads=24,
    num_layers=54,
    ffn_multiplier=4,
    adaln_mode="per-block-dedicated",
    patch_t=1,
    patch_h=2,
    patch_w=2,
    param_count=13.4e9,
    extra_unpartitioned_layers=("patchify", "final_proj"),
)

# Two-node desk-scale cluster used by the reference config and the demos.
REFERENCE_CLUSTER = ClusterSpec(
    num_nodes=2,
    devices_per_node=8,
    device_mem=64e9,
    peak_flops_per_device=312e12,
    intra_node_bw=200e9,
    inter_node_bw=50e9,
    pcie_bw_per_device=25e9,
    host_write_bw_per_numa=80e9,
    devices_per_numa=4,
    host_mem=2e12,
)


def reference_config_path() -> Path:
    """Filesystem path of the shipped reference config JSON."""
    with resources.as_file(
        resources.files("ditplan.data").joinpath("reference_config.json")
    ) as path:
        return Path(path)


def load_reference_config() -> PlanningConfig:
    """The shipped reference planning config with fitted fields labeled."""
    return load_config(reference_config_path())._replace(fitted_fields=TABLE2_FIT_FITTED_FIELDS)
