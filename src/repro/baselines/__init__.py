"""Baseline partitioners PUNCH is compared against."""

from .buffoon import buffoon_partition_U, buffoon_partition_k
from .flowcutter import flowcutter_bisect, flowcutter_partition
from .fm import fm_refine
from .inertial_flow import inertial_bisect, inertial_flow_partition
from .matching import heavy_edge_matching
from .multilevel import coarsen, multilevel_partition_U, multilevel_partition_k
from .region_growing import region_growing_partition
from .spectral import fiedler_vector, spectral_bisect, spectral_partition

__all__ = [
    "multilevel_partition_U",
    "multilevel_partition_k",
    "coarsen",
    "heavy_edge_matching",
    "fm_refine",
    "inertial_flow_partition",
    "inertial_bisect",
    "region_growing_partition",
    "buffoon_partition_U",
    "buffoon_partition_k",
    "flowcutter_bisect",
    "flowcutter_partition",
    "spectral_bisect",
    "spectral_partition",
    "fiedler_vector",
]
