"""Customizable Route Planning on PUNCH partitions — the paper's use case."""

from .dijkstra import dijkstra
from .overlay import (
    CellTopology,
    Overlay,
    build_cell_topology,
    build_overlay,
    build_overlay_reference,
    customize_overlay,
    customize_overlay_reference,
)
from .multilevel import (
    MultiLevelOverlay,
    build_multilevel_overlay,
    ml_query,
)
from .query import crp_query

__all__ = [
    "dijkstra",
    "build_overlay",
    "build_overlay_reference",
    "build_cell_topology",
    "CellTopology",
    "customize_overlay",
    "customize_overlay_reference",
    "Overlay",
    "crp_query",
    "build_multilevel_overlay",
    "MultiLevelOverlay",
    "ml_query",
]
