"""Pluggable cut engines for natural-cut detection.

``repro.cutengine`` decides *which separating cut* is reported for each
contracted core/ring subproblem:

- :class:`~repro.cutengine.push_relabel.PushRelabelEngine` (default) — the
  paper's single min s-t cut; bit-identical to the pre-refactor behavior.
- :class:`~repro.cutengine.flowcutter.FlowCutterEngine` — the sparsest
  point of FlowCutter's Pareto front of (cut capacity, balance) (Hamann &
  Strasser, *Graph Bisection with Pareto-Optimization*).  The front itself
  is :func:`repro.flow.pareto.pareto_front`, which the FlowCutter baseline
  partitioner (``repro.baselines.flowcutter``) runs too.

Select with ``FilterConfig(cut_engine=...)`` or ``--cut-engine`` on the
CLI; see ``docs/CUT_ENGINES.md``.  Importing this package registers every
built-in engine; :func:`available_engines` is the axis the conformance
suite (``tests/test_cutengine_conformance.py``) parametrizes over.
"""

from .base import CutEngine
from .flowcutter import FlowCutterEngine
from .push_relabel import PushRelabelEngine
from .registry import available_engines, get_engine, register_engine

__all__ = [
    "CutEngine",
    "PushRelabelEngine",
    "FlowCutterEngine",
    "available_engines",
    "get_engine",
    "register_engine",
]
