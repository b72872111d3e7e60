"""Minimum s-t cut extraction — the operation natural cuts are made of.

``min_st_cut`` takes an undirected capacitated edge list, runs a max-flow
solver, and returns the cut value, the source-side vertex mask, and the ids
of the cut edges.  Three backends:

- ``"push_relabel"`` — the paper's solver (FIFO + global relabeling), default.
- ``"dinic"`` / ``"edmonds_karp"`` — reference solvers for cross-checking.
- ``"scipy"`` — ``scipy.sparse.csgraph.maximum_flow`` (C implementation) for
  integer capacities; an engineering escape hatch when subproblems get big.

Side-extraction convention (pinned by ``tests/test_flow_mincut_sides.py``):
when the min cut is not unique, ``push_relabel`` returns the
**source-maximal** side (complement of the residual sink-reachable set)
while the other backends return the **source-minimal** side (residual BFS
from ``s``).  Each convention is deterministic, but masks differ across
backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bfs_flow import dinic, edmonds_karp
from .network import FlowNetwork
from .push_relabel import max_preflow

__all__ = ["MinCutResult", "min_st_cut", "SOLVERS"]

SOLVERS = ("push_relabel", "dinic", "edmonds_karp", "scipy")


@dataclass
class MinCutResult:
    """Result of a minimum s-t cut computation.

    Attributes
    ----------
    value : total capacity crossing the cut.
    source_side : boolean mask over vertices; ``True`` = s-side.
    cut_edges : indices (into the input edge list) of edges crossing the cut.
    """

    value: float
    source_side: np.ndarray
    cut_edges: np.ndarray


def _scipy_mincut(n, edge_u, edge_v, cap, s, t):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    icap = np.rint(cap).astype(np.int64)
    if not np.allclose(icap, cap):
        raise ValueError("scipy backend requires integer capacities")
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    data = np.concatenate([icap, icap])
    mat = csr_matrix((data, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    res = maximum_flow(mat, int(s), int(t))
    residual = mat - res.flow
    residual.data = (residual.data > 0).astype(np.int64)
    residual.eliminate_zeros()
    from scipy.sparse.csgraph import breadth_first_order

    try:
        order = breadth_first_order(residual, int(s), directed=True, return_predecessors=False)
    except Exception:  # pragma: no cover - isolated source corner case
        order = np.asarray([s])
    side = np.zeros(n, dtype=bool)
    side[order] = True
    return float(res.flow_value), side


def min_st_cut(
    n: int,
    edge_u,
    edge_v,
    cap,
    s: int,
    t: int,
    solver: str = "push_relabel",
) -> MinCutResult:
    """Compute a minimum s-t cut of an undirected capacitated graph."""
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    cap = np.asarray(cap, dtype=np.float64)
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")

    if solver == "scipy":
        value, side = _scipy_mincut(n, edge_u, edge_v, cap, s, t)
    else:
        net = FlowNetwork(n, edge_u, edge_v, cap)
        if solver == "push_relabel":
            value, _, side = max_preflow(net, s, t)
        elif solver == "dinic":
            value, _, side = dinic(net, s, t)
        else:
            value, _, side = edmonds_karp(net, s, t)

    cut_edges = np.flatnonzero(side[edge_u] != side[edge_v]).astype(np.int64)
    return MinCutResult(value=value, source_side=side, cut_edges=cut_edges)
