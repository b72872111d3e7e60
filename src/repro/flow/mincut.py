"""Minimum s-t cut extraction — the operation natural cuts are made of.

``min_st_cut`` takes an undirected capacitated edge list, merges parallel
edges, runs a max-flow solver, and returns the cut value, the source-side
vertex mask, and the ids of the cut edges.  Backends:

- ``"scipy"`` — ``scipy.sparse.csgraph.maximum_flow`` (C Dinic) for
  capacities that pass :func:`c_solvable`: integral, with a total over both
  arc directions that fits in int32.  Other capacities raise ``ValueError``.
- ``"push_relabel"`` — the paper's solver (FIFO + global relabeling) in
  Python, for any non-negative capacities.
- ``"dinic"`` / ``"edmonds_karp"`` — Python reference solvers, the
  fallbacks of the natural-cut solve chain.
- ``"auto"`` (the default) — ``"scipy"`` when :func:`c_solvable` holds,
  ``"push_relabel"`` otherwise: chosen from the capacities alone.

One side convention (pinned by ``tests/test_flow_mincut_sides.py``): every
backend reads its side with the shared
:func:`~repro.flow.network.source_maximal_side`, the backward residual
search from ``t``, so the side is every vertex that cannot reach ``t`` in
the residual network.  Of all minimum s-t cuts this source-maximal one is
unique, so on integral capacities every backend returns the same value and
the same mask bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bfs_flow import dinic, edmonds_karp
from .network import FlowNetwork, source_maximal_side
from .push_relabel import max_preflow

__all__ = ["MinCutResult", "min_st_cut", "c_solvable", "SOLVERS"]

SOLVERS = ("push_relabel", "dinic", "edmonds_karp", "scipy")

_INT32_MAX = int(np.iinfo(np.int32).max)


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


def c_solvable(cap: np.ndarray) -> bool:
    """Whether scipy's C max flow solves a network with capacities ``cap`` exactly.

    It computes in int32: the capacities must be non-negative integers, and
    their total over both arc directions, which bounds every flow and
    residual capacity of the solve, must fit in int32.
    """
    return (
        bool(np.all(cap == np.floor(cap)) and np.all(cap >= 0))
        and 2 * float(cap.sum()) <= _INT32_MAX
    )


def _canonical_edges(n: int, edge_u, edge_v, cap):
    """One ``(lo, hi)`` edge per vertex pair in ascending order, parallel
    capacities summed, self-loops dropped.

    Natural-cut networks are built this way already and pass through as is.
    """
    lo = np.minimum(edge_u, edge_v)
    hi = np.maximum(edge_u, edge_v)
    key = lo * np.int64(n) + hi
    if np.all(lo < hi) and np.all(key[1:] > key[:-1]):
        return lo, hi, cap
    keep = lo != hi
    key, inv = np.unique(key[keep], return_inverse=True)
    merged = np.bincount(inv, weights=cap[keep], minlength=len(key))
    return key // n, key % n, merged


def _c_max_flow(net: FlowNetwork, s: int, t: int) -> tuple[float, np.ndarray]:
    """scipy's C max flow on ``net``; returns ``(value, per-arc flow)``.

    ``net`` must be built from canonical edges: then each of its rows lists
    every neighbour once in ascending order, the sorted CSR layout scipy
    takes as it is and returns its flows in.
    """
    # local import: scipy.sparse.csgraph doubles the time of `import repro`
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    order = net.adj_arcs
    graph = csr_matrix(
        (
            net.arc_cap[order].astype(np.int32),
            net.arc_to[order].astype(np.int32),
            net.adj_start.astype(np.int32),
        ),
        shape=(net.n, net.n),
    )
    res = maximum_flow(graph, s, t)
    if not np.array_equal(res.flow.indices, graph.indices):
        raise RuntimeError("scipy returned its flows in another arc layout")
    flow = np.empty(net.n_arcs, dtype=np.float64)
    flow[order] = res.flow.data
    return float(res.flow_value), flow


def min_st_cut(
    n: int,
    edge_u,
    edge_v,
    cap,
    s: int,
    t: int,
    solver: str = "auto",
) -> MinCutResult:
    """Compute a minimum s-t cut of an undirected capacitated graph."""
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    cap = np.asarray(cap, dtype=np.float64)
    if solver == "auto":
        solver = "scipy" if c_solvable(cap) else "push_relabel"
    elif solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS} or 'auto'")
    elif solver == "scipy" and not c_solvable(cap):
        raise ValueError("scipy backend requires integral capacities whose total fits in int32")

    net = FlowNetwork(n, *_canonical_edges(n, edge_u, edge_v, cap))
    if solver == "scipy":
        value, flow = _c_max_flow(net, s, t)
        side = source_maximal_side(net, flow, s, t)
    elif solver == "push_relabel":
        value, _, side = max_preflow(net, s, t)
    elif solver == "dinic":
        value, _, side = dinic(net, s, t)
    else:
        value, _, side = edmonds_karp(net, s, t)

    cut_edges = np.flatnonzero(side[edge_u] != side[edge_v]).astype(np.int64)
    return MinCutResult(value=value, source_side=side, cut_edges=cut_edges)
