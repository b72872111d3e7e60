"""Immutable CSR graph kernel.

The whole library operates on :class:`Graph`: a simple, connected-or-not,
undirected graph stored in compressed sparse row (CSR) form with flat NumPy
arrays.  Every vertex carries a positive integer *size* ``s(v)`` and every
undirected edge a positive *weight* ``w(e)``, matching the problem statement
of the PUNCH paper (Section 1, Preliminaries).

Layout
------
- ``xadj``   : ``int64[n + 1]`` — half-edge offsets per vertex.
- ``adjncy`` : ``int32[2m]``    — neighbor vertex of each half-edge.
- ``eid``    : ``int32[2m]``    — undirected edge id of each half-edge.
- ``edge_u`` / ``edge_v`` : ``int32[m]`` — canonical endpoints (``u < v``).
- ``vsize``  : ``int64[n]``     — vertex sizes.
- ``ewgt``   : ``float64[m]``   — edge weights.
- ``coords`` : optional ``float64[n, 2]`` — planar embedding (synthetic
  generators provide one; PUNCH itself never requires it, but the inertial
  flow baseline does).

Instances are treated as immutable: all transformations (contraction,
subgraph extraction) build new ``Graph`` objects plus a vertex mapping.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """An undirected graph with vertex sizes and edge weights, in CSR form.

    Use :func:`repro.graph.builder.build_graph` (or ``Graph.from_edges``) to
    construct one from an edge list; the constructor itself expects already
    consistent CSR arrays and is mainly for internal use.
    """

    __slots__ = (
        "n",
        "m",
        "xadj",
        "adjncy",
        "eid",
        "edge_u",
        "edge_v",
        "vsize",
        "ewgt",
        "coords",
        "_half_ewgt",
    )

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        eid: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        vsize: np.ndarray,
        ewgt: np.ndarray,
        coords: Optional[np.ndarray] = None,
    ) -> None:
        self.n = int(len(xadj) - 1)
        self.m = int(len(edge_u))
        self.xadj = np.ascontiguousarray(xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(adjncy, dtype=np.int32)
        self.eid = np.ascontiguousarray(eid, dtype=np.int32)
        self.edge_u = np.ascontiguousarray(edge_u, dtype=np.int32)
        self.edge_v = np.ascontiguousarray(edge_v, dtype=np.int32)
        self.vsize = np.ascontiguousarray(vsize, dtype=np.int64)
        self.ewgt = np.ascontiguousarray(ewgt, dtype=np.float64)
        self.coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self._half_ewgt: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        n: int,
        edges,
        weights=None,
        sizes=None,
        coords=None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Self-loops are dropped and parallel edges merged (weights summed),
        exactly as the paper's contraction semantics require.
        """
        from .builder import build_graph  # local import to avoid a cycle

        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edges.size == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        u = edges[:, 0]
        v = edges[:, 1]
        return build_graph(n, u, v, weights=weights, sizes=sizes, coords=coords)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor vertices of ``v`` (one entry per incident edge)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def incident(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbors, edge_ids)`` of the half-edges leaving ``v``."""
        lo, hi = self.xadj[v], self.xadj[v + 1]
        return self.adjncy[lo:hi], self.eid[lo:hi]

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex."""
        return np.diff(self.xadj)

    def edge_endpoints(self, e: int) -> Tuple[int, int]:
        """Canonical ``(u, v)`` endpoints of edge ``e`` (u < v)."""
        return int(self.edge_u[e]), int(self.edge_v[e])

    def total_size(self) -> int:
        """Sum of all vertex sizes (the paper's n for U* purposes)."""
        return int(self.vsize.sum())

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.ewgt.sum())

    def half_edge_weights(self) -> np.ndarray:
        """Weight of each half-edge (``ewgt`` gathered by ``eid``).

        The gather is computed once and memoized (graphs are immutable);
        callers must not mutate the returned array.
        """
        if self._half_ewgt is None:
            self._half_ewgt = self.ewgt[self.eid]
        return self._half_ewgt

    def edges_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The undirected edge list as ``(edge_u, edge_v, ewgt)`` arrays.

        Vectorized accessor for hot paths; prefer this over the per-edge
        :meth:`edges` generator.
        """
        return self.edge_u, self.edge_v, self.ewgt

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over undirected edges as ``(u, v, w)`` tuples.

        Convenience accessor for tests and I/O; hot paths should use
        :meth:`edges_arrays` instead.
        """
        for u, v, w in zip(self.edge_u.tolist(), self.edge_v.tolist(), self.ewgt.tolist()):
            yield u, v, w

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, size={self.total_size()})"

    def check(self) -> None:
        """Validate structural invariants; raises ``AssertionError``.

        Intended for tests and debugging, not hot paths.
        """
        assert self.xadj.shape == (self.n + 1,)
        assert self.xadj[0] == 0 and self.xadj[-1] == 2 * self.m
        assert np.all(np.diff(self.xadj) >= 0)
        assert self.adjncy.shape == (2 * self.m,)
        assert self.eid.shape == (2 * self.m,)
        if self.m:
            assert self.adjncy.min() >= 0 and self.adjncy.max() < self.n
            assert self.eid.min() >= 0 and self.eid.max() < self.m
            assert np.all(self.edge_u < self.edge_v), "self-loops or non-canonical edges"
            assert np.all(self.ewgt > 0), "non-positive edge weight"
            # every undirected edge appears exactly twice as a half-edge
            assert np.all(np.bincount(self.eid, minlength=self.m) == 2)
            # half-edge endpoints agree with edge_u/edge_v
            src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.xadj))
            lo = np.minimum(src, self.adjncy)
            hi = np.maximum(src, self.adjncy)
            assert np.all(lo == self.edge_u[self.eid])
            assert np.all(hi == self.edge_v[self.eid])
        assert self.vsize.shape == (self.n,)
        assert np.all(self.vsize > 0), "non-positive vertex size"
        if self.coords is not None:
            assert self.coords.shape == (self.n, 2)
