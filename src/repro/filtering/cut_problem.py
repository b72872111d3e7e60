"""Construction of the contracted s-t min-cut subproblem for a natural cut.

Given a BFS region (tree ``T`` grown to size ``alpha*U``, its core, and its
ring — see paper Fig. 1), build the small instance on which the minimum cut
is computed: the core is contracted to the source ``s``, the ring to the
sink ``t``, the remaining tree vertices stay individual, and all edges among
``T ∪ ring`` are kept (edges internal to the core or internal to the ring
vanish; parallel edges merge for the flow network, but the original edge ids
are retained so the cut can be reported in terms of input edges).

The production builder is fully vectorized (one CSR gather over the tree
rows plus ``searchsorted`` endpoint mapping); the scalar reference is
retained as :func:`build_cut_problem_reference` for equivalence tests.  The
two builders produce identical flow networks; only the *order* of the
candidate-edge arrays differs (sorted vs. hash order), which no consumer
depends on.

``CutProblem.fingerprint`` is a canonical digest of the merged flow network
(vertex count, endpoints, capacities) — two regions that contract to the
same network have the same min-cut value and source side, so
:class:`~repro.perf.cut_cache.CutCache` keys on the fingerprint alone.

:func:`solve_cut_problem_sides` solves with ``min_st_cut(solver="auto")``:
scipy's C max flow when the capacities are integral and their total fits in
int32, the Python push-relabel otherwise (float weights from ``updates/``
deltas).  Every backend returns the source-maximal side, so the choice
never moves a cut.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..flow.mincut import min_st_cut
from ..graph.csr import gather_csr_rows
from ..graph.graph import Graph
from ..graph.traversal import BFSRegion

__all__ = [
    "CutProblem",
    "build_cut_problem",
    "build_cut_problem_reference",
    "solve_cut_problem",
    "solve_cut_problem_sides",
]

S_LOCAL = 0
T_LOCAL = 1


@dataclass
class CutProblem:
    """A contracted s-t min-cut instance.

    ``net_u/net_v/net_cap`` describe the merged flow network (local vertex 0
    is ``s`` = contracted core, local vertex 1 is ``t`` = contracted ring).
    ``cand_edges`` are the original-graph edge ids of all candidate edges
    (one entry per *original* edge between distinct local supernodes), with
    ``cand_lu/cand_lv`` their local endpoints — after solving, an original
    edge is in the natural cut iff its local endpoints land on opposite
    sides.
    """

    n_local: int
    net_u: np.ndarray
    net_v: np.ndarray
    net_cap: np.ndarray
    cand_edges: np.ndarray
    cand_lu: np.ndarray
    cand_lv: np.ndarray
    center: int = -1
    _fingerprint: bytes | None = field(default=None, repr=False, compare=False)

    def solve(self, solver: str = "auto") -> tuple[float, np.ndarray]:
        """Solve this instance; see :func:`solve_cut_problem`."""
        return solve_cut_problem(self, solver)

    def fingerprint(self) -> bytes:
        """Canonical digest of the merged flow network.

        Problems with equal fingerprints have identical min-cut values and
        source-side masks (the network is already canonical: ``np.unique``
        sorts the merged edges).  Memoized per instance.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.n_local).tobytes())
            h.update(np.ascontiguousarray(self.net_u, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.net_v, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.net_cap, dtype=np.float64).tobytes())
            self._fingerprint = h.digest()
        return self._fingerprint

    def cut_edges_of_side(self, source_side: np.ndarray) -> np.ndarray:
        """Original-graph cut edge ids under a local source-side mask."""
        in_cut = source_side[self.cand_lu] != source_side[self.cand_lv]
        return self.cand_edges[in_cut]


def build_cut_problem(g: Graph, region: BFSRegion, center: int = -1) -> CutProblem | None:
    """Build the contracted instance for one BFS region (vectorized).

    Returns ``None`` when the region has an empty ring (the BFS exhausted a
    connected component, so there is nothing to cut).
    """
    if region.exhausted:
        return None
    tree = region.tree
    core_count = region.core_count
    ring = region.ring
    n_local = 2 + (len(tree) - core_count)

    # every edge with both endpoints in T ∪ ring is incident to a tree
    # vertex, so one gather over the tree rows finds them all
    eids = np.unique(gather_csr_rows(g.xadj, g.eid, tree)).astype(np.int64)
    eu = g.edge_u[eids].astype(np.int64)
    ev = g.edge_v[eids].astype(np.int64)

    # local ids: core -> 0, ring -> 1, non-core tree vertices -> 2..
    verts = np.concatenate([tree, ring])
    labs = np.empty(len(verts), dtype=np.int64)
    labs[:core_count] = S_LOCAL
    labs[core_count : len(tree)] = 2 + np.arange(len(tree) - core_count, dtype=np.int64)
    labs[len(tree) :] = T_LOCAL
    order = np.argsort(verts, kind="stable")
    sv = verts[order]
    sl = labs[order]
    # both endpoints are guaranteed present in T ∪ ring (the ring is the
    # complete external neighborhood of the tree)
    lu = sl[np.searchsorted(sv, eu)]
    lv = sl[np.searchsorted(sv, ev)]

    keep = lu != lv  # drop edges internal to the core or to the ring
    cand_edges = eids[keep]
    cand_lu = lu[keep]
    cand_lv = lv[keep]

    return _assemble_problem(g, n_local, cand_edges, cand_lu, cand_lv, center)


def build_cut_problem_reference(
    g: Graph, region: BFSRegion, center: int = -1
) -> CutProblem | None:
    """Scalar (vertex-at-a-time) reference for :func:`build_cut_problem`.

    Retained for equivalence tests and the hot-path benchmark.  Produces the
    identical flow network; the candidate arrays may be ordered differently.
    """
    if region.exhausted:
        return None
    tree = region.tree
    core_count = region.core_count
    ring = region.ring

    # local ids: s=0, t=1, then non-core tree vertices 2..
    local = {}
    for v in tree[:core_count]:
        local[int(v)] = S_LOCAL
    for i, v in enumerate(tree[core_count:]):
        local[int(v)] = 2 + i
    for v in ring:
        local[int(v)] = T_LOCAL
    n_local = 2 + (len(tree) - core_count)

    # collect edges with both endpoints inside T ∪ ring, via the tree's
    # adjacency (every such edge is incident to a tree vertex)
    xadj, eid, edge_u, edge_v = g.xadj, g.eid, g.edge_u, g.edge_v
    eids = set()
    for v in tree:
        v = int(v)
        for idx in range(xadj[v], xadj[v + 1]):
            eids.add(int(eid[idx]))
    cand_edges = []
    cand_lu = []
    cand_lv = []
    # sorted: candidate order feeds min-cut tie-breaking downstream, so it
    # must be canonical, not hash-table order
    for e in sorted(eids):
        u = int(edge_u[e])
        w = int(edge_v[e])
        lu = local.get(u)
        lv = local.get(w)
        if lu is None or lv is None:
            continue  # leaves the region (tree -> outside beyond the ring? impossible; ring -> outside pruned here)
        if lu == lv:
            continue  # internal to the core or to the ring
        cand_edges.append(e)
        cand_lu.append(lu)
        cand_lv.append(lv)

    return _assemble_problem(
        g,
        n_local,
        np.asarray(cand_edges, dtype=np.int64),
        np.asarray(cand_lu, dtype=np.int64),
        np.asarray(cand_lv, dtype=np.int64),
        center,
    )


def _assemble_problem(g, n_local, cand_edges, cand_lu, cand_lv, center):
    """Merge parallel (local) edges into the flow network and wrap up."""
    lo = np.minimum(cand_lu, cand_lv)
    hi = np.maximum(cand_lu, cand_lv)
    key = lo * np.int64(n_local) + hi
    uniq, inv = np.unique(key, return_inverse=True)
    cap = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(cap, inv, g.ewgt[cand_edges])
    net_u = (uniq // n_local).astype(np.int64)
    net_v = (uniq % n_local).astype(np.int64)

    return CutProblem(
        n_local=int(n_local),
        net_u=net_u,
        net_v=net_v,
        net_cap=cap,
        cand_edges=cand_edges,
        cand_lu=cand_lu,
        cand_lv=cand_lv,
        center=center,
    )


def solve_cut_problem(p: CutProblem, solver: str = "auto") -> tuple[float, np.ndarray]:
    """Solve the min s-t cut; returns ``(cut_value, original_cut_edge_ids)``."""
    value, side = solve_cut_problem_sides(p, solver)
    return value, p.cut_edges_of_side(side)


def solve_cut_problem_sides(
    p: CutProblem, solver: str = "auto"
) -> tuple[float, np.ndarray]:
    """Solve the min s-t cut; returns ``(cut_value, source_side_mask)``.

    The mask is the source-maximal side over *local* vertices, whichever
    ``solver`` ran (see :func:`~repro.flow.mincut.min_st_cut`), so it is
    reusable for any problem with the same network fingerprint (see
    :class:`~repro.perf.cut_cache.CutCache`).
    """
    res = min_st_cut(p.n_local, p.net_u, p.net_v, p.net_cap, S_LOCAL, T_LOCAL, solver=solver)
    return res.value, res.source_side
