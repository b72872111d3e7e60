"""Tiny-cut pass 2: contract chains of degree-2 vertices.

Paper, Section 2: "During the second pass, we identify all vertices of
degree 2. We contract each path they induce to a single vertex, unless its
total size exceeds U."

Road networks are full of such chains (roads between intersections).  A
maximal chain is found by walking outward from any unvisited degree-2
vertex; pure cycles (a whole component of degree-2 vertices) are handled as
well.  A chain larger than ``U`` stays as it is.

The production scan is vectorized: chain membership comes from one connected
-components call on the degree-2 subgraph, and the per-chain representative
(the scalar walk's ``chain[0]``) is recovered by stepping *all* chains
simultaneously, one frontier-at-a-time step per iteration.  It is
bit-identical to the retained scalar reference
(:func:`degree_two_labels_reference`) — same groups, same representatives,
same counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graph.graph import Graph

__all__ = ["degree_two_labels", "degree_two_labels_reference", "PathStats"]


@dataclass
class PathStats:
    """Counters from tiny-cut pass 2."""
    chains_found: int = 0
    chains_contracted: int = 0
    chains_skipped: int = 0
    vertices_removed: int = 0


def _walk(g: Graph, start: int, deg2: np.ndarray, visited: np.ndarray) -> List[int]:
    """Collect the maximal degree-2 chain through ``start`` (in path order)."""
    chain = [start]
    visited[start] = True
    for direction in range(2):
        prev = start
        nbrs = g.neighbors(start)
        if direction >= len(nbrs):
            break
        cur = int(nbrs[direction])
        while deg2[cur] and not visited[cur]:
            visited[cur] = True
            if direction == 0:
                chain.append(cur)
            else:
                chain.insert(0, cur)
            nxt = [int(w) for w in g.neighbors(cur) if int(w) != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        # `cur` is now an anchor (non-degree-2 / visited) vertex; not in chain
    return chain


def _chain_representatives(g: Graph, deg2: np.ndarray, starts: np.ndarray,
                           is_cycle: np.ndarray) -> np.ndarray:
    """The scalar walk's ``chain[0]`` for every chain, batch-walked.

    The scalar scan starts each chain at its minimum-id member and walks
    toward ``neighbors(start)[1]``; ``chain[0]`` is the last degree-2 vertex
    reached in that direction (or ``start`` itself when that direction
    immediately leaves the chain, or for cycles).  All walks advance in
    lockstep — chains are vertex-disjoint, so they never interfere.
    """
    xadj, adjncy = g.xadj, g.adjncy
    reps = starts.copy()
    # second neighbor of each start (every degree-2 vertex has exactly two)
    n1 = adjncy[xadj[starts] + 1].astype(np.int64)
    walking = deg2[n1] & ~is_cycle
    # cur/prev per active walk; `at` indexes back into reps
    at = np.flatnonzero(walking)
    cur = n1[at]
    prev = starts[at]
    while len(at):
        nb0 = adjncy[xadj[cur]].astype(np.int64)
        nb1 = adjncy[xadj[cur] + 1].astype(np.int64)
        nxt = np.where(nb0 == prev, nb1, nb0)
        done = ~deg2[nxt]  # cur is the endpoint on this side
        if done.any():
            reps[at[done]] = cur[done]
        cont = ~done
        at, prev, cur = at[cont], cur[cont], nxt[cont]
    return reps


def degree_two_labels(g: Graph, U: int) -> tuple[np.ndarray, PathStats]:
    """Compute contraction labels for pass 2. Returns ``(labels, stats)``."""
    labels = np.arange(g.n, dtype=np.int64)
    stats = PathStats()
    deg2 = g.degrees == 2
    members = np.flatnonzero(deg2)
    if len(members) == 0:
        return labels, stats

    # chain membership: connected components of the degree-2 subgraph
    emask = deg2[g.edge_u] & deg2[g.edge_v]
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as cc

    eu = g.edge_u[emask]
    ev = g.edge_v[emask]
    sub = csr_matrix(
        (np.ones(2 * len(eu), dtype=np.int8),
         (np.concatenate([eu, ev]), np.concatenate([ev, eu]))),
        shape=(g.n, g.n),
    )
    _, comp_all = cc(sub, directed=False)
    comp = comp_all[members]  # component id per degree-2 vertex
    # densify component ids over the degree-2 vertices only
    uniq, comp = np.unique(comp, return_inverse=True)
    n_chains = len(uniq)

    # per-chain: min-id member (the scalar scan's start), total size,
    # member count, and whether the chain is a pure cycle (#edges == #verts)
    order = np.argsort(comp, kind="stable")  # members ascending within chains
    sorted_members = members[order]
    counts = np.bincount(comp, minlength=n_chains)
    first = np.cumsum(counts) - counts
    starts = sorted_members[first]  # members is ascending, so first = min id
    sizes = np.bincount(comp, weights=g.vsize[members], minlength=n_chains)
    # map subgraph edges to dense chain ids (every such edge joins two
    # degree-2 vertices, hence lies inside one chain)
    edge_chain = np.searchsorted(uniq, comp_all[eu])
    edge_counts = np.bincount(edge_chain, minlength=n_chains)
    is_cycle = edge_counts >= counts

    reps = _chain_representatives(g, deg2, starts, is_cycle)

    contract = sizes <= U
    stats.chains_found = int(n_chains)
    stats.chains_contracted = int(np.count_nonzero(contract))
    stats.chains_skipped = int(n_chains - stats.chains_contracted)
    stats.vertices_removed = int((counts[contract] - 1).sum())

    # label every member of a contracted chain with its representative
    member_contract = contract[comp]
    labels[members[member_contract]] = reps[comp[member_contract]]
    return labels, stats


def degree_two_labels_reference(g: Graph, U: int) -> tuple[np.ndarray, PathStats]:
    """Scalar (walk-at-a-time) reference for :func:`degree_two_labels`.

    Retained for equivalence tests and the hot-path benchmark.
    """
    labels = np.arange(g.n, dtype=np.int64)
    stats = PathStats()
    deg = g.degrees
    deg2 = deg == 2
    visited = np.zeros(g.n, dtype=bool)

    for v in np.flatnonzero(deg2):
        v = int(v)
        if visited[v]:
            continue
        chain = _walk(g, v, deg2, visited)
        stats.chains_found += 1
        if int(g.vsize[chain].sum()) <= U:
            labels[chain] = chain[0]
            stats.chains_contracted += 1
            stats.vertices_removed += len(chain) - 1
        else:
            stats.chains_skipped += 1
    return labels, stats
