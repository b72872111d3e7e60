"""Randomized greedy contraction (paper Section 3, "Greedy Algorithm").

Repeatedly merge the best-scoring pair of adjacent vertices whose combined
size fits in ``U``; stop when no pair fits.  Scores live in a lazy-deletion
max-heap keyed by per-vertex version counters: merging a pair bumps both
versions, and stale heap entries are discarded on pop.  After a merge, the
scores of all edges incident to the new vertex are recomputed with fresh
randomization terms and re-pushed, exactly as the paper describes ("after a
contraction, it is recomputed — with fresh randomization terms — for all
edges incident to the contracted vertex").

The input is an adjacency-dict forest so that callers (multistart, local
search, combination) can hand in arbitrary auxiliary instances cheaply; use
:func:`adjacency_of_graph` to convert a :class:`~repro.graph.Graph`.

This is the hottest loop of the assembly phase (it runs once per
reoptimization step), so the inner code is deliberately low-level: the
biased randomization terms come from a stream of plain Python floats,
folded from blocks of uniforms in one vectorized step, and
``1/sqrt(size)`` values are cached per vertex.

RNG rule: a call draws ``rng.random(8192)`` on entry, whether or not it
scores anything, and one more such block each time a block runs out, so
the generator's state after a call depends only on how many scores it
needed.  Every caller's partitions depend on this rule.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, repeat
from typing import Callable, Dict, List

import numpy as np

from ..graph.graph import Graph

__all__ = ["adjacency_of_graph", "greedy_assemble", "greedy_labels_for_graph"]


#: uniforms drawn per ``rng.random`` call of the greedy's score stream
_CHUNK = 8192
#: uniforms folded into r values at a time (a greedy run on a local-search
#: instance needs about 200 scores, far fewer than a chunk)
_BLOCK = 256


def _biased_block(u: np.ndarray, a: float, b: float) -> List[float]:
    """The biased r of the uniforms ``u``, as Python floats.

    One uniform folded into the paper's two-branch distribution: with
    probability ``a``, ``r = b * (u / a)`` (uniform in ``[0, b]``);
    otherwise ``r = b + (u - a) * (1 - b) / (1 - a)`` (uniform in
    ``[b, 1]``).  Elementwise, these are the float operations of the scalar
    fold, so every value is bit-identical to it.
    """
    r = b + (u - a) * ((1.0 - b) / (1.0 - a) if a < 1.0 else 0.0)
    low = u < a  # empty when a = 0
    r[low] = b * (u[low] / a)
    return r.tolist()


def _biased_stream(rng: np.random.Generator, a: float, b: float) -> Callable[[], float]:
    """``next`` of an endless stream of biased r values drawn from ``rng``.

    The first chunk of uniforms is drawn here, on entry; each later chunk
    only when the previous one is used up.  Within a chunk, blocks are
    folded as they are reached.
    """
    chunks = chain((rng.random(_CHUNK),), map(rng.random, repeat(_CHUNK)))
    blocks = (
        _biased_block(u[i : i + _BLOCK], a, b)
        for u in chunks
        for i in range(0, _CHUNK, _BLOCK)
    )
    return chain.from_iterable(blocks).__next__


def adjacency_of_graph(g: Graph) -> List[Dict[int, float]]:
    """Adjacency as a list of ``{neighbor: weight}`` dicts.

    Iterates the edge arrays as plain Python scalars (one ``tolist`` each
    instead of ``3m`` NumPy scalar extractions); dict insertion order is the
    edge order, same as the per-edge indexing loop it replaces.
    """
    adj: List[Dict[int, float]] = [dict() for _ in range(g.n)]
    eu, ev, ew = g.edges_arrays()
    for u, v, w in zip(eu.tolist(), ev.tolist(), ew.tolist()):
        adj[u][v] = w
        adj[v][u] = w
    return adj


def greedy_assemble(
    sizes: np.ndarray,
    adj: List[Dict[int, float]],
    U: int,
    rng: np.random.Generator,
    score_a: float = 0.03,
    score_b: float = 0.6,
) -> np.ndarray:
    """Contract greedily; returns per-vertex group labels (root vertex ids).

    ``adj`` is consumed (mutated); pass a copy to keep the original.
    ``sizes`` (an array or a list) is copied internally.
    """
    size = np.asarray(sizes, dtype=np.int64).tolist()
    n = len(size)
    isq = [1.0 / math.sqrt(s) for s in size]
    parent = list(range(n))
    version = [0] * n
    biased = _biased_stream(rng, score_a, score_b)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    heap: List[tuple] = []
    for u in range(n):
        su, iu = size[u], isq[u]
        for v, w in adj[u].items():
            if u < v and su + size[v] <= U:
                heap.append((-(biased() * w * (iu + isq[v])), u, v, 0, 0))
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop

    while heap:
        _, u, v, vu, vv = pop(heap)
        if version[u] != vu or version[v] != vv:
            continue  # stale entry
        if size[u] + size[v] > U:
            continue
        # merge v into u (keep the larger adjacency to bound total work)
        if len(adj[v]) > len(adj[u]):
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        isq[u] = 1.0 / math.sqrt(size[u])
        version[u] += 1
        version[v] += 1
        adj_u = adj[u]
        adj_u.pop(v, None)
        for x, w in adj[v].items():
            if x == u:
                continue
            adj_u[x] = adj_u.get(x, 0.0) + w
            adj_x = adj[x]
            adj_x.pop(v, None)
            adj_x[u] = adj_u[x]
        adj[v] = {}
        # fresh scores for all edges incident to the merged vertex
        su, iu, vu = size[u], isq[u], version[u]
        for x, w in adj_u.items():
            if size[x] + su <= U:
                s = biased() * w * (iu + isq[x])
                if u < x:
                    push(heap, (-s, u, x, vu, version[x]))
                else:
                    push(heap, (-s, x, u, version[x], vu))

    # path-compress everything and report roots
    return np.array([find(i) for i in range(n)], dtype=np.int64)


def greedy_labels_for_graph(
    g: Graph,
    U: int,
    rng: np.random.Generator,
    score_a: float = 0.03,
    score_b: float = 0.6,
) -> np.ndarray:
    """Run the greedy directly on a :class:`Graph`; returns dense cell labels."""
    labels = greedy_assemble(g.vsize, adjacency_of_graph(g), U, rng, score_a, score_b)
    _, dense = np.unique(labels, return_inverse=True)
    return dense.astype(np.int64)
