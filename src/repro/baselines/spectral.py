"""Spectral bisection baseline (Fiedler vector).

The classic eigenvector-based partitioner: split at the median of the
second-smallest eigenvector of the graph Laplacian, recurse for k-way.
Uses ``scipy.sparse.linalg.eigsh`` on the (weighted) Laplacian.  Included
as the textbook comparator: it optimizes a relaxation of the cut and knows
nothing about natural cuts, so PUNCH should beat it on road networks.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..graph.subgraph import induced_subgraph

__all__ = ["fiedler_vector", "spectral_bisect", "spectral_partition"]


def fiedler_vector(g: Graph) -> np.ndarray:
    """The eigenvector of the second-smallest Laplacian eigenvalue."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    if g.n < 2:
        return np.zeros(g.n)
    rows = np.concatenate([g.edge_u, g.edge_v])
    cols = np.concatenate([g.edge_v, g.edge_u])
    data = np.concatenate([g.ewgt, g.ewgt])
    A = csr_matrix((data, (rows, cols)), shape=(g.n, g.n))
    deg = np.asarray(A.sum(axis=1)).ravel()
    from scipy.sparse import diags

    L = diags(deg) - A
    if g.n <= 3:
        vals, vecs = np.linalg.eigh(L.toarray())
        return vecs[:, 1]
    # shift-invert around 0 is fragile on disconnected graphs; plain
    # smallest-magnitude with a small regularizer is robust enough here.
    # ARPACK starts from a random vector unless given one, which made the
    # split (and the cut) change from run to run: start from a fixed one
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, g.n)
    vals, vecs = eigsh(L + 1e-9 * diags(np.ones(g.n)), k=2, which="SM", v0=v0)
    order = np.argsort(vals)
    return vecs[:, order[1]]


def spectral_bisect(g: Graph) -> np.ndarray:
    """Boolean side mask from the Fiedler vector's median split."""
    f = fiedler_vector(g)
    med = np.median(f)
    mask = f <= med
    # median ties can make one side empty on tiny graphs; fall back to a
    # half split of the sorted order
    if mask.all() or not mask.any():
        order = np.argsort(f, kind="stable")
        mask = np.zeros(g.n, dtype=bool)
        mask[order[: g.n // 2]] = True
    return mask


def spectral_partition(g: Graph, k: int) -> np.ndarray:
    """Recursive spectral bisection into ``k`` cells; returns labels."""
    labels = np.zeros(g.n, dtype=np.int64)
    next_label = [1]

    def recurse(vertices: np.ndarray, kk: int) -> None:
        if kk <= 1 or len(vertices) <= 1:
            return
        sub, sub_to_g, _ = induced_subgraph(g, vertices)
        mask = spectral_bisect(sub)
        k_left = kk // 2
        left = sub_to_g[mask]
        right = sub_to_g[~mask]
        new_label = next_label[0]
        next_label[0] += 1
        labels[right] = new_label
        recurse(left, k_left)
        recurse(right, kk - k_left)

    recurse(np.arange(g.n, dtype=np.int64), k)
    return labels
