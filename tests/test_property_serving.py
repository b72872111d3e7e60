"""Property test: every query path agrees with plain Dijkstra, exactly.

Fifty seeded random instances; on each, ``crp_query``, ``ml_query``, and
the two-level serving engine (cold cache, warm cache, batched) must
answer the *exact* float that a plain whole-graph Dijkstra answers.

Exactness across different search orders is only guaranteed when float
addition is associative over the weights involved, so the instances use
integer-valued float weights: path sums stay far below 2**53, every sum
is exactly representable, and any grouping of additions yields the same
bits.  With arbitrary float weights the overlay's clique-collapsed sums
could legitimately differ from Dijkstra in the last ulp — that would not
be a bug, which is why the property pins the integer-weight regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nested import run_nested_punch
from repro.core.punch import run_punch
from repro.crp import (
    build_multilevel_overlay,
    build_overlay,
    crp_query,
    dijkstra,
    ml_query,
)
from repro.graph import build_graph
from repro.serve import ServingConfig, ServingEngine

N_INSTANCES = 50
QUERIES_PER_INSTANCE = 6


def _instance(seed: int):
    """Random connected graph with integer-valued float weights."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(30, 90))
    extra = int(rng.integers(10, 60))
    u = [int(rng.integers(0, i)) for i in range(1, n)]
    v = list(range(1, n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            u.append(int(a))
            v.append(int(b))
    w = rng.integers(1, 100, size=len(u)).astype(np.float64)
    g = build_graph(n, np.asarray(u), np.asarray(v), weights=w)
    U = int(rng.integers(6, max(7, n // 3)))
    pairs = [
        (int(rng.integers(0, n)), int(rng.integers(0, n)))
        for _ in range(QUERIES_PER_INSTANCE)
    ]
    return g, U, pairs, rng


def _exact(expected: float, got: float) -> bool:
    if np.isinf(expected):
        return np.isinf(got)
    return expected == got


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_all_query_paths_match_plain_dijkstra(seed):
    g, U, pairs, rng = _instance(seed)
    res = run_punch(g, U)
    overlay = build_overlay(res.partition)
    eng = ServingEngine(overlay, ServingConfig(metric_cache_entries=2))

    # one alternate integer metric for the cold/warm customization legs
    w2 = rng.integers(1, 100, size=g.m).astype(np.float64)
    g2 = build_graph(
        g.n, g.edge_u, g.edge_v, weights=w2
    )

    for s, t in pairs:
        ref, _ = dijkstra(g, s, targets=[t])
        expected = ref.get(t, float("inf"))
        assert _exact(expected, crp_query(overlay, s, t)[0])
        assert _exact(expected, eng.query(s, t)[0])

    # batched serving, base metric
    S = [p[0] for p in pairs]
    T = [p[1] for p in pairs]
    batch = eng.query_batch(S, T)
    for i, (s, t) in enumerate(pairs):
        ref, _ = dijkstra(g, s, targets=[t])
        assert _exact(ref.get(t, float("inf")), float(batch[i]))

    # cold customization to the alternate metric
    assert eng.customize(w2) is False
    cold = eng.query_batch(S, T)
    # ... displace and return: the warm (LRU-hit) leg must not change bits
    eng.customize(g.ewgt)
    assert eng.customize(w2) is True
    warm = eng.query_batch(S, T)
    assert np.array_equal(cold, warm)
    for i, (s, t) in enumerate(pairs):
        ref2, _ = dijkstra(g2, s, targets=[t])
        assert _exact(ref2.get(t, float("inf")), float(cold[i]))


@pytest.mark.parametrize("seed", range(0, N_INSTANCES, 5))
def test_multilevel_paths_match_plain_dijkstra(seed):
    g, U, pairs, rng = _instance(seed)
    nested = run_nested_punch(g, [max(4, U // 2), U])
    mlo = build_multilevel_overlay(nested)
    for s, t in pairs:
        ref, _ = dijkstra(g, s, targets=[t])
        assert _exact(ref.get(t, float("inf")), ml_query(mlo, s, t)[0])
