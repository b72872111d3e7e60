"""Shared fixtures and graph-construction helpers for the test suite."""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro.graph import build_graph

#: ``REPRO_SANITIZE=1 pytest`` runs the whole suite under the runtime
#: sanitizer (frozen shared views, RNG parity, partition invariants) and
#: fails any test whose run recorded a violation — the CI sanitize shard
SANITIZE = os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0")


def pytest_configure(config):
    if SANITIZE:
        from repro.lint.sanitizer import get_sanitizer

        san = get_sanitizer()
        san.reset()
        san.enabled = True


@pytest.fixture(autouse=SANITIZE)
def _sanitizer_gate():
    """Per-test sanitizer gate (active only when REPRO_SANITIZE is set)."""
    from repro.lint.sanitizer import get_sanitizer

    san = get_sanitizer()
    san.violations.clear()
    yield
    if san.violations:
        detail = "; ".join(
            f"[{v.phase}] {v.kind}: {v.message}" for v in san.violations
        )
        san.violations.clear()
        pytest.fail(f"runtime sanitizer recorded violations: {detail}")


class TickClock:
    """A clock that advances a fixed step per read.

    Budgets built on it expire after a deterministic number of cooperative
    checkpoint calls — no wall-clock flakiness.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def make_graph(n, edges, weights=None, sizes=None, coords=None):
    """Build a graph from a list of (u, v) pairs."""
    u = np.asarray([e[0] for e in edges], dtype=np.int64)
    v = np.asarray([e[1] for e in edges], dtype=np.int64)
    return build_graph(n, u, v, weights=weights, sizes=sizes, coords=coords)


def path_graph(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    """Center 0, leaves 1..n-1."""
    return make_graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


def barbell(clique, bridge_len=1):
    """Two cliques of size ``clique`` joined by a path of ``bridge_len`` edges."""
    edges = list(itertools.combinations(range(clique), 2))
    off = clique
    edges += [(a + off, b + off) for a, b in itertools.combinations(range(clique), 2)]
    n = 2 * clique
    prev = 0
    for _ in range(bridge_len - 1):
        edges.append((prev, n))
        prev = n
        n += 1
    edges.append((prev, off))
    return make_graph(n, edges)


def random_connected_graph(n, extra_edges, seed):
    """Random tree plus ``extra_edges`` random chords; always connected."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.append((int(a), int(b)))
    return make_graph(n, edges)


def to_networkx(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edges():
        G.add_edge(u, v, weight=w)
    return G


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def road_small():
    """A small synthetic road network shared across tests."""
    from repro.synthetic import road_network

    return road_network(n_target=1200, n_cities=7, seed=42)


@pytest.fixture(scope="session")
def walls_grid():
    from repro.synthetic import grid_with_walls

    return grid_with_walls(12, 36, wall_cols=[11, 23])
