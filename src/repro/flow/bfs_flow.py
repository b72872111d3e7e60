"""Augmenting-path max-flow solvers: Dinic and Edmonds–Karp.

These serve as independent reference implementations to cross-check the
push-relabel solver (the paper's production choice) in tests, and as the
fallbacks of the natural-cut solve chain.  Both read their cut side with
the shared :func:`~repro.flow.network.source_maximal_side`, so they return
the same source-maximal side as every other solver.
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np

from .network import FlowNetwork, source_maximal_side

__all__ = ["dinic", "edmonds_karp"]

_EPS = 1e-12


def _level_graph(net: FlowNetwork, flow: np.ndarray, s: int, t: int) -> np.ndarray:
    level = np.full(net.n, -1, dtype=np.int64)
    level[s] = 0
    q = deque([s])
    adj_start, adj_arcs, arc_to, arc_cap = (
        net.adj_start,
        net.adj_arcs,
        net.arc_to,
        net.arc_cap,
    )
    while q:
        u = q.popleft()
        for a in adj_arcs[adj_start[u] : adj_start[u + 1]]:
            a = int(a)
            w = int(arc_to[a])
            if level[w] < 0 and arc_cap[a] - flow[a] > _EPS:
                level[w] = level[u] + 1
                q.append(w)
    return level


def dinic(net: FlowNetwork, s: int, t: int) -> Tuple[float, np.ndarray, np.ndarray]:
    """Dinic's algorithm. Returns ``(value, flow, source_side)``."""
    if s == t:
        raise ValueError("source equals sink")
    flow = np.zeros(net.n_arcs, dtype=np.float64)
    adj_start, adj_arcs, arc_to, arc_cap = (
        net.adj_start,
        net.adj_arcs,
        net.arc_to,
        net.arc_cap,
    )
    value = 0.0
    while True:
        level = _level_graph(net, flow, s, t)
        if level[t] < 0:
            break
        it = adj_start[:-1].astype(np.int64)
        # iterative blocking-flow DFS
        while True:
            # find an augmenting path in the level graph
            path: list[int] = []
            v = s
            while v != t:
                advanced = False
                while it[v] < adj_start[v + 1]:
                    a = int(adj_arcs[it[v]])
                    w = int(arc_to[a])
                    if arc_cap[a] - flow[a] > _EPS and level[w] == level[v] + 1:
                        path.append(a)
                        v = w
                        advanced = True
                        break
                    it[v] += 1
                if not advanced:
                    if v == s:
                        path = []
                        break
                    # retreat: dead-end vertex; pop last arc and advance past it
                    level[v] = -1
                    a = path.pop()
                    v = int(arc_to[a ^ 1])
                    it[v] += 1
            if not path:
                break
            bottleneck = min(arc_cap[a] - flow[a] for a in path)
            for a in path:
                flow[a] += bottleneck
                flow[a ^ 1] -= bottleneck
            value += float(bottleneck)
    return value, flow, source_maximal_side(net, flow, s, t)


def edmonds_karp(net: FlowNetwork, s: int, t: int) -> Tuple[float, np.ndarray, np.ndarray]:
    """Edmonds–Karp (BFS augmenting paths). Returns ``(value, flow, side)``."""
    if s == t:
        raise ValueError("source equals sink")
    n = net.n
    flow = np.zeros(net.n_arcs, dtype=np.float64)
    adj_start, adj_arcs, arc_to, arc_cap = (
        net.adj_start,
        net.adj_arcs,
        net.arc_to,
        net.arc_cap,
    )
    value = 0.0
    pred = np.full(n, -1, dtype=np.int64)  # arc used to reach each vertex
    while True:
        pred[:] = -1
        pred[s] = -2
        q = deque([s])
        found = False
        while q and not found:
            u = q.popleft()
            for a in adj_arcs[adj_start[u] : adj_start[u + 1]]:
                a = int(a)
                w = int(arc_to[a])
                if pred[w] == -1 and arc_cap[a] - flow[a] > _EPS:
                    pred[w] = a
                    if w == t:
                        found = True
                        break
                    q.append(w)
        if not found:
            break
        # trace the path back and augment
        bottleneck = np.inf
        v = t
        while v != s:
            a = int(pred[v])
            bottleneck = min(bottleneck, arc_cap[a] - flow[a])
            v = int(arc_to[a ^ 1])
        v = t
        while v != s:
            a = int(pred[v])
            flow[a] += bottleneck
            flow[a ^ 1] -= bottleneck
            v = int(arc_to[a ^ 1])
        value += float(bottleneck)
    return value, flow, source_maximal_side(net, flow, s, t)
