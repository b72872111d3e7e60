"""FIFO push-relabel max-flow (Goldberg–Tarjan), first phase only.

This is the solver the paper implements: "the version using FIFO order,
frequent global relabelings, and the *send* operation performs best"
(Section 5).  We reproduce exactly that configuration:

- **FIFO**: active vertices are processed from a queue; a discharged vertex
  that still has excess after a relabel is re-appended.
- **Frequent global relabeling**: exact distance labels are recomputed by a
  backward BFS from the sink after a work budget proportional to the arc
  count is exhausted.
- **Send / first phase only**: we compute a maximum *preflow* into ``t``,
  which already determines both the max-flow value and a minimum cut — the
  second phase (converting the preflow into a flow) is unnecessary for
  partitioning and is skipped, as in the paper's use.
- **Gap heuristic**: when some height ``0 < h < n`` becomes empty, every
  vertex above the gap is lifted to ``n`` (it can no longer reach ``t``).

At first-phase termination the minimum cut is ``(V \\ T*, T*)`` where ``T*``
is the set of vertices that can still reach ``t`` in the residual network —
the source-maximal minimum cut, read by the shared
:func:`~repro.flow.network.source_maximal_side`.
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np

from ..graph.csr import gather_csr_rows
from .network import FlowNetwork, source_maximal_side

__all__ = ["max_preflow", "global_relabel_reference"]


def _global_relabel(net: FlowNetwork, flow: np.ndarray, s: int, t: int) -> np.ndarray:
    """Exact residual distances to ``t`` (backward BFS); unreachable -> n.

    Level-synchronous frontier kernel: each distance level expands all of
    its vertices' incidence lists with one CSR gather.  BFS distances are
    order-independent, so the output is bit-identical to
    :func:`global_relabel_reference`.
    """
    n = net.n
    h = np.full(n, n, dtype=np.int64)
    h[t] = 0
    adj_start, adj_arcs, arc_to, arc_cap = (
        net.adj_start,
        net.adj_arcs,
        net.arc_to,
        net.arc_cap,
    )
    frontier = np.asarray([t], dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        arcs = gather_csr_rows(adj_start, adj_arcs, frontier)
        if len(arcs) == 0:
            break
        w = arc_to[arcs]
        # residual arc w -> u exists iff rev(a) = a^1 has residual capacity;
        # h[t] = 0 already excludes t from the h == n test
        keep = (h[w] == n) & (arc_cap[arcs ^ 1] - flow[arcs ^ 1] > 0)
        w = w[keep]
        if len(w) == 0:
            break
        frontier = np.unique(w)
        h[frontier] = d
    h[s] = n
    return h


def global_relabel_reference(
    net: FlowNetwork, flow: np.ndarray, s: int, t: int
) -> np.ndarray:
    """Scalar (deque) reference for the backward global-relabel BFS.

    Retained for equivalence tests and the hot-path benchmark.
    """
    n = net.n
    h = np.full(n, n, dtype=np.int64)
    h[t] = 0
    q = deque([t])
    adj_start, adj_arcs, arc_to, arc_cap = (
        net.adj_start,
        net.adj_arcs,
        net.arc_to,
        net.arc_cap,
    )
    while q:
        u = q.popleft()
        du = h[u]
        for a in adj_arcs[adj_start[u] : adj_start[u + 1]]:
            a = int(a)
            w = int(arc_to[a])
            # residual arc w -> u exists iff rev(a) = a^1 has residual capacity
            if h[w] == n and w != t and arc_cap[a ^ 1] - flow[a ^ 1] > 0:
                h[w] = du + 1
                q.append(w)
    h[s] = n
    return h


def max_preflow(
    net: FlowNetwork,
    s: int,
    t: int,
    global_relabel_work: float = 4.0,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Run first-phase FIFO push-relabel.

    Returns ``(value, flow, source_side)``: the max-flow value, per-arc flow
    (a preflow — conservation may fail off the cut), and a boolean mask of
    the min cut's source side.

    ``global_relabel_work``: a global relabel is triggered every
    ``global_relabel_work * n_arcs`` units of discharge work ("frequent
    global relabelings").
    """
    n = net.n
    if s == t:
        raise ValueError("source equals sink")
    flow = np.zeros(net.n_arcs, dtype=np.float64)
    adj_start, adj_arcs, arc_to, arc_cap = (
        net.adj_start,
        net.adj_arcs,
        net.arc_to,
        net.arc_cap,
    )
    excess = np.zeros(n, dtype=np.float64)
    h = _global_relabel(net, flow, s, t)
    cur = adj_start[:-1].astype(np.int64)  # current-arc pointers

    # height occupancy for the gap heuristic
    hcount = np.zeros(2 * n + 1, dtype=np.int64)
    hcount[: n + 1] = np.bincount(h, minlength=n + 1)

    active: deque = deque()
    in_queue = np.zeros(n, dtype=bool)

    def activate(v: int) -> None:
        if v != s and v != t and not in_queue[v] and h[v] < n:
            in_queue[v] = True
            active.append(v)

    # saturate all arcs out of the source
    for a in adj_arcs[adj_start[s] : adj_start[s + 1]]:
        a = int(a)
        c = arc_cap[a]
        if c > 0:
            flow[a] += c
            flow[a ^ 1] -= c
            excess[arc_to[a]] += c
            excess[s] -= c
            activate(int(arc_to[a]))

    work = 0.0
    work_budget = global_relabel_work * max(net.n_arcs, 1)

    while active:
        v = active.popleft()
        in_queue[v] = False
        # discharge v
        while excess[v] > 0 and h[v] < n:
            if cur[v] < adj_start[v + 1]:
                a = int(adj_arcs[cur[v]])
                w = int(arc_to[a])
                res = arc_cap[a] - flow[a]
                if res > 0 and h[v] == h[w] + 1:
                    # send
                    d = min(excess[v], res)
                    flow[a] += d
                    flow[a ^ 1] -= d
                    excess[v] -= d
                    excess[w] += d
                    activate(w)
                else:
                    cur[v] += 1
                    work += 1
            else:
                # relabel v to 1 + min over residual arcs
                old_h = h[v]
                new_h = 2 * n
                lo, hi = adj_start[v], adj_start[v + 1]
                for a in adj_arcs[lo:hi]:
                    a = int(a)
                    if arc_cap[a] - flow[a] > 0:
                        cand = h[arc_to[a]] + 1
                        if cand < new_h:
                            new_h = cand
                work += hi - lo
                hcount[old_h] -= 1
                # gap heuristic: a now-empty level below n strands everything
                # above it on the s-side
                if hcount[old_h] == 0 and 0 < old_h < n:
                    lifted = (h > old_h) & (h < n)
                    lifted[s] = False
                    lifted[t] = False
                    for u in np.flatnonzero(lifted):
                        hcount[h[u]] -= 1
                        h[u] = n
                        hcount[n] += 1
                    if new_h > old_h:  # v itself is above the gap
                        new_h = max(new_h, n)
                h[v] = min(new_h, 2 * n)
                hcount[h[v]] += 1
                cur[v] = adj_start[v]
                if h[v] >= n:
                    break
            if work >= work_budget:
                work = 0.0
                h = _global_relabel(net, flow, s, t)
                hcount[:] = 0
                hcount[: n + 1] = np.bincount(h, minlength=n + 1)
                cur[:] = adj_start[:-1]
                # rebuild the active queue under the new labels
                active.clear()
                in_queue[:] = False
                for u in np.flatnonzero(excess > 0):
                    activate(int(u))
                if not in_queue[v]:
                    break  # v was deactivated (now at height >= n)
        if excess[v] > 0 and h[v] < n:
            activate(v)

    return float(excess[t]), flow, source_maximal_side(net, flow, s, t)
