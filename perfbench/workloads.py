"""The three workloads: ``coarse``, ``fine`` and ``serve``.

All three are closed loops with one caller on the ``mini_like`` road network
(576 vertices, 949 edges); nothing runs in parallel and no worker pool is
built.  The instance itself is fixed: generated from other seeds, its op
times varied 2.6x between seeds, far more than any bound could absorb.  The
workload seed drives the PUNCH and assembly seeds, the query pairs and the
weight profiles; fine's fragment graph and serve's writes are fixed.  A
*round* rebuilds its starting state from scratch (the set-up steps) and then
runs the workload's ops, so op *i* does identical work in every round and
its outputs must repeat exactly.

- ``coarse``: ``run_punch(g, U=160)`` for 12 PUNCH seeds.  Filtering (tiny
  cuts, natural cuts, flow, dispatch, cut cache) is most of an op, so
  changes to those layers show here.
- ``fine``: ``run_assembly(fragments, U=32)`` for 12 seeds, on the fixed
  fragment graph that set-up filters.  Greedy plus local search is almost
  all of an op; a filtering change moves only ``setup_s``.
- ``serve``: batches of 25 shortest-path queries on a CRP serving engine
  built from a fixed PUNCH partition at U=64, each batch preceded by a
  switch to one of four weight profiles (schedule 0,1,0,2,0,3; LRU capacity
  3), with one live update after every 10 batches, alternating weight-only
  and structural batches of about 12 edits (a fixed script).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from time import perf_counter as clock
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import repro.assembly.driver as assembly_driver
import repro.core.punch as punch
import repro.filtering.pipeline as pipeline
import repro.synthetic.roadnet as roadnet
from repro.core.config import AssemblyConfig, FilterConfig, PunchConfig
from repro.crp import dijkstra
from repro.graph.graph import Graph
from repro.serve import ServingConfig, ServingEngine
from repro.synthetic.instances import INSTANCE_PARAMS
from repro.updates.deltas import synthetic_delta_batch
from repro.updates.engine import UpdateConfig

from kernel import Clock
from spans import NullTracer

INSTANCE = "mini_like"


# ---------------------------------------------------------------------------
# correctness checks (independent of the program's own validators)
# ---------------------------------------------------------------------------


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def partition_faults(
    g: Graph, labels: np.ndarray, U: int, reported_cost: Optional[float], connected: bool
) -> List[str]:
    """What is wrong with ``labels`` as a partition of ``g`` (empty = nothing).

    A partition fails when a cell exceeds ``U``, when (with ``connected``) a
    cell is disconnected, or when its cut weight differs from the cost the
    program reported.
    """
    labels = np.asarray(labels, dtype=np.int64)
    faults = []
    sizes = np.bincount(labels, weights=g.vsize)
    if sizes.max(initial=0) > U:
        faults.append(f"cell of size {int(sizes.max())} exceeds U={U}")
    cut = labels[g.edge_u] != labels[g.edge_v]
    cost = float(g.ewgt[cut].sum())
    if reported_cost is not None and abs(cost - reported_cost) > 1e-9 * max(1.0, cost):
        faults.append(f"cut weight {cost} differs from reported cost {reported_cost}")
    if connected:
        keep = ~cut
        adj = coo_matrix(
            (np.ones(int(keep.sum())), (g.edge_u[keep], g.edge_v[keep])), shape=(g.n, g.n)
        )
        ncomp, _ = connected_components(adj, directed=False)
        cells = len(np.unique(labels))
        if ncomp != cells:
            faults.append(f"{ncomp - cells} cell(s) are disconnected")
    return faults


# ---------------------------------------------------------------------------
# round bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """Everything one round measured; times are ``(raw, normalized)`` seconds.

    ``ops[i]`` is the latency of op *i*, which does the same work in every
    round; each entry stands for ``weight`` primary ops (serve records one
    per-query time per batch of 25 queries).  ``other`` holds timed ops
    outside the latency set (serve's updates), charged to the mean.
    """

    setup: List[Tuple[float, float]] = field(default_factory=list)
    ops: List[Tuple[float, float]] = field(default_factory=list)
    other: List[Tuple[float, float]] = field(default_factory=list)
    weight: int = 1
    cut_weight: float = 0.0
    attempted: int = 0
    failed: int = 0
    faults: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)

    def total_norm(self) -> float:
        """Normalized seconds of every timed unit in the round."""
        return sum(n for _, n in self.setup) + sum(n for _, n in self.other) + \
            self.weight * sum(n for _, n in self.ops)

    def fail(self, what: str, faults: List[str]) -> None:
        self.failed += 1
        self.faults.extend(f"{what}: {f}" for f in faults)


class Workload:
    """One workload: derived parameters plus the code of one round."""

    name = ""
    salt = 0

    def __init__(self, seed: int, clock: Clock, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.clock = clock
        self.smoke = smoke
        self.tr: Any = NullTracer()
        self._rng = np.random.default_rng([abs(self.seed), self.salt])
        self.graph_params = INSTANCE_PARAMS[INSTANCE]
        # per-op outputs of the first round, which later rounds must repeat
        self.reference: Optional[Dict[Any, str]] = None

    def _draw(self, k: int = 0) -> Any:
        if k:
            return [int(x) for x in self._rng.integers(0, 2**31 - 1, size=k)]
        return int(self._rng.integers(0, 2**31 - 1))

    def params(self) -> dict:
        return {"workload": self.name, "instance": INSTANCE,
                "graph_params": asdict(self.graph_params), "smoke": self.smoke}

    def params_digest(self) -> str:
        return hashlib.sha256(json.dumps(self.params(), sort_keys=True).encode()).hexdigest()[:16]

    def timed(self, kind: str, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn`` as one bracketed unit (and one root span when traced)."""
        tr = self.tr

        def unit():
            with tr.op(kind):
                return fn()

        out, raw, norm = self.clock.timed(unit)
        tr.set_scale(norm / raw if raw > 0 else 1.0)
        return out, raw, norm

    def setup_step(self, rd: Round, kind: str, fn: Callable[[], Any]) -> Any:
        out, raw, norm = self.timed(kind, fn)
        rd.setup.append((raw, norm))
        return out

    def check(self, rd: Round, key: Any, value: str, what: str) -> None:
        """Compare an op's output digest with the first round's."""
        if self.reference is None:
            return
        if self.reference.get(key) != value:
            rd.fail(what, ["output differs from the first round's"])

    def run_round(self) -> Round:
        first = self.reference is None
        ref: Dict[Any, str] = {}
        rd = self.round(ref, first)
        if first:
            self.reference = ref
        return rd

    def round(self, ref: Dict[Any, str], first: bool) -> Round:
        raise NotImplementedError


class Coarse(Workload):
    name = "coarse"
    salt = 1
    U = 160

    def __init__(self, seed: int, clock: Clock, smoke: bool = False) -> None:
        super().__init__(seed, clock, smoke)
        self.punch_seeds = self._draw(2 if smoke else 12)

    def params(self) -> dict:
        return {**super().params(), "U": self.U, "punch_seeds": self.punch_seeds}

    def round(self, ref: Dict[Any, str], first: bool) -> Round:
        rd = Round()
        g = self.setup_step(rd, "setup.generate", lambda: roadnet.road_network(self.graph_params))
        costs = []
        for s in self.punch_seeds:
            rd.attempted += 1
            res, raw, norm = self.timed(
                "op.partition", lambda: punch.run_punch(g, self.U, PunchConfig(seed=s))
            )
            rd.ops.append((raw, norm))
            labels = res.partition.labels
            faults = partition_faults(
                g, labels, self.U, min(res.assembly_stats.iteration_costs), connected=True
            )
            if faults:
                rd.fail(f"run_punch seed {s}", faults)
            ref[s] = digest(labels)
            self.check(rd, s, ref[s], f"run_punch seed {s}")
            costs.append(res.partition.cost)
        rd.cut_weight = float(np.mean(costs))
        return rd


class Fine(Workload):
    name = "fine"
    salt = 2
    U = 32
    # the fragment graph is fixed like the instance it comes from: with a
    # seeded filtering seed, set-up and op times moved with the fragments
    FILTER_SEED = 0

    def __init__(self, seed: int, clock: Clock, smoke: bool = False) -> None:
        super().__init__(seed, clock, smoke)
        self.assembly_seeds = self._draw(2 if smoke else 12)

    def params(self) -> dict:
        return {**super().params(), "U": self.U, "filter_seed": self.FILTER_SEED,
                "assembly_seeds": self.assembly_seeds}

    def round(self, ref: Dict[Any, str], first: bool) -> Round:
        rd = Round()
        g = self.setup_step(rd, "setup.generate", lambda: roadnet.road_network(self.graph_params))
        filt = self.setup_step(
            rd,
            "setup.filter",
            lambda: pipeline.run_filtering(
                g, self.U, FilterConfig(), np.random.default_rng(self.FILTER_SEED)
            ),
        )
        frag = filt.fragment_graph
        costs = []
        for s in self.assembly_seeds:
            rd.attempted += 1
            res, raw, norm = self.timed(
                "op.assemble",
                lambda: assembly_driver.run_assembly(
                    frag, self.U, AssemblyConfig(), np.random.default_rng(s)
                ),
            )
            rd.ops.append((raw, norm))
            faults = partition_faults(frag, res.labels, self.U, res.cost, connected=True)
            if faults:
                rd.fail(f"run_assembly seed {s}", faults)
            ref[s] = digest(np.asarray(res.labels, dtype=np.int64))
            self.check(rd, s, ref[s], f"run_assembly seed {s}")
            costs.append(res.cost)
        rd.cut_weight = float(np.mean(costs))
        return rd


class Serve(Workload):
    name = "serve"
    salt = 3
    U = 64
    BATCH = 25
    GROUP = 10  # batches between two updates
    SCHEDULE = (0, 1, 0, 2, 0, 3)  # weight profile of consecutive batches
    LRU = 3
    EDITS = 12
    # The engine partition and the write script (delta batches and repair
    # seeds) are fixed; the seed drives the reads (query pairs, profiles).
    # Seeded writes made the final cut weight vary from 44 to 61 and the
    # mean repair time from 33 to 77 ms between seeds.
    ENGINE_SEED = 0
    WRITE_SEED = 0

    def __init__(self, seed: int, clock: Clock, smoke: bool = False) -> None:
        super().__init__(seed, clock, smoke)
        self.groups = 2 if smoke else 12
        self.query_seed, self.profile_seed = self._draw(2)

    def params(self) -> dict:
        return {**super().params(), "U": self.U, "batch": self.BATCH, "group": self.GROUP,
                "groups": self.groups, "schedule": self.SCHEDULE, "lru": self.LRU,
                "edits": self.EDITS, "engine_seed": self.ENGINE_SEED,
                "write_seed": self.WRITE_SEED,
                "seeds": [self.query_seed, self.profile_seed]}

    def profiles(self, g: Graph, epoch: int) -> List[np.ndarray]:
        """Four integer-valued weight profiles derived from the current weights.

        Profile ``p`` scales each edge by a seeded factor in 1..3 and adds
        ``p + 1``, so no profile equals another or the live metric.  In the
        steady state profile 0 then hits the LRU four times in five and the
        alternates always miss: 40% of batches hit, which keeps the median
        batch inside the slower (customizing) group instead of on the edge
        between the two groups.
        """
        rng = np.random.default_rng([self.profile_seed, epoch])
        factors = rng.integers(1, 4, size=(4, g.m))
        return [g.ewgt * factors[p] + (p + 1) for p in range(4)]

    def pairs(self, n: int, batch: int) -> Tuple[List[int], List[int]]:
        rng = np.random.default_rng([self.query_seed, batch])
        st = rng.integers(0, n, size=(2, self.BATCH))
        return st[0].tolist(), st[1].tolist()

    def round(self, ref: Dict[Any, str], first: bool) -> Round:
        rd = Round(weight=self.BATCH)
        U = self.U
        g = self.setup_step(rd, "setup.generate", lambda: roadnet.road_network(self.graph_params))
        res = self.setup_step(
            rd, "setup.partition", lambda: punch.run_punch(g, U, PunchConfig(seed=self.ENGINE_SEED))
        )
        eng = self.setup_step(
            rd,
            "setup.engine",
            lambda: ServingEngine.from_partition(
                res.partition, ServingConfig(metric_cache_entries=self.LRU)
            ),
        )
        updater = self.setup_step(
            rd,
            "setup.updates",
            lambda: eng.enable_updates(
                U, UpdateConfig(halo=0), PunchConfig(seed=self.WRITE_SEED)
            ),
        )

        cur = g
        profiles = self.profiles(cur, 0)
        for grp in range(self.groups):
            batches = []
            for j in range(self.GROUP):
                b = grp * self.GROUP + j
                src, dst = self.pairs(cur.n, b)
                batches.append((b, profiles[self.SCHEDULE[b % len(self.SCHEDULE)]], src, dst))
            rd.attempted += len(batches)
            times: List[float] = []

            def serve_group():
                out = []
                for _b, prof, src, dst in batches:
                    t0 = clock()
                    eng.customize(prof)
                    out.append(eng.query_batch(src, dst))
                    times.append(clock() - t0)
                return out

            answers, raw, norm = self.timed("op.queries", serve_group)
            scale = norm / raw
            rd.ops.extend((t / self.BATCH, t * scale / self.BATCH) for t in times)
            for (b, prof, src, dst), dist in zip(batches, answers):
                key = ("batch", b)
                ref[key] = digest(dist)
                if first:
                    faults = self.query_faults(cur, prof, src, dst, dist)
                    if faults:
                        rd.fail(f"query batch {b}", faults)
                self.check(rd, key, ref[key], f"query batch {b}")

            kind = "reweight" if grp % 2 == 0 else "mixed"
            delta = synthetic_delta_batch(cur, kind, count=self.EDITS, seed=self.WRITE_SEED + grp)
            rd.attempted += 1
            upd, raw, norm = self.timed("op.update", lambda: eng.apply_update(delta))
            rd.other.append((raw, norm))
            cur = upd.graph
            labels = upd.partition.labels
            faults = partition_faults(cur, labels, U, None, connected=False)
            if faults:
                rd.fail(f"update {grp}", faults)
            key = ("update", grp)
            ref[key] = digest(labels)
            self.check(rd, key, ref[key], f"update {grp}")
            profiles = self.profiles(cur, grp + 1)

        rd.cut_weight = float(updater.partition.cost)
        if self.tr.active:
            rd.counts.update(engine_counts(eng.stats()))
        return rd

    @staticmethod
    def query_faults(g: Graph, prof: np.ndarray, src, dst, dist) -> List[str]:
        """Compare every answer with plain Dijkstra under the profile."""
        gp = Graph(g.xadj, g.adjncy, g.eid, g.edge_u, g.edge_v, g.vsize, prof)
        faults = []
        for s, t, d in zip(src, dst, dist.tolist()):
            expect = dijkstra(gp, s, targets=[t])[0].get(t, float("inf"))
            if d != expect:
                faults.append(f"dist({s},{t}) = {d}, Dijkstra says {expect}")
        return faults


def engine_counts(stats: dict) -> Dict[str, float]:
    """Serving and update counters from ``ServingEngine.stats()``."""
    lru = stats["metric_cache"]
    lookups = lru["hits"] + lru["misses"]
    journal = stats["updates"].get("journal", {})
    return {
        "crp.customizations": stats["customizations"],
        "serve.queries": stats["queries"],
        "serve.settled_per_query": stats["settled_mean"],
        "serve.lru_lookups": lookups,
        "serve.lru_hit_ratio": lru["hits"] / lookups if lookups else 0.0,
        "updates.applied": journal.get("updates", 0),
        "updates.dirty_fraction": journal.get("dirty_fraction_mean", 0.0),
        "updates.fallbacks": journal.get("fallbacks", 0),
    }


WORKLOADS = {cls.name: cls for cls in (Coarse, Fine, Serve)}
