"""The local search of the assembly phase (paper Section 3, "Local Search").

A sequence of *reoptimization steps*.  Each step picks, uniformly at random,
a pair ``{R, S}`` of adjacent cells whose failure counter ``phi_RS`` is below
the budget ``phi``; it builds the auxiliary instance of the chosen variant
(L2 / L2+ / L2*), re-runs the randomized greedy on it, and accepts the
result iff the internal cut strictly improves.  On failure ``phi_RS`` is
incremented; on success the counters of all ``H``-edges with at least one
endpoint in an uncontracted region of the instance are reset to zero.  The
search stops when no pair with ``phi_RS < phi`` remains.

A pair is usually retried many times before it improves or runs out of
budget, so each pair's instance is built once and reused while every cell
it references is alive.  Reuse is exact: cells are immutable and their ids
are never reused, and :meth:`PartitionState.replace_cells` keeps the order
of the surviving ``H`` entries, so a live instance equals a fresh
:func:`build_aux_instance`, edge order included.  An improving step evicts
every instance that references a cell it destroyed, and a pair that runs
out of budget frees its own.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from ..perf.timers import profile_count
from .cells import PartitionState
from .greedy import greedy_assemble
from .instance import AuxInstance, build_aux_instance

__all__ = ["local_search", "LocalSearchStats"]

_EPS = 1e-9


class _RandomPairSet:
    """Set of cell pairs with O(1) insert/remove/uniform-sample."""

    def __init__(self) -> None:
        self.items: List[Tuple[int, int]] = []
        self.pos: Dict[Tuple[int, int], int] = {}

    def add(self, p: Tuple[int, int]) -> None:
        """Insert the pair if absent."""
        if p not in self.pos:
            self.pos[p] = len(self.items)
            self.items.append(p)

    def discard(self, p: Tuple[int, int]) -> None:
        """Remove the pair if present (O(1), swap-with-last)."""
        i = self.pos.pop(p, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def sample(self, rng: np.random.Generator) -> Tuple[int, int]:
        """One pair uniformly at random; ``IndexError`` when empty."""
        if not self.items:
            raise IndexError("sample from an empty pair set")
        return self.items[int(rng.integers(len(self.items)))]

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, p: Tuple[int, int]) -> bool:
        return p in self.pos


class LocalSearchStats:
    """Step/improvement counters of one local-search run."""
    def __init__(self) -> None:
        self.steps = 0
        self.improvements = 0
        self.initial_cost = 0.0
        self.final_cost = 0.0
        # pair instances built fresh / taken from the cache
        self.instances_built = 0
        self.instances_reused = 0


class _PairInstance:
    """A pair's auxiliary instance plus what each step reads from it."""

    __slots__ = ("aux", "adj", "cells", "sizes", "cost")

    def __init__(self, aux: AuxInstance) -> None:
        self.aux = aux
        self.adj = aux.adjacency()  # the greedy consumes a copy
        # the distinct cells the instance references
        self.cells = [int(c) for c in np.unique(aux.unit_cell)]
        self.sizes = aux.unit_sizes.tolist()
        self.cost = aux.current_internal_cost


def _pair_instance(
    cache: Dict[Tuple[int, int], _PairInstance],
    state: PartitionState,
    pair: Tuple[int, int],
    variant: str,
    stats: LocalSearchStats,
) -> _PairInstance:
    """The pair's instance: cached, or built and cached on first use."""
    inst = cache.get(pair)
    if inst is None:
        inst = cache[pair] = _PairInstance(build_aux_instance(state, *pair, variant))
        stats.instances_built += 1
    else:
        stats.instances_reused += 1
    return inst


def _canon(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def local_search(
    state: PartitionState,
    U: int,
    variant: str = "L2+",
    phi_max: int = 16,
    rng: np.random.Generator | None = None,
    score_a: float = 0.03,
    score_b: float = 0.6,
    max_steps: int | None = None,
    batch: int = 1,
) -> LocalSearchStats:
    """Improve ``state`` in place; returns step statistics.

    ``batch > 1`` enables the paper's speculative parallel scheme: several
    pairs are (independently) reoptimized per round and the improving moves
    are applied sequentially, each re-validated against the current state
    ("we try several pairs of regions simultaneously and, whenever an
    improving move is found, we make the corresponding change to the
    solution sequentially").  With ``batch=1`` the behavior is the plain
    sequential search.
    """
    if variant == "none":
        stats = LocalSearchStats()
        stats.initial_cost = stats.final_cost = state.cost
        return stats
    rng = np.random.default_rng(0) if rng is None else rng
    stats = LocalSearchStats()
    stats.initial_cost = state.cost

    phi: Dict[Tuple[int, int], int] = {}
    cache: Dict[Tuple[int, int], _PairInstance] = {}
    avail = _RandomPairSet()
    for p in state.adjacent_pairs():
        avail.add(p)

    while len(avail):
        if max_steps is not None and stats.steps >= max_steps:
            break
        # sample up to `batch` distinct live pairs
        pairs: List[Tuple[int, int]] = []
        seen = set()
        for _ in range(min(batch, len(avail)) * 2):
            # stale-pair discards below can empty the set mid-round
            if not len(avail) or len(pairs) >= min(batch, len(avail)):
                break
            R, S = avail.sample(rng)
            if (R, S) in seen:
                continue
            seen.add((R, S))
            if R not in state.H or S not in state.H or S not in state.H[R]:
                avail.discard((R, S))
                continue
            pairs.append((R, S))
        if not pairs:
            continue

        # speculative evaluation (independent; parallelizable)
        proposals = []
        for pair in pairs:
            inst = _pair_instance(cache, state, pair, variant, stats)
            groups = greedy_assemble(
                inst.sizes, list(map(dict.copy, inst.adj)), U, rng, score_a, score_b
            )
            proposals.append((pair, inst, groups))

        # sequential application with re-validation
        for (R, S), inst, groups in proposals:
            if R not in state.H or S not in state.H or S not in state.H[R]:
                continue  # invalidated by an earlier application this round
            # every cell the (possibly stale) instance references must still
            # exist; cell ids are never reused, so existence implies the
            # membership is exactly what the instance was built from
            if any(c not in state.cell_members for c in inst.cells):
                continue
            stats.steps += 1
            old_internal = inst.cost
            new_internal = inst.aux.internal_cost(groups)
            if new_internal < old_internal - _EPS:
                _apply(state, inst.aux, groups, phi, avail, cache)
                state.cost += new_internal - old_internal
                stats.improvements += 1
            else:
                p = _canon(R, S)
                phi[p] = phi.get(p, 0) + 1
                if phi[p] >= phi_max:
                    avail.discard(p)
                    # only pairs with a new cell are ever sampled again
                    cache.pop(p, None)

    stats.final_cost = state.cost
    profile_count("assembly.ls_instances_built", stats.instances_built)
    profile_count("assembly.ls_instances_reused", stats.instances_reused)
    return stats


def _apply(
    state: PartitionState,
    aux,
    groups: np.ndarray,
    phi: Dict[Tuple[int, int], int],
    avail: _RandomPairSet,
    cache: Dict[Tuple[int, int], _PairInstance],
) -> None:
    """Commit an improving reoptimization step to the partition state."""
    # groups -> new cells.  A contracted unit left alone keeps its old cell
    # id (its relations with the outside are untouched); everything else
    # gets a fresh id.
    by_group: Dict[int, List[int]] = {}
    for unit, grp in enumerate(groups):
        by_group.setdefault(int(grp), []).append(unit)

    destroyed: Set[int] = set()
    new_cells: Dict[int, List[int]] = {}
    touched_uncontracted_cells: List[int] = []
    for grp, units in by_group.items():
        if len(units) == 1 and not aux.uncontracted[units[0]]:
            continue  # untouched contracted neighbor cell
        frags: List[int] = []
        any_unc = False
        for u in units:
            frags.extend(aux.unit_frags[u])
            destroyed.add(int(aux.unit_cell[u]))
            if aux.uncontracted[u]:
                any_unc = True
        cid = state.fresh_cell_id()
        new_cells[cid] = frags
        if any_unc:
            touched_uncontracted_cells.append(cid)

    # uncontracted cells are always destroyed even if their fragments end up
    # regrouped exactly as before (fresh ids keep the bookkeeping simple);
    # make sure they are in `destroyed`
    for unit in range(len(groups)):
        if aux.uncontracted[unit]:
            destroyed.add(int(aux.unit_cell[unit]))

    state.replace_cells(destroyed, new_cells)

    # drop pairs that reference destroyed cells
    for p in list(avail.items):
        if p[0] in destroyed or p[1] in destroyed:
            avail.discard(p)
    for p in [q for q in phi if q[0] in destroyed or q[1] in destroyed]:
        del phi[p]
    for p in [q for q, inst in cache.items() if not destroyed.isdisjoint(inst.cells)]:
        del cache[p]

    # activate pairs around the new cells; reset counters of pairs touching
    # a cell that contains an uncontracted region (the paper's reset rule)
    for c in new_cells:
        for d in state.H[c]:
            avail.add(_canon(c, d))
    for c in touched_uncontracted_cells:
        for d in state.H[c]:
            p = _canon(c, d)
            phi.pop(p, None)
            avail.add(p)
