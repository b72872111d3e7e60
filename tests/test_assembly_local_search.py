"""Unit tests for the auxiliary instances and the L2/L2+/L2* local search."""

import importlib

import numpy as np
import pytest

from repro.assembly import (
    PartitionState,
    build_aux_instance,
    greedy_labels_for_graph,
    local_search,
)
from repro.assembly.local_search import _RandomPairSet
from repro.synthetic.instances import instance

from .conftest import cycle_graph, make_graph, random_connected_graph


class TestRandomPairSet:
    def test_add_discard_sample(self, rng):
        s = _RandomPairSet()
        s.add((1, 2))
        s.add((3, 4))
        assert len(s) == 2
        assert s.sample(rng) in [(1, 2), (3, 4)]
        s.discard((1, 2))
        assert len(s) == 1
        assert s.sample(rng) == (3, 4)

    def test_discard_missing_is_noop(self):
        s = _RandomPairSet()
        s.add((1, 2))
        s.discard((9, 9))
        assert len(s) == 1

    def test_no_duplicates(self):
        s = _RandomPairSet()
        s.add((1, 2))
        s.add((1, 2))
        assert len(s) == 1


def chain_partition(n_cells, cell_len):
    """Path graph partitioned into consecutive runs."""
    n = n_cells * cell_len
    g = make_graph(n, [(i, i + 1) for i in range(n - 1)])
    labels = np.repeat(np.arange(n_cells), cell_len)
    return g, PartitionState(g, labels)


class TestBuildAuxInstance:
    def test_l2_units_are_fragments_of_pair(self):
        g, state = chain_partition(4, 3)
        pairs = state.adjacent_pairs()
        R, S = pairs[0]
        aux = build_aux_instance(state, R, S, "L2")
        assert len(aux.unit_sizes) == 6
        assert aux.uncontracted.all()

    def test_l2plus_adds_contracted_neighbors(self):
        g, state = chain_partition(4, 3)
        # middle pair has neighbors on both sides
        R, S = sorted(state.adjacent_pairs())[1]
        aux = build_aux_instance(state, R, S, "L2+")
        assert (~aux.uncontracted).sum() >= 1  # at least one contracted unit
        # contracted units carry whole-cell sizes
        for i in np.flatnonzero(~aux.uncontracted):
            assert aux.unit_sizes[i] == 3

    def test_l2star_uncontracts_neighbors(self):
        g, state = chain_partition(4, 3)
        R, S = sorted(state.adjacent_pairs())[1]
        aux = build_aux_instance(state, R, S, "L2*")
        assert aux.uncontracted.all()
        assert len(aux.unit_sizes) >= 9  # pair + at least one neighbor cell

    def test_internal_cost_counts_cut_only(self):
        g, state = chain_partition(3, 2)
        R, S = sorted(state.adjacent_pairs())[0]
        aux = build_aux_instance(state, R, S, "L2")
        assert aux.current_internal_cost == 1.0  # one edge between R and S

    def test_unknown_variant_rejected(self):
        g, state = chain_partition(3, 2)
        R, S = state.adjacent_pairs()[0]
        with pytest.raises(ValueError):
            build_aux_instance(state, R, S, "L3")

    def test_edges_cover_cross_pair_edges(self):
        g = cycle_graph(8)
        state = PartitionState(g, np.asarray([0, 0, 1, 1, 2, 2, 3, 3]))
        R, S = 0, 1
        aux = build_aux_instance(state, R, S, "L2")
        # cycle edge (1,2) crosses R-S; edge (7,0) and (3,4) leave the pair
        assert aux.current_internal_cost == 1.0


class TestLocalSearch:
    def test_improves_bad_partition(self):
        """A deliberately bad split of a two-cluster graph must improve."""
        from .conftest import barbell

        g = barbell(6)
        # bad: interleaved labels
        bad = np.asarray([0, 1] * 6)
        state = PartitionState(g, bad)
        before = state.cost
        stats = local_search(state, U=6, variant="L2", phi_max=8, rng=np.random.default_rng(0))
        assert state.cost < before
        state.check()

    @pytest.mark.parametrize("variant", ["L2", "L2+", "L2*"])
    def test_respects_U(self, variant):
        g = random_connected_graph(40, 30, seed=2)
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 10, size=g.n)
        state = PartitionState(g, labels)
        local_search(state, U=8, variant=variant, phi_max=4, rng=rng)
        # note: initial random cells may exceed U; reoptimized ones may not
        # grow beyond it -- check no cell exceeds max(U, initial max)
        init_max = int(
            np.bincount(labels, weights=g.vsize).max()
        )
        assert state.max_cell_size() <= max(8, init_max)

    @pytest.mark.parametrize("variant", ["L2", "L2+", "L2*"])
    def test_state_consistent_after_search(self, variant):
        g = random_connected_graph(35, 25, seed=5)
        rng = np.random.default_rng(4)
        from repro.assembly import greedy_labels_for_graph

        labels = greedy_labels_for_graph(g, 8, rng)
        state = PartitionState(g, labels)
        local_search(state, U=8, variant=variant, phi_max=4, rng=rng)
        state.check()

    def test_none_variant_noop(self):
        g = cycle_graph(6)
        state = PartitionState(g, np.asarray([0, 0, 1, 1, 2, 2]))
        stats = local_search(state, U=3, variant="none", phi_max=4)
        assert stats.steps == 0
        assert state.cost == 3.0

    def test_phi_bounds_failures(self):
        """With phi=1, each pair is tried at most ~once before exclusion."""
        g = cycle_graph(12)
        state = PartitionState(g, np.repeat(np.arange(4), 3))
        stats = local_search(state, U=3, variant="L2", phi_max=1, rng=np.random.default_rng(0))
        # 4 adjacent pairs on the cycle of cells; U=3 forbids merges, so all
        # steps fail and each pair fails at most once
        assert stats.steps <= 8

    def test_max_steps_cutoff(self):
        g = random_connected_graph(30, 20, seed=7)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 8, size=g.n)
        state = PartitionState(g, labels)
        stats = local_search(state, U=6, phi_max=64, rng=rng, max_steps=5)
        assert stats.steps <= 5

    def test_cost_never_increases(self):
        g = random_connected_graph(40, 35, seed=9)
        rng = np.random.default_rng(2)
        from repro.assembly import greedy_labels_for_graph

        labels = greedy_labels_for_graph(g, 10, rng)
        state = PartitionState(g, labels)
        before = state.cost
        local_search(state, U=10, phi_max=8, rng=rng)
        assert state.cost <= before + 1e-9
        assert state.cost == pytest.approx(state.recompute_cost())


class TestInstanceCache:
    """Every reused pair instance equals a fresh build on the current state."""

    @staticmethod
    def _assert_same(inst, fresh):
        aux = inst.aux
        for name in ("edge_a", "edge_b", "edge_w", "unit_sizes", "unit_cell", "uncontracted"):
            got, want = getattr(aux, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name  # same values, same order
        assert aux.unit_frags == fresh.unit_frags
        # the greedy's RNG order follows the adjacency's insertion order
        want_adj = [list(d.items()) for d in fresh.adjacency()]
        assert [list(d.items()) for d in inst.adj] == want_adj
        assert inst.sizes == fresh.unit_sizes.tolist()
        assert inst.cost == fresh.current_internal_cost
        assert inst.cells == sorted({int(c) for c in fresh.unit_cell})

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("variant", ["L2", "L2+", "L2*"])
    def test_reused_instance_equals_fresh_build(self, monkeypatch, variant, batch):
        # the package re-exports the function under the module's name
        ls_mod = importlib.import_module("repro.assembly.local_search")
        checked = []
        lookup = ls_mod._pair_instance

        def checking_lookup(cache, state, pair, variant_, stats):
            reused = pair in cache
            inst = lookup(cache, state, pair, variant_, stats)
            if reused:
                self._assert_same(inst, build_aux_instance(state, *pair, variant_))
                checked.append(pair)
            return inst

        monkeypatch.setattr(ls_mod, "_pair_instance", checking_lookup)
        g = instance("mini_like")
        rng = np.random.default_rng(0)
        state = PartitionState(g, greedy_labels_for_graph(g, 32, rng))
        stats = local_search(state, 32, variant=variant, rng=rng, batch=batch)
        state.check()
        assert stats.improvements >= 10
        assert len(checked) == stats.instances_reused > 0
        assert stats.instances_built + stats.instances_reused >= stats.steps
