"""Dedicated tests for the biased randomization and score edge cases."""

import numpy as np
import pytest

import repro.assembly.greedy as greedy_mod
from repro.assembly import biased_r, pair_score

from .conftest import make_graph


class TestBiasedREdgeCases:
    def test_a_zero_always_upper(self, rng):
        vals = [biased_r(rng, a=0.0, b=0.6) for _ in range(500)]
        assert all(v >= 0.6 for v in vals)

    def test_a_one_always_lower(self, rng):
        vals = [biased_r(rng, a=1.0, b=0.6) for _ in range(500)]
        assert all(v <= 0.6 for v in vals)

    def test_b_zero(self, rng):
        # lower branch degenerates to 0; upper covers [0, 1]
        vals = [biased_r(rng, a=0.5, b=0.0) for _ in range(500)]
        assert all(0 <= v <= 1 for v in vals)

    def test_b_one(self, rng):
        vals = [biased_r(rng, a=0.5, b=1.0) for _ in range(500)]
        assert all(0 <= v <= 1 for v in vals)

    def test_default_mean_reasonable(self, rng):
        # with a=0.03, b=0.6 the expectation is ~0.03*0.3 + 0.97*0.8 ~ 0.785
        vals = np.asarray([biased_r(rng) for _ in range(6000)])
        assert vals.mean() == pytest.approx(0.785, abs=0.03)


class TestPairScoreProperties:
    def test_positive(self, rng):
        assert pair_score(3.0, 5, 7, rng) > 0

    def test_symmetric_in_sizes(self, rng):
        # expectation symmetric under swapping s(u), s(v)
        a = np.mean([pair_score(1.0, 2, 8, rng) for _ in range(800)])
        b = np.mean([pair_score(1.0, 8, 2, rng) for _ in range(800)])
        assert a == pytest.approx(b, rel=0.1)

    def test_smaller_partner_dominates(self, rng):
        # sqrt(1/1) = 1 dominates sqrt(1/100) = 0.1: the small region drives
        # the score, implementing the paper's "higher importance to the
        # smaller region"
        small_pair = np.mean([pair_score(1.0, 1, 100, rng) for _ in range(500)])
        large_pair = np.mean([pair_score(1.0, 100, 100, rng) for _ in range(500)])
        assert small_pair > 3 * large_pair

    def test_greedy_inline_matches_module_distribution(self):
        """The greedy's stream of biased r values follows the same
        distribution as assembly.score.biased_r."""
        a, b = 0.03, 0.6
        nxt = greedy_mod._biased_stream(np.random.default_rng(0), a, b)
        vals = np.asarray([nxt() for _ in range(6000)])
        ref_rng = np.random.default_rng(1)
        ref = np.asarray([biased_r(ref_rng, a, b) for _ in range(6000)])
        assert vals.mean() == pytest.approx(ref.mean(), abs=0.02)
        assert (vals < b).mean() == pytest.approx((ref < b).mean(), abs=0.02)


def _grid(side):
    edges = [(i * side + j, i * side + j + 1) for i in range(side) for j in range(side - 1)]
    edges += [(i * side + j, (i + 1) * side + j) for i in range(side - 1) for j in range(side)]
    return make_graph(side * side, edges)


class TestGreedyRandomStream:
    """The greedy's score stream: its values and its RNG consumption."""

    CHUNK = 8192

    @pytest.mark.parametrize("a, b", [(0.03, 0.6), (0.0, 0.6), (1.0, 0.6), (0.5, 0.0), (0.2, 1.0)])
    def test_values_equal_the_scalar_fold(self, a, b):
        """Across a chunk boundary, every value is the scalar two-branch
        fold of the same uniform, bit for bit, as a Python float."""
        n = 2 * self.CHUNK + 5
        nxt = greedy_mod._biased_stream(np.random.default_rng(7), a, b)
        got = [nxt() for _ in range(n)]
        ref_rng = np.random.default_rng(7)
        u = np.concatenate([ref_rng.random(self.CHUNK) for _ in range(3)])[:n]
        c = (1.0 - b) / (1.0 - a) if a < 1.0 else 0.0
        want = [float(b * (x / a)) if x < a else float(b + (x - a) * c) for x in u]
        assert all(type(x) is float for x in got)
        assert got == want

    @pytest.mark.parametrize(
        "side, U",
        [(6, 1), (6, 8), (40, 400)],
        ids=["no-scores", "one-chunk", "three-chunks"],
    )
    def test_consumption_is_one_chunk_per_call_and_per_refill(self, monkeypatch, side, U):
        """After a call the generator has drawn ``rng.random(8192)`` once on
        entry and once per refill: ``max(1, ceil(scores / 8192))`` chunks."""
        scores = []
        stream = greedy_mod._biased_stream

        def counting_stream(rng, a, b):
            nxt = stream(rng, a, b)

            def counted():
                scores.append(1)
                return nxt()

            return counted

        monkeypatch.setattr(greedy_mod, "_biased_stream", counting_stream)
        g = _grid(side)
        rng = np.random.default_rng(3)
        greedy_mod.greedy_assemble(g.vsize, greedy_mod.adjacency_of_graph(g), U, rng)
        chunks = max(1, -(-len(scores) // self.CHUNK))
        ref = np.random.default_rng(3)
        for _ in range(chunks):
            ref.random(self.CHUNK)
        assert rng.bit_generator.state == ref.bit_generator.state
        if U == 1:
            assert not scores  # nothing fits, yet one chunk is drawn
        if side == 40:
            assert len(scores) > 2 * self.CHUNK
