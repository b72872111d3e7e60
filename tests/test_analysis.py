"""Tests for the analysis/measurement layer."""

import numpy as np
import pytest

from repro.analysis import aggregate, fmt, partition_stats, render_table
from repro.core import Partition

from .conftest import cycle_graph, make_graph


class TestAggregate:
    def test_basic(self):
        a = aggregate([3.0, 1.0, 2.0])
        assert a.best == 1.0
        assert a.worst == 3.0
        assert a.avg == pytest.approx(2.0)
        assert a.median == 2.0
        assert a.count == 3

    def test_empty(self):
        a = aggregate([])
        assert a.count == 0
        assert a.best != a.best  # NaN

    def test_single(self):
        a = aggregate([5.0])
        assert a.best == a.worst == a.avg == a.median == 5.0


class TestPartitionStats:
    def test_fields(self):
        g = cycle_graph(6)
        p = Partition(g, np.asarray([0, 0, 0, 1, 1, 1]))
        s = partition_stats(p)
        assert s.num_cells == 2
        assert s.cost == 2.0
        assert s.max_cell_size == 3
        assert s.min_cell_size == 3
        assert s.connected


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_fmt(self):
        assert fmt(3) == "3"
        assert fmt(3.0) == "3"
        assert fmt(3.14) == "3.1"
        assert fmt(float("nan")) == "-"
        assert fmt("s") == "s"
        assert fmt(12345.6) == "12346"


class TestExperimentDrivers:
    """Smoke tests for the experiment drivers on tiny instances."""

    def test_fig2_rows(self):
        from repro.analysis.experiments import fig2_filtering_reduction

        rows = fig2_filtering_reduction("mini_like", U_values=(32, 64))
        assert len(rows) == 2
        assert rows[0]["n_frag"] >= rows[1]["n_frag"]  # more reduction at larger U

    def test_fig1_anatomy(self):
        from repro.analysis.experiments import fig1_natural_cut_anatomy

        d = fig1_natural_cut_anatomy("mini_like", U=64)
        assert d["centers"] > 0
        assert d["core_size"].avg <= d["tree_size"].avg

    def test_table1_row_fields(self):
        from repro.analysis.experiments import render_table1, table1_unbalanced

        rows = table1_unbalanced(names=["mini_like"], U_values=(64,), runs=1)
        assert len(rows) == 1
        r = rows[0]
        assert r.lb <= r.cells_avg
        out = render_table1(rows)
        assert "mini_like" in out

    def test_executor_map(self):
        from repro.core.config import ParallelConfig
        from repro.parallel import ParallelRuntime, resilient_map

        assert resilient_map(lambda x: x + 1, [1, 2, 3])[0] == [2, 3, 4]
        with ParallelRuntime(ParallelConfig(workers=2)) as rt:
            results, report = resilient_map(abs, [-1, -2], parallel=rt)
        assert results == [1, 2]
        assert report.final_executor == "processes"
        with pytest.raises(TypeError):
            ParallelConfig(backend="gpu")
