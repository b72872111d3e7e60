"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import write_dimacs_gr, write_metis


@pytest.fixture
def gr_file(tmp_path, road_small):
    path = tmp_path / "road.gr"
    write_dimacs_gr(road_small, path)
    return str(path)


class TestInfo:
    def test_prints_stats(self, gr_file, capsys):
        assert main(["info", gr_file]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "components" in out

    def test_metis_format(self, tmp_path, road_small, capsys):
        path = tmp_path / "road.graph"
        write_metis(road_small, path)
        assert main(["info", str(path)]) == 0
        assert f"{road_small.n}" in capsys.readouterr().out

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "road.bin"
        path.write_text("")
        with pytest.raises(SystemExit):
            main(["info", str(path)])


class TestGenerate:
    def test_named_instance(self, tmp_path, capsys):
        out = tmp_path / "g.gr"
        assert main(["generate", "--name", "mini_like", "-o", str(out)]) == 0
        assert out.exists()

    def test_parametric(self, tmp_path):
        out = tmp_path / "g.graph"
        assert main(["generate", "--n", "500", "--seed", "3", "-o", str(out)]) == 0
        from repro.graph.io import read_metis

        g = read_metis(out)
        assert 300 <= g.n <= 700


class TestPartition:
    def test_partition_and_labels(self, gr_file, tmp_path, capsys):
        labels_path = tmp_path / "labels.txt"
        rc = main(
            ["partition", gr_file, "-U", "100", "--seed", "1", "-o", str(labels_path)]
        )
        assert rc == 0
        labels = np.loadtxt(labels_path, dtype=int)
        sizes = np.bincount(labels)
        assert sizes.max() <= 100
        assert "cells=" in capsys.readouterr().out


class TestExecutorFlags:
    def test_partition_executor_backends_agree(
        self, gr_file, tmp_path, capsys, monkeypatch
    ):
        """``--workers 2`` alone runs the work on 2 worker processes, no
        flag runs it inline, and both write identical labels."""
        import repro.core.punch as punch_mod
        from repro.core.config import ParallelConfig

        real_run_punch = punch_mod.run_punch
        runs = []

        def spy(g, U, cfg, **kwargs):
            res = real_run_punch(g, U, cfg, **kwargs)
            runs.append((cfg.parallel, res.parallel_report))
            return res

        monkeypatch.setattr(punch_mod, "run_punch", spy)
        paths = {}
        for pool in ([], ["--workers", "2"]):
            out = tmp_path / f"labels_{len(pool)}.txt"
            rc = main(
                [
                    "partition", gr_file, "-U", "100", "--seed", "1",
                    "--multistart", "3", *pool, "-o", str(out),
                ]
            )
            assert rc == 0
            paths[bool(pool)] = np.loadtxt(out, dtype=int)
        capsys.readouterr()
        assert np.array_equal(paths[False], paths[True])
        (inline_cfg, inline_report), (pool_cfg, pool_report) = runs
        assert inline_cfg is None and inline_report == {}
        assert pool_cfg == ParallelConfig(workers=2)
        assert pool_report["workers"] == 2 and pool_report["batches"] > 0

    def test_serial_executor_rejected(self, gr_file):
        with pytest.raises(SystemExit):
            main(["partition", gr_file, "-U", "100", "--executor", "serial"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "GRAPH", "-U", "100", "--executor", "processes"],
            ["balanced", "GRAPH", "-k", "3", "--executor", "threads"],
            ["replay", "GRAPH", "-U", "100", "--executor", "threads"],
            ["replay", "GRAPH", "-U", "100", "--workers", "2"],
        ],
    )
    def test_removed_pool_flags_rejected(self, gr_file, argv, capsys):
        """There is no executor kind to pick, and replay serves inline only:
        argparse rejects these flags (exit code 2) before any work runs."""
        with pytest.raises(SystemExit) as exc:
            main([gr_file if a == "GRAPH" else a for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_workers_rejected(self, gr_file):
        with pytest.raises(SystemExit, match="workers"):
            main(["partition", gr_file, "-U", "100", "--workers", "0"])


class TestBalanced:
    def test_balanced_run(self, gr_file, capsys):
        rc = main(
            [
                "balanced",
                gr_file,
                "-k",
                "3",
                "--phi",
                "8",
                "--rebalances",
                "2",
                "--seed",
                "0",
            ]
        )
        assert rc == 0
        assert "k=3" in capsys.readouterr().out
