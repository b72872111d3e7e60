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
    def test_partition_executor_backends_agree(self, gr_file, tmp_path, capsys):
        """No --executor flag, threads and processes write identical labels."""
        paths = {}
        for backend in (None, "threads", "processes"):
            out = tmp_path / f"labels_{backend}.txt"
            pool = [] if backend is None else ["--executor", backend, "--workers", "2"]
            rc = main(
                [
                    "partition", gr_file, "-U", "100", "--seed", "1",
                    "--multistart", "3", *pool, "-o", str(out),
                ]
            )
            assert rc == 0
            paths[backend] = np.loadtxt(out, dtype=int)
        capsys.readouterr()
        assert np.array_equal(paths[None], paths["threads"])
        assert np.array_equal(paths[None], paths["processes"])

    def test_serial_executor_rejected(self, gr_file):
        with pytest.raises(SystemExit):
            main(["partition", gr_file, "-U", "100", "--executor", "serial"])

    def test_invalid_workers_rejected(self, gr_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "partition", gr_file, "-U", "100",
                    "--executor", "threads", "--workers", "0",
                ]
            )


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
