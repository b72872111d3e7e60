"""Tests for experiment data structures and renderers (no heavy compute)."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    BalancedCell,
    BalancedTables,
    Table1Row,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)


def fake_balanced_tables():
    data = BalancedTables()
    data.instance_meta = {"a_like": (100, 150), "b_like": (200, 320)}
    for name in data.instance_meta:
        data.default[name] = {}
        data.strong[name] = {}
        for k in (2, 4):
            data.default[name][k] = BalancedCell(
                best=10.0 * k, median=12.0 * k, avg_time=1.5, runs=3, feasible_runs=3
            )
            data.strong[name][k] = BalancedCell(
                best=9.0 * k, median=11.0 * k, avg_time=4.5, runs=3, feasible_runs=3
            )
    return data


class TestRenderers:
    def test_table1_renders_all_rows(self):
        rows = [
            Table1Row(
                graph="g",
                U=64,
                lb=10,
                cells_avg=11.5,
                v_prime=500.0,
                best=100,
                avg=101,
                worst=102,
                t_tiny=0.1,
                t_natural=0.2,
                t_assembly=0.3,
                t_total=0.6,
            )
        ]
        out = render_table1(rows)
        assert "g" in out and "64" in out and "total" in out

    def test_table2_best_columns(self):
        out = render_table2(fake_balanced_tables(), ks=(2, 4))
        assert "a_like" in out and "b_like" in out
        assert "18" in out  # strong best at k=2 = 9*2

    def test_table3_default_medians(self):
        out = render_table3(fake_balanced_tables(), ks=(2, 4))
        assert "24" in out  # default median at k=2 = 12*2

    def test_table4_strong_medians(self):
        out = render_table4(fake_balanced_tables(), ks=(2, 4))
        assert "22" in out  # strong median at k=2 = 11*2

    def test_missing_k_tolerated(self):
        data = fake_balanced_tables()
        del data.strong["a_like"][4]
        out = render_table2(data, ks=(2, 4))
        assert "a_like" in out

    def test_nan_cells_render_as_dash(self):
        data = fake_balanced_tables()
        data.strong["a_like"][2] = BalancedCell(
            best=float("nan"), median=float("nan"), avg_time=float("nan"),
            runs=2, feasible_runs=0,
        )
        out = render_table2(data, ks=(2, 4))
        assert "-" in out


class TestUpdateExperimentsScript:
    def test_splice_and_idempotence(self, tmp_path, monkeypatch):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "update_experiments", Path("benchmarks/update_experiments.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        results = tmp_path / "results"
        results.mkdir()
        (results / "tbl.txt").write_text("HELLO TABLE\n")
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("before\n<!-- RESULT:tbl -->\nafter\n")
        monkeypatch.setattr(mod, "RESULTS", results)
        monkeypatch.setattr(mod, "DOC", doc)
        assert mod.main() == 0
        text = doc.read_text()
        assert "HELLO TABLE" in text and "```text" in text
        # idempotent: splicing again replaces, not duplicates
        (results / "tbl.txt").write_text("SECOND VERSION\n")
        mod.main()
        text = doc.read_text()
        assert "SECOND VERSION" in text and "HELLO TABLE" not in text
        assert text.count("```text") == 1

    def test_missing_result_keeps_marker(self, tmp_path, monkeypatch):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "update_experiments2", Path("benchmarks/update_experiments.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        results = tmp_path / "results"
        results.mkdir()
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("<!-- RESULT:absent -->\n")
        monkeypatch.setattr(mod, "RESULTS", results)
        monkeypatch.setattr(mod, "DOC", doc)
        mod.main()
        assert "<!-- RESULT:absent -->" in doc.read_text()


class TestExperimentSeeds:
    """Experiment runs draw the same streams in every process."""

    SCRIPT = (
        "from repro.analysis.experiments import experiment_rng\n"
        "keys = [('table1', 'luxembourg_like', 64, 0), ('balanced-filter', 'luxembourg_like', 2),\n"
        "        ('balanced-run', 'luxembourg_like', 2, 1, 32), ('ablation-filter', 'alpha', 0.5)]\n"
        "print([int(experiment_rng(0, *k).integers(2**31)) for k in keys])\n"
        "print(hash(('luxembourg_like', 2)))\n"
    )

    def _run(self, hash_seed: str):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        seeds, salted = out.stdout.splitlines()
        return seeds, salted

    def test_same_seeds_under_different_hash_salts(self):
        seeds_a, salted_a = self._run("1")
        seeds_b, salted_b = self._run("2")
        assert salted_a != salted_b  # the salt does change hash()
        assert seeds_a == seeds_b

    def test_key_items_change_the_stream(self):
        from repro.analysis.experiments import experiment_rng

        draws = {
            int(experiment_rng(seed, *key).integers(2**63))
            for seed, key in [(0, ("a", 1)), (1, ("a", 1)), (0, ("a", 2)), (0, ("b", 1))]
        }
        assert len(draws) == 4
