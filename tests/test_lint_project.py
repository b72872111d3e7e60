"""Whole-project analysis tests: call graph, dataflow, contracts, layering.

Fixture projects are materialized under ``tmp_path`` so each rule is
validated in both directions — a hazard is flagged, and the sanctioned
spelling stays clean.  The last class runs the analyzer over the real
``src/repro`` tree, which must stay clean (modulo the checked-in baseline).
"""

from pathlib import Path

import pytest

from repro.lint.callgraph import MODULE_BODY, build_project_index
from repro.lint.project import analyze_project, dead_functions

REPO_ROOT = Path(__file__).resolve().parent.parent

PYPROJECT_MIN = "[project]\nname = 'proj'\nversion = '0'\n"


def make_project(tmp_path, files, pyproject=PYPROJECT_MIN, tests=None):
    """Materialize a fixture package ``proj`` (plus optional tests dir)."""
    (tmp_path / "pyproject.toml").write_text(pyproject)
    pkg = tmp_path / "proj"
    for rel, source in {"__init__.py": "", **files}.items():
        p = pkg / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        if p.parent != pkg and not (p.parent / "__init__.py").exists():
            (p.parent / "__init__.py").write_text("")
        p.write_text(source)
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    for rel, source in (tests or {}).items():
        (tests_dir / rel).write_text(source)
    return pkg, tests_dir


def rules_of(analysis, rule):
    return [v for v in analysis.result.violations if v.rule == rule]


def run(tmp_path, files, **kw):
    pkg, tests_dir = make_project(tmp_path, files, **kw)
    return analyze_project(pkg, tests_dir=tests_dir, use_baseline=False)


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_cross_module_reachability(self, tmp_path):
        pkg, _ = make_project(tmp_path, {
            "util.py": "def helper():\n    return 1\n",
            "filtering/entry.py": (
                "from proj.util import helper\n"
                "def entry():\n    return helper()\n"
                "def unrelated():\n    return 2\n"
            ),
        })
        index, errors = build_project_index(pkg)
        assert not errors
        entry = ("proj.filtering.entry", "entry")
        helper = ("proj.util", "helper")
        reach = index.reachable_from([entry])
        assert helper in reach
        assert ("proj.filtering.entry", "unrelated") not in reach
        # reverse edges point callee -> callers
        rev = index.reverse_edges()
        assert entry in rev.get(helper, frozenset())

    def test_entrypoints_are_public_algorithmic(self, tmp_path):
        pkg, _ = make_project(tmp_path, {
            "filtering/entry.py": "def entry():\n    pass\ndef _private():\n    pass\n",
            "util.py": "def helper():\n    pass\n",
        })
        index, _ = build_project_index(pkg)
        eps = index.algorithmic_entrypoints()
        assert ("proj.filtering.entry", "entry") in eps
        assert ("proj.filtering.entry", "_private") not in eps
        assert ("proj.util", "helper") not in eps
        assert ("proj.filtering.entry", MODULE_BODY) in eps


# ---------------------------------------------------------------------------
# REPRO110 / REPRO111: RNG and wall-clock reachability
# ---------------------------------------------------------------------------


RNG_HELPER_UNSEEDED = (
    "import numpy as np\n"
    "def make_rng():\n"
    "    return np.random.default_rng()\n"
)
RNG_HELPER_SEEDED = (
    "import numpy as np\n"
    "def make_rng(seed=0):\n"
    "    return np.random.default_rng(seed)\n"
)
RNG_ENTRY = (
    "from proj.util import make_rng\n"
    "def run_filtering(g):\n"
    "    rng = make_rng()\n"
    "    return rng\n"
)


class TestRngReachability:
    def test_unseeded_rng_reachable_from_filtering_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "util.py": RNG_HELPER_UNSEEDED,
            "filtering/pipeline.py": RNG_ENTRY,
        })
        hits = rules_of(analysis, "REPRO110")
        assert len(hits) == 1
        # the witness chain names the entrypoint and the helper
        assert "run_filtering" in hits[0].message
        assert hits[0].path.endswith("util.py")

    def test_seeded_fixture_is_clean(self, tmp_path):
        analysis = run(tmp_path, {
            "util.py": RNG_HELPER_SEEDED,
            "filtering/pipeline.py": RNG_ENTRY,
        })
        assert analysis.result.violations == []
        assert analysis.result.exit_code == 0

    def test_unreachable_unseeded_rng_not_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "util.py": RNG_HELPER_UNSEEDED,  # nothing algorithmic calls it
            "filtering/pipeline.py": "def run_filtering(g):\n    return g\n",
        })
        assert rules_of(analysis, "REPRO110") == []

    def test_wall_clock_in_helper_layer_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "util.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "filtering/pipeline.py": (
                "from proj.util import stamp\n"
                "def run_filtering(g):\n"
                "    return stamp()\n"
            ),
        })
        assert len(rules_of(analysis, "REPRO111")) == 1


# ---------------------------------------------------------------------------
# REPRO112: Generators crossing a process boundary
# ---------------------------------------------------------------------------


POOL_STUB = (
    "class ParallelRuntime:\n"
    "    pass\n"
    "def resilient_map(fn, items, *, parallel=None, runtime=None):\n"
    "    return [fn(p) for p in items], None\n"
)


class TestGeneratorPayloads:
    def test_generator_in_pool_payload_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "pool.py": POOL_STUB,
            "assembly/multi.py": (
                "from proj.pool import ParallelRuntime, resilient_map\n"
                "def multistart(tasks, rng):\n"
                "    rt = ParallelRuntime()\n"
                "    return resilient_map(_work, [(rng, t) for t in tasks], parallel=rt)\n"
                "def _work(payload):\n"
                "    return payload\n"
            ),
        })
        hits = rules_of(analysis, "REPRO112")
        assert len(hits) == 1
        assert "'rng'" in hits[0].message

    def test_captured_generator_in_payload_fn_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "pool.py": POOL_STUB,
            "assembly/multi.py": (
                "from proj.pool import ParallelRuntime, resilient_map\n"
                "def multistart(tasks, rng):\n"
                "    def work(t):\n"
                "        return rng.random() + t\n"
                "    rt = ParallelRuntime()\n"
                "    return resilient_map(work, tasks, parallel=rt)\n"
            ),
        })
        hits = rules_of(analysis, "REPRO112")
        assert len(hits) == 1
        assert "captures a Generator" in hits[0].message

    def test_derived_seeds_are_clean(self, tmp_path):
        analysis = run(tmp_path, {
            "pool.py": POOL_STUB,
            "assembly/multi.py": (
                "from proj.pool import ParallelRuntime, resilient_map\n"
                "def multistart(tasks, rng):\n"
                "    seeds = [int(s) for s in rng.integers(0, 2**31, len(tasks))]\n"
                "    rt = ParallelRuntime()\n"
                "    return resilient_map(_work, list(zip(seeds, tasks)), parallel=rt)\n"
                "def _work(payload):\n"
                "    return payload\n"
            ),
        })
        assert rules_of(analysis, "REPRO112") == []


# ---------------------------------------------------------------------------
# REPRO113: CutCache key provenance
# ---------------------------------------------------------------------------


class TestCutCacheKeys:
    def test_literal_key_flagged_fingerprint_clean(self, tmp_path):
        analysis = run(tmp_path, {
            "cache.py": (
                "class CutCache:\n"
                "    def get(self, key):\n"
                "        return None\n"
                "    def put(self, key, value):\n"
                "        pass\n"
            ),
            "filtering/solve.py": (
                "from proj.cache import CutCache\n"
                "def solve(prob, cache: CutCache):\n"
                "    hit = cache.get(f'{prob.n}:{prob.m}')\n"
                "    ok = cache.get(prob.fingerprint())\n"
                "    return hit or ok\n"
            ),
        })
        hits = rules_of(analysis, "REPRO113")
        assert len(hits) == 1  # only the f-string key


# ---------------------------------------------------------------------------
# REPRO114: layering and import cycles
# ---------------------------------------------------------------------------


LAYERED_PYPROJECT = (
    PYPROJECT_MIN
    + "[tool.repro.layers]\ncore = []\nfiltering = ['core']\n"
)


class TestLayering:
    def test_illegal_module_scope_import_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "core/data.py": (
                "from proj.filtering.stuff import f\n"
                "def g():\n    return f()\n"
            ),
            "filtering/stuff.py": "def f():\n    return 1\n",
        }, pyproject=LAYERED_PYPROJECT)
        hits = rules_of(analysis, "REPRO114")
        assert len(hits) == 1
        assert "'core' may not import 'filtering'" in hits[0].message

    def test_deferred_import_is_sanctioned(self, tmp_path):
        analysis = run(tmp_path, {
            "core/data.py": (
                "def g():\n"
                "    from proj.filtering.stuff import f\n"
                "    return f()\n"
            ),
            "filtering/stuff.py": "def f():\n    return 1\n",
        }, pyproject=LAYERED_PYPROJECT)
        assert rules_of(analysis, "REPRO114") == []

    def test_module_cycle_flagged(self, tmp_path):
        analysis = run(tmp_path, {
            "alpha/x.py": "import proj.beta.y\ndef f():\n    pass\n",
            "beta/y.py": "import proj.alpha.x\ndef g():\n    pass\n",
        })
        hits = rules_of(analysis, "REPRO114")
        assert len(hits) == 1
        assert "cycle" in hits[0].message

    def test_declared_cycle_is_a_config_error(self, tmp_path):
        bad = PYPROJECT_MIN + "[tool.repro.layers]\na = ['b']\nb = ['a']\n"
        analysis = run(tmp_path, {"a/x.py": "X = 1\n"}, pyproject=bad)
        assert analysis.result.exit_code == 2
        assert any("not a DAG" in e.message for e in analysis.result.errors)


# ---------------------------------------------------------------------------
# REPRO115: twin drift
# ---------------------------------------------------------------------------


TWIN_OK = (
    "def fold(xs, acc=0):\n    return acc\n"
    "def fold_reference(xs, acc=0):\n    return acc\n"
)
TWIN_TEST = "from proj.flow.kernels import fold, fold_reference\n"


class TestTwinDrift:
    def test_compatible_tested_twin_is_clean(self, tmp_path):
        analysis = run(
            tmp_path,
            {"flow/kernels.py": TWIN_OK},
            tests={"test_kernels.py": TWIN_TEST},
        )
        assert rules_of(analysis, "REPRO115") == []

    def test_mutated_signature_caught(self, tmp_path):
        drifted = (
            "def fold(xs, scale):\n    return scale\n"
            "def fold_reference(xs, acc=0):\n    return acc\n"
        )
        analysis = run(
            tmp_path,
            {"flow/kernels.py": drifted},
            tests={"test_kernels.py": TWIN_TEST},
        )
        hits = rules_of(analysis, "REPRO115")
        assert len(hits) == 1
        assert "drifted" in hits[0].message

    def test_deleted_twin_caught(self, tmp_path):
        analysis = run(
            tmp_path,
            {"flow/kernels.py": "def fold_reference(xs, acc=0):\n    return acc\n"},
            tests={"test_kernels.py": TWIN_TEST},
        )
        hits = rules_of(analysis, "REPRO115")
        assert len(hits) == 1
        assert "no twin" in hits[0].message

    def test_untested_pair_caught(self, tmp_path):
        analysis = run(
            tmp_path,
            {"flow/kernels.py": TWIN_OK},
            tests={"test_other.py": "from proj.flow.kernels import fold\n"},
        )
        hits = rules_of(analysis, "REPRO115")
        assert len(hits) == 1
        assert "no test module references both" in hits[0].message

    def test_private_twin_accepted(self, tmp_path):
        paired = (
            "def _fold(xs, acc=0):\n    return acc\n"
            "def fold_reference(xs, acc=0):\n    return acc\n"
        )
        analysis = run(
            tmp_path,
            {"flow/kernels.py": paired},
            tests={"test_kernels.py": "from proj.flow.kernels import _fold, fold_reference\n"},
        )
        assert rules_of(analysis, "REPRO115") == []


# ---------------------------------------------------------------------------
# Dead-code report
# ---------------------------------------------------------------------------


class TestDeadFunctions:
    def test_unreferenced_helper_reported(self, tmp_path):
        pkg, _ = make_project(tmp_path, {
            "util.py": "def used():\n    pass\ndef orphan():\n    pass\n",
            "filtering/entry.py": (
                "from proj.util import used\n"
                "def entry():\n    return used()\n"
            ),
        })
        index, _ = build_project_index(pkg)
        dead = dead_functions(index)
        assert ("proj.util", "orphan") in [k for k, _ in dead]
        assert ("proj.util", "used") not in [k for k, _ in dead]


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------


class TestRealProject:
    def test_src_repro_is_clean_under_baseline(self):
        analysis = analyze_project(REPO_ROOT / "src" / "repro")
        assert analysis.result.errors == []
        assert analysis.result.violations == []
        assert analysis.result.stale_baseline == []
        assert analysis.result.exit_code == 0

    def test_known_twin_pairs_are_indexed(self):
        analysis = analyze_project(
            REPO_ROOT / "src" / "repro", select=["REPRO115"], use_baseline=False
        )
        index = analysis.index
        mod = index.modules["repro.crp.overlay"]
        assert "build_overlay" in mod.functions
        assert "build_overlay_reference" in mod.functions
        assert analysis.result.violations == []
