"""Rule-level tests for the determinism & parallel-safety analyzer.

Every rule gets at least one minimal positive fixture (must flag) and one
negative fixture (must stay silent), run through :func:`lint_source` with a
path that places the module in the rule's scope.
"""

from __future__ import annotations

import json
import textwrap

from repro.lint import RULES, RULES_BY_ID, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.engine import lint_paths
from repro.lint.report import format_json, format_text

ALGO = "src/repro/filtering/candidate.py"  # algorithmic-scope path
PAR = "src/repro/parallel/tasks.py"  # parallel-scope path
OTHER = "src/repro/perf/telemetry.py"  # neither scope


def check(source: str, path: str = ALGO):
    return lint_source(textwrap.dedent(source), path=path)


def rule_ids(result):
    return [v.rule for v in result.violations]


class TestGlobalRng:
    def test_stdlib_random_flagged(self):
        res = check("import random\nx = random.random()\n")
        assert rule_ids(res) == ["REPRO101"]

    def test_from_import_alias_flagged(self):
        res = check("from random import shuffle as sh\nsh(items)\n")
        assert rule_ids(res) == ["REPRO101"]

    def test_numpy_legacy_global_flagged(self):
        res = check("import numpy as np\nx = np.random.rand(3)\n")
        assert rule_ids(res) == ["REPRO101"]

    def test_default_rng_allowed(self):
        res = check("import numpy as np\nrng = np.random.default_rng(42)\nx = rng.random()\n")
        assert res.violations == []

    def test_applies_outside_algorithmic_modules_too(self):
        res = check("import random\nrandom.seed()\n", path=OTHER)
        assert rule_ids(res) == ["REPRO101"]


class TestWallClock:
    def test_time_time_flagged_in_algorithmic(self):
        res = check("import time\nt = time.time()\n")
        assert rule_ids(res) == ["REPRO102"]

    def test_datetime_now_flagged(self):
        res = check("from datetime import datetime\nt = datetime.now()\n")
        assert rule_ids(res) == ["REPRO102"]

    def test_perf_counter_allowed(self):
        res = check("import time\nt = time.perf_counter()\n")
        assert res.violations == []

    def test_time_time_fine_outside_scope(self):
        res = check("import time\nt = time.time()\n", path=OTHER)
        assert res.violations == []


class TestEnvRead:
    def test_environ_subscript_flagged(self):
        res = check("import os\nv = os.environ['SEED']\n")
        assert "REPRO103" in rule_ids(res)

    def test_getenv_flagged(self):
        res = check("import os\nv = os.getenv('SEED')\n")
        assert rule_ids(res) == ["REPRO103"]

    def test_from_import_environ_flagged(self):
        res = check("from os import environ\nv = environ.get('SEED')\n")
        assert "REPRO103" in rule_ids(res)

    def test_fine_outside_scope(self):
        res = check("import os\nv = os.getenv('SEED')\n", path=OTHER)
        assert res.violations == []


class TestUnorderedIteration:
    def test_for_over_set_literal_call_flagged(self):
        res = check("s = set(xs)\nfor x in s:\n    handle(x)\n")
        assert rule_ids(res) == ["REPRO104"]

    def test_next_iter_flagged(self):
        res = check("s = {1, 2, 3}\nstart = next(iter(s))\n")
        assert rule_ids(res) == ["REPRO104"]

    def test_comprehension_over_set_flagged(self):
        res = check("s = set(xs)\nout = [f(x) for x in s]\n")
        assert rule_ids(res) == ["REPRO104"]

    def test_list_capture_flagged(self):
        res = check("s = frozenset(xs)\nout = list(s)\n")
        assert rule_ids(res) == ["REPRO104"]

    def test_annotated_parameter_tracked(self):
        res = check(
            """
            from typing import Set

            def f(destroyed: Set[int]):
                for c in destroyed:
                    drop(c)
            """
        )
        assert rule_ids(res) == ["REPRO104"]

    def test_sorted_is_clean(self):
        res = check("s = set(xs)\nfor x in sorted(s):\n    handle(x)\n")
        assert res.violations == []

    def test_orderfree_reduction_is_clean(self):
        res = check("s = set(xs)\ntotal = sum(w[x] for x in s)\nm = min(s)\n")
        assert res.violations == []

    def test_iterating_a_list_is_clean(self):
        res = check("xs = [1, 2]\nfor x in xs:\n    handle(x)\n")
        assert res.violations == []


class TestIdOrdering:
    def test_sorted_key_id_flagged(self):
        res = check("out = sorted(objs, key=id)\n", path=OTHER)
        assert rule_ids(res) == ["REPRO105"]

    def test_lambda_id_key_flagged(self):
        res = check("out = min(objs, key=lambda o: id(o))\n", path=OTHER)
        assert rule_ids(res) == ["REPRO105"]

    def test_id_comparison_flagged(self):
        res = check("flag = id(a) < id(b)\n", path=OTHER)
        assert rule_ids(res) == ["REPRO105"]

    def test_id_as_dict_key_allowed(self):
        # identity *lookup* is deterministic; only ordering by id is not
        res = check("registry[id(obj)] = obj\nhit = registry.get(id(obj))\n", path=OTHER)
        assert res.violations == []


class TestSharedViewMutation:
    def test_subscript_store_flagged(self):
        res = check("g.ewgt[3] = 0.0\n", path=OTHER)
        assert rule_ids(res) == ["REPRO106"]

    def test_augmented_store_flagged(self):
        res = check("g.vsize[idx] += 1\n", path=OTHER)
        assert rule_ids(res) == ["REPRO106"]

    def test_attribute_rebind_outside_graph_flagged(self):
        res = check("g.xadj = other\n", path=OTHER)
        assert rule_ids(res) == ["REPRO106"]

    def test_setflags_write_true_flagged(self):
        res = check("view.setflags(write=True)\n", path=OTHER)
        assert rule_ids(res) == ["REPRO106"]

    def test_setflags_write_false_allowed(self):
        res = check("view.setflags(write=False)\n", path=OTHER)
        assert res.violations == []

    def test_graph_constructor_allowed(self):
        res = check(
            """
            class Graph:
                def __init__(self, xadj):
                    self.xadj = xadj
            """,
            path=OTHER,
        )
        assert res.violations == []


class TestForkUnsafePayload:
    def test_lambda_flagged_in_parallel(self):
        res = check("dispatch = lambda x: x + 1\n", path=PAR)
        assert rule_ids(res) == ["REPRO107"]

    def test_global_statement_flagged(self):
        res = check(
            """
            def bump():
                global COUNTER
                COUNTER += 1
            """,
            path=PAR,
        )
        assert rule_ids(res) == ["REPRO107"]

    def test_mutable_default_flagged(self):
        res = check("def task(payload, acc=[]):\n    acc.append(payload)\n", path=PAR)
        assert rule_ids(res) == ["REPRO107"]

    def test_module_level_def_clean(self):
        res = check("def task(payload, acc=None):\n    return payload\n", path=PAR)
        assert res.violations == []

    def test_lambda_fine_outside_parallel(self):
        res = check("key = lambda x: x.cost\n", path=OTHER)
        assert res.violations == []


class TestSilentExcept:
    def test_bare_except_flagged(self):
        res = check("try:\n    go()\nexcept:\n    handle()\n", path=OTHER)
        assert rule_ids(res) == ["REPRO108"]

    def test_swallowing_handler_flagged(self):
        res = check("try:\n    go()\nexcept OSError:\n    pass\n", path=OTHER)
        assert rule_ids(res) == ["REPRO108"]

    def test_counted_handler_allowed(self):
        res = check(
            "try:\n    go()\nexcept OSError as exc:\n    incidents.append(exc)\n",
            path=OTHER,
        )
        assert res.violations == []


class TestBareSharedMemory:
    SRC = (
        "from multiprocessing import shared_memory\n"
        "shm = shared_memory.SharedMemory(create=True, size=64)\n"
    )

    def test_flagged_everywhere_by_default(self):
        res = check(self.SRC, path=OTHER)
        assert rule_ids(res) == ["REPRO109"]

    def test_direct_import_alias_flagged(self):
        res = check(
            "from multiprocessing.shared_memory import SharedMemory as SM\n"
            "shm = SM(name='x')\n",
            path=PAR,
        )
        assert rule_ids(res) == ["REPRO109"]

    def test_flagged_in_parallel_package(self):
        # tasks carry values: no module, the parallel package included, may
        # own a segment
        for path in ("src/repro/parallel/shared_graph.py", "src/repro/parallel/pool.py"):
            res = check(self.SRC, path=path)
            assert rule_ids(res) == ["REPRO109"], path

    def test_flagged_in_runtime_package(self):
        res = check(self.SRC, path="src/repro/runtime/supervisor.py")
        assert rule_ids(res) == ["REPRO109"]

    def test_other_shared_memory_calls_not_flagged(self):
        res = check(
            "from multiprocessing import shared_memory\n"
            "lst = shared_memory.ShareableList([1, 2])\n",
            path=OTHER,
        )
        assert res.violations == []

    def test_noqa_suppression(self):
        res = check(
            "from multiprocessing import shared_memory\n"
            "shm = shared_memory.SharedMemory(name='x')  # repro: noqa(REPRO109)\n",
            path=OTHER,
        )
        assert res.violations == []


class TestSuppressions:
    def test_targeted_noqa_suppresses(self):
        res = check("s = set(xs)\nfor x in s:  # repro: noqa(REPRO104)\n    handle(x)\n")
        assert res.violations == []
        assert res.suppressed == 1

    def test_blanket_noqa_suppresses_all(self):
        res = check("s = set(xs)\nfor x in s:  # repro: noqa\n    handle(x)\n")
        assert res.violations == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        res = check("s = set(xs)\nfor x in s:  # repro: noqa(REPRO105)\n    handle(x)\n")
        assert rule_ids(res) == ["REPRO104"]

    def test_noqa_only_covers_its_line(self):
        res = check(
            "s = set(xs)\nfor x in s:  # repro: noqa(REPRO104)\n    handle(x)\n"
            "for y in s:\n    handle(y)\n"
        )
        assert rule_ids(res) == ["REPRO104"]


class TestEngineAndReport:
    def test_syntax_error_is_error_not_crash(self):
        res = lint_source("def broken(:\n", path="bad.py")
        assert res.exit_code == 2
        assert res.errors and "syntax error" in res.errors[0].message

    def test_select_unknown_rule_raises(self):
        import pytest

        with pytest.raises(ValueError):
            lint_source("x = 1\n", select=["NOPE999"])

    def test_registry_is_consistent(self):
        assert len({r.id for r in RULES}) == len(RULES)
        assert all(RULES_BY_ID[r.id] is r for r in RULES)
        assert all(r.scope in ("all", "algorithmic", "parallel") for r in RULES)

    def test_text_format_has_location_and_rule(self):
        res = check("import random\nx = random.random()\n")
        text = format_text(res)
        assert f"{ALGO}:2:" in text and "REPRO101" in text

    def test_json_format_round_trips(self):
        res = check("import random\nx = random.random()\n")
        doc = json.loads(format_json(res))
        assert doc["summary"]["violations"] == 1
        assert doc["violations"][0]["rule"] == "REPRO101"

    def test_lint_paths_on_tree_is_clean(self):
        # the gate the CI job enforces: the shipped tree has zero violations
        res = lint_paths(["src"])
        assert res.exit_code == 0, format_text(res)

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrandom.seed()\n")
        assert lint_main([str(clean)]) == 0
        assert lint_main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert f"{dirty}:2:1: REPRO101" in out
        assert lint_main(["--select", "BOGUS1", str(clean)]) == 2

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out
