"""Whole-project analysis: ``python -m repro.lint --project <root>``.

Runs, over one shared :class:`~.callgraph.ProjectIndex`:

1. every per-file rule (REPRO101–109) plus noqa meta-checks (REPRO000);
2. the interprocedural dataflow passes (REPRO110–113, :mod:`.dataflow`);
3. the architecture layering gates (REPRO114, :mod:`.layers`) against the
   ``[tool.repro.layers]`` declaration in the nearest ``pyproject.toml``;
4. the cross-file twin-kernel check (REPRO115, :mod:`.contracts`),
   indexing the sibling ``tests/`` tree for twin/conformance coverage;

then applies per-line ``# repro: noqa`` suppressions and, finally, the
findings baseline (:mod:`.baseline`).  Paths in findings are reported
relative to the pyproject directory so baselines are machine-independent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    apply_baseline,
    load_baseline,
)
from .callgraph import MODULE_BODY, FuncKey, ProjectIndex, build_project_index
from .contracts import check_twin_drift
from .dataflow import (
    check_cutcache_keys,
    check_generator_payloads,
    check_rng_reachability,
    check_wallclock_reachability,
)
from .engine import LintError, LintResult, lint_source, parse_noqa
from .layers import (
    check_import_cycles,
    check_layering,
    find_pyproject,
    load_layer_config,
)
from .rules import KNOWN_RULE_IDS, Violation

__all__ = ["ProjectAnalysis", "analyze_project", "dead_functions"]


@dataclass
class ProjectAnalysis:
    """Everything the project run produced, for the CLI and tests."""

    result: LintResult
    index: ProjectIndex
    test_index: Optional[ProjectIndex]
    repo_root: Path
    baseline: Optional[Baseline]
    #: findings before baseline application (what --write-baseline persists)
    prebaseline: List[Violation]


def _resolve_root(root: Path) -> Path:
    """Descend ``src`` -> ``src/repro``-style wrappers to the package dir."""
    if (root / "__init__.py").exists():
        return root
    candidates = [
        d for d in sorted(root.iterdir())
        if d.is_dir() and (d / "__init__.py").exists()
    ] if root.is_dir() else []
    if len(candidates) == 1:
        return candidates[0]
    return root


def _display_paths(index: ProjectIndex, repo_root: Path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for name, mod in index.modules.items():
        try:
            out[name] = os.path.relpath(mod.path, repo_root)
        except ValueError:  # different drive (windows) — keep absolute
            out[name] = str(mod.path)
    return out


def _project_select(select: Optional[Sequence[str]]) -> Optional[Set[str]]:
    if select is None:
        return None
    return {s.strip().upper() for s in select if s.strip()}


def analyze_project(
    root: "str | Path",
    *,
    tests_dir: "str | Path | None" = None,
    select: Optional[Sequence[str]] = None,
    baseline_path: "str | Path | None" = None,
    use_baseline: bool = True,
) -> ProjectAnalysis:
    """Run the full project-aware analysis rooted at a package directory.

    ``tests_dir`` defaults to ``<repo root>/tests`` when it exists; pass an
    explicit directory for fixture projects.  ``baseline_path`` defaults to
    ``<repo root>/lint_baseline.json`` when present.
    """
    wanted = _project_select(select)
    root = _resolve_root(Path(root).resolve())
    index, parse_errors = build_project_index(root)

    pyproject = find_pyproject(root)
    repo_root = pyproject.parent if pyproject is not None else Path.cwd()
    display = _display_paths(index, repo_root)

    result = LintResult()
    for path, message in parse_errors:
        try:
            shown = os.path.relpath(path, repo_root)
        except ValueError:
            shown = path
        result.errors.append(LintError(path=shown, message=message))

    # -- per-file rules over the indexed sources -------------------------
    noqa_by_path: Dict[str, Dict[int, Optional[Set[str]]]] = {}
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        shown = display[mod_name]
        file_result = lint_source(mod.source, path=shown, select=select)
        result.merge(file_result)
        noqa_by_path[shown], _ = parse_noqa(mod.source, path=shown)

    # -- project passes --------------------------------------------------
    project_violations: List[Violation] = []

    def want(rule_id: str) -> bool:
        return wanted is None or rule_id in wanted

    if want("REPRO110"):
        project_violations.extend(check_rng_reachability(index, display))
    if want("REPRO111"):
        project_violations.extend(check_wallclock_reachability(index, display))
    if want("REPRO112"):
        project_violations.extend(check_generator_payloads(index, display))
    if want("REPRO113"):
        project_violations.extend(check_cutcache_keys(index, display))

    if want("REPRO114") and pyproject is not None:
        try:
            layer_config = load_layer_config(pyproject)
        except ValueError as exc:
            layer_config = None
            result.errors.append(LintError(path=str(pyproject), message=str(exc)))
        if layer_config is not None:
            problems = layer_config.validate()
            if problems:
                for problem in problems:
                    result.errors.append(
                        LintError(path=str(pyproject), message=problem)
                    )
            else:
                project_violations.extend(
                    check_layering(index, layer_config, display)
                )
        project_violations.extend(check_import_cycles(index, display))
    elif want("REPRO114"):
        project_violations.extend(check_import_cycles(index, display))

    test_index: Optional[ProjectIndex] = None
    tests_path = Path(tests_dir) if tests_dir is not None else repo_root / "tests"
    if tests_path.is_dir():
        test_index, test_errors = build_project_index(tests_path)
        for path, message in test_errors:
            result.errors.append(LintError(path=path, message=message))
    if want("REPRO115"):
        project_violations.extend(check_twin_drift(index, test_index, display))

    # -- noqa suppression for project findings ---------------------------
    kept: List[Violation] = []
    for v in project_violations:
        suppressed_ids = noqa_by_path.get(v.path, {}).get(v.line, "missing")
        if suppressed_ids is None or (
            isinstance(suppressed_ids, set) and v.rule in suppressed_ids
        ):
            result.suppressed += 1
        else:
            kept.append(v)
    result.violations.extend(kept)
    result.violations.sort(key=lambda v: v.key())
    prebaseline = list(result.violations)

    # -- baseline --------------------------------------------------------
    baseline: Optional[Baseline] = None
    if baseline_path is not None:
        bp = Path(baseline_path)
    else:
        bp = repo_root / DEFAULT_BASELINE_NAME
    if use_baseline and bp.is_file():
        try:
            baseline = load_baseline(bp)
        except ValueError as exc:
            result.errors.append(LintError(path=str(bp), message=str(exc)))
        if baseline is not None:
            remaining, baselined, stale = apply_baseline(result.violations, baseline)
            result.violations = remaining
            result.baselined = baselined
            result.stale_baseline = [
                f"{e.path}: {e.rule} {e.message}" for e in stale
            ]

    result.files_checked = len(index.modules)
    return ProjectAnalysis(
        result=result,
        index=index,
        test_index=test_index,
        repo_root=repo_root,
        baseline=baseline,
        prebaseline=prebaseline,
    )


# ---------------------------------------------------------------------------
# Dead-code report (informational; drives the PR-10 sweep)
# ---------------------------------------------------------------------------


def dead_functions(
    index: ProjectIndex,
    extra_sources: Sequence[ProjectIndex] = (),
) -> List[Tuple[FuncKey, str]]:
    """Top-level functions/methods no identifier anywhere references.

    Conservative by construction: *any* textual reference — a call, a bare
    name (callback / dispatch table), an attribute access, an ``__all__``
    string — anywhere in the project, its tests, or benchmarks counts as
    use.  Name collisions therefore hide dead code rather than inventing
    it; what this reports is safe to delete or deliberately test.
    """
    referenced: Set[str] = set()
    import ast as _ast

    for source_index in [index, *extra_sources]:
        for mod in source_index.modules.values():
            for node in _ast.walk(mod.tree):
                if isinstance(node, _ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, _ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, _ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        referenced.add(node.value)
                elif isinstance(node, (_ast.Import, _ast.ImportFrom)):
                    for alias in node.names:
                        referenced.add(alias.name.rsplit(".", 1)[-1])

    out: List[Tuple[FuncKey, str]] = []
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        for qual in sorted(mod.functions):
            fn = mod.functions[qual]
            if qual == MODULE_BODY or "<locals>" in qual:
                continue
            name = fn.name
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders are protocol entry points
            if name.startswith("visit_"):
                continue  # ast.NodeVisitor dispatches these by node type
            if fn.decorators:
                continue  # registered/dispatched via decorator machinery
            if name not in referenced:
                out.append((fn.key, str(mod.path)))
    return out
