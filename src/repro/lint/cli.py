"""Command-line front end: ``python -m repro.lint [paths...]``.

Two modes share one reporter and exit-code contract:

- **file mode** (default): per-file rules over the given paths;
- **project mode** (``--project``): the whole-project analysis — per-file
  rules plus call-graph dataflow (REPRO110–113), architecture layering
  (REPRO114), and twin contracts (REPRO115) — with the
  findings baseline applied (``lint_baseline.json`` next to
  ``pyproject.toml`` unless overridden).

Exit codes: 0 clean, 1 violations found, 2 analysis/usage errors — so CI
gates can distinguish "tree is dirty" from "linter is broken".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import lint_paths
from .report import format_json, format_rule_list, format_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & parallel-safety analyzer for the PUNCH reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src); with --project, "
        "the single package root to analyze",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="whole-project analysis: call-graph dataflow, layering DAG, "
        "twin contracts, findings baseline",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="findings baseline file (default: lint_baseline.json next to "
        "pyproject.toml; project mode only)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current project findings to the baseline file and exit 0 "
        "(reasons are carried over where findings match)",
    )
    parser.add_argument(
        "--tests-dir",
        metavar="DIR",
        default=None,
        help="tests directory for contract coverage checks (default: "
        "<repo root>/tests)",
    )
    parser.add_argument(
        "--dead-code",
        action="store_true",
        help="print the call-graph dead-code report (informational; exit 0)",
    )
    return parser


def _run_project(args: argparse.Namespace, select: Optional[List[str]]) -> int:
    from .baseline import DEFAULT_BASELINE_NAME, write_baseline
    from .project import analyze_project, dead_functions

    if len(args.paths) != 1:
        print("error: --project takes exactly one root directory", file=sys.stderr)
        return 2
    root = Path(args.paths[0])
    if not root.is_dir():
        print(f"error: --project root {root} is not a directory", file=sys.stderr)
        return 2
    analysis = analyze_project(
        root,
        tests_dir=args.tests_dir,
        select=select,
        baseline_path=args.baseline,
        use_baseline=not (args.no_baseline or args.write_baseline),
    )
    if args.dead_code:
        extras = [i for i in (analysis.test_index,) if i is not None]
        dead = dead_functions(analysis.index, extras)
        for (mod, qual), _path in dead:
            print(f"{mod}.{qual}: never referenced by src, tests, or benchmarks")
        print(f"{len(dead)} unreferenced function(s)")
        return 0
    if args.write_baseline:
        bp = (
            Path(args.baseline)
            if args.baseline is not None
            else analysis.repo_root / DEFAULT_BASELINE_NAME
        )
        reasons = (
            {e.key(): e.reason for e in analysis.baseline.entries}
            if analysis.baseline is not None
            else None
        )
        # carry reasons over from the previous baseline when it loads
        if reasons is None and bp.is_file():
            from .baseline import load_baseline

            try:
                reasons = {e.key(): e.reason for e in load_baseline(bp).entries}
            except ValueError:
                reasons = None
        written = write_baseline(bp, analysis.prebaseline, reasons)
        print(f"wrote {len(written.entries)} finding(s) to {bp}")
        return 0
    result = analysis.result
    print(format_json(result) if args.format == "json" else format_text(result))
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(format_rule_list())
        return 0
    select: Optional[List[str]] = None
    if args.select is not None:
        select = [s for s in args.select.split(",") if s.strip()]
    if args.project or args.dead_code:
        try:
            return _run_project(args, select)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        result = lint_paths(args.paths, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_text(result))
    return result.exit_code
