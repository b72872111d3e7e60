"""``repro.lint``: determinism & parallel-safety static analysis.

PUNCH's reproduction contracts — bit-identical partitions with and
without the worker pool, the one RNG draw per natural-cut sweep, and
read-only CSR graph arrays — are pinned end-to-end by tests, but an end-to-end diff on a
multi-hour instance is the worst possible place to discover a determinism
bug.  This package catches the known hazard classes *at analysis time*:

- a project-specific AST analyzer (:mod:`.rules`, :mod:`.engine`) with a
  rule registry, per-line ``# repro: noqa(RULE)`` suppressions, and
  text/JSON reporters (:mod:`.report`) behind ``python -m repro.lint``;
- a runtime sanitizer (:mod:`.sanitizer`) that freezes CSR views,
  cross-checks RNG draw parity at phase boundaries, and asserts partition
  invariants, surfacing results in ``run_report()["sanitizer"]``.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and how to add rules.
"""

from __future__ import annotations

from .engine import LintError, LintResult, lint_file, lint_paths, lint_source
from .report import format_json, format_text
from .rules import RULES, RULES_BY_ID, Rule, Violation
from .sanitizer import Sanitizer, SanitizerViolation, get_sanitizer, set_sanitizer

__all__ = [
    "LintError",
    "LintResult",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "Sanitizer",
    "SanitizerViolation",
    "Violation",
    "format_json",
    "format_text",
    "get_sanitizer",
    "lint_file",
    "lint_paths",
    "lint_source",
    "set_sanitizer",
]
