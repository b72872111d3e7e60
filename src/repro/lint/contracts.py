"""Cross-file contract check (REPRO115): twin kernels.

The repo's performance story rests on *twin kernels*: every vectorized hot
path keeps a scalar ``*_reference`` implementation, and a test imports both
and pins bit-identity.  The contract spans files — a kernel lives in
``src``, its twin gate in ``tests`` — so no per-file rule can see it drift.

REPRO115 (twin-drift)
    For every ``X_reference`` definition: a twin ``X`` (or ``_X``) must
    exist in the same module, its signature must stay compatible
    (shared leading parameters identical in name and order; extras on
    either side must carry defaults), and at least one test module must
    reference **both** names — otherwise the bit-identity contract is
    unenforced and the pair can silently drift.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import MODULE_BODY, ProjectIndex
from .rules import Violation

__all__ = ["check_twin_drift", "test_identifier_index"]


def _violation(rule: str, path: str, node: ast.AST, message: str) -> Violation:
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
    )


# ---------------------------------------------------------------------------
# REPRO115: twin drift
# ---------------------------------------------------------------------------


def _param_names(node: ast.AST) -> Tuple[List[str], int]:
    """Positional parameter names (posonly + regular) and their default count."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    return names, len(args.defaults)


def _signatures_compatible(ref: ast.AST, twin: ast.AST) -> Optional[str]:
    """None when compatible, else a human-readable mismatch description."""
    ref_names, ref_defaults = _param_names(ref)
    twin_names, twin_defaults = _param_names(twin)
    shared = min(len(ref_names), len(twin_names))
    if ref_names[:shared] != twin_names[:shared]:
        return (
            f"parameter names diverge: reference has {ref_names}, "
            f"twin has {twin_names}"
        )
    # every parameter one side adds beyond the shared prefix needs a default,
    # so both spellings stay callable with the reference's argument list
    for names, defaults, label in (
        (ref_names, ref_defaults, "reference"),
        (twin_names, twin_defaults, "twin"),
    ):
        extras = len(names) - shared
        if extras > defaults:
            return (
                f"{label} adds parameter(s) {names[shared:]} without defaults; "
                "twins must accept the shared argument list"
            )
    return None


def test_identifier_index(test_index: ProjectIndex) -> Dict[str, Set[str]]:
    """test module name -> every identifier the module references.

    Covers ``from m import f`` (alias names), attribute access ``m.f``, and
    bare names — enough to decide "does some test touch both twins".
    """
    out: Dict[str, Set[str]] = {}
    for name, mod in test_index.modules.items():
        idents: Set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Name):
                idents.add(node.id)
            elif isinstance(node, ast.Attribute):
                idents.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    idents.add(alias.name.rsplit(".", 1)[-1])
        out[name] = idents
    return out


def check_twin_drift(
    index: ProjectIndex,
    test_index: Optional[ProjectIndex],
    display_paths: Dict[str, str],
) -> Iterator[Violation]:
    """REPRO115: every ``*_reference`` kernel keeps a compatible, tested twin."""
    test_idents = test_identifier_index(test_index) if test_index is not None else {}
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        path = display_paths.get(mod_name, str(mod.path))
        for qual in sorted(mod.functions):
            fn = mod.functions[qual]
            if fn.qualname == MODULE_BODY or not fn.name.endswith("_reference"):
                continue
            base = fn.name[: -len("_reference")]
            prefix = qual[: -len(fn.name)]
            twin = mod.functions.get(f"{prefix}{base}") or mod.functions.get(
                f"{prefix}_{base}"
            )
            if twin is None:
                yield _violation(
                    "REPRO115", path, fn.node,
                    f"reference kernel '{fn.name}' has no twin '{base}' (or "
                    f"'_{base}') in {mod_name}; the vectorized/scalar pair "
                    "must live side by side",
                )
                continue
            mismatch = _signatures_compatible(fn.node, twin.node)
            if mismatch is not None:
                yield _violation(
                    "REPRO115", path, twin.node,
                    f"twin '{twin.name}' drifted from '{fn.name}': {mismatch}",
                )
            if test_index is not None:
                covered = any(
                    fn.name in idents and twin.name in idents
                    for idents in test_idents.values()
                )
                if not covered:
                    yield _violation(
                        "REPRO115", path, fn.node,
                        f"no test module references both '{twin.name}' and "
                        f"'{fn.name}'; the bit-identity contract for this "
                        "twin pair is unenforced",
                    )
