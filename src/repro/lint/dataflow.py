"""Interprocedural dataflow rules (REPRO110–113).

These passes consume the approximate call graph (:mod:`.callgraph`) and
flag hazards the per-file rules cannot see:

REPRO110
    An *unseeded* RNG constructor (``np.random.default_rng()`` /
    ``SeedSequence()`` with no arguments) in a function **reachable from an
    algorithmic entrypoint** — wherever the function lives.  The per-file
    REPRO101 allows ``default_rng`` because seeded construction is the
    sanctioned pattern; this rule closes the hole where the *unseeded*
    spelling hides in a helper that filtering/assembly can reach.
REPRO111
    A wall-clock read (``time.time`` family) in a **non-algorithmic**
    module whose enclosing function is reachable from an algorithmic
    entrypoint.  (Algorithmic modules are already covered file-locally by
    REPRO102; this extends the reach through utility layers.)
REPRO112
    A ``numpy.random.Generator`` crossing a process boundary: a
    generator-typed value appearing in the payload of a
    ``resilient_map`` / ``executor.submit`` / ``executor.map``
    dispatch (directly, inside a tuple/partial, or captured by a
    locally-defined payload function).  Generators do not
    share state across pickling — each worker would replay the same draws
    while the driver's copy advances, silently forking the stream.
    Payloads must carry *derived seeds*, never live generators.
REPRO113
    A :class:`~repro.perf.cut_cache.CutCache` ``get``/``put`` whose key is
    provably **not** fingerprint-derived (a literal, f-string,
    ``str``/``repr``/``hash`` product, or a composition of those).  Cache
    keys must come from ``CutProblem.fingerprint()`` — anything else can
    collide across distinct networks and serve a wrong cut, which corrupts partitions silently.

All four are approximations over an AST-level call graph; vetted false
positives are suppressed with ``# repro: noqa(RULE)`` plus a rationale, or
carried in the findings baseline (see :mod:`.baseline`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import MODULE_BODY, FuncKey, FunctionInfo, ModuleInfo, ProjectIndex
from .rules import _WALL_CLOCK, Violation, _dotted

__all__ = [
    "check_rng_reachability",
    "check_wallclock_reachability",
    "check_generator_payloads",
    "check_cutcache_keys",
    "shortest_paths_from",
]

#: constructors whose *no-argument* call draws OS entropy
_UNSEEDED_CTORS = ("numpy.random.default_rng", "numpy.random.SeedSequence")

#: callables that dispatch payloads onto worker processes
_DISPATCH_FUNCS = {"resilient_map"}
_DISPATCH_METHODS = {"submit", "map"}

#: a Generator-typed annotation mentions one of these terminal names
_GENERATOR_ANN = {"Generator"}

#: calls that *produce* a Generator
_GENERATOR_CTORS = {"numpy.random.default_rng", "numpy.random.Generator"}

#: key expressions containing one of these calls are fingerprint-derived
_FINGERPRINT_CALLS = {"fingerprint", "metric_fingerprint"}


def shortest_paths_from(
    index: ProjectIndex, roots: Sequence[FuncKey]
) -> Dict[FuncKey, Tuple[int, Optional[FuncKey]]]:
    """BFS distances + parents from entrypoint roots (deterministic order)."""
    edges = index.call_edges()
    dist: Dict[FuncKey, Tuple[int, Optional[FuncKey]]] = {}
    frontier = sorted(r for r in roots if index.function(r) is not None)
    for r in frontier:
        dist[r] = (0, None)
    while frontier:
        nxt: List[FuncKey] = []
        for key in frontier:
            d = dist[key][0]
            for callee in sorted(edges.get(key, ())):
                if callee not in dist:
                    dist[callee] = (d + 1, key)
                    nxt.append(callee)
        frontier = sorted(nxt)
    return dist


def _witness(
    dist: Dict[FuncKey, Tuple[int, Optional[FuncKey]]], key: FuncKey
) -> str:
    """Render the entrypoint->site call chain, e.g. ``a.f -> b.g -> c.h``."""
    chain: List[str] = []
    cur: Optional[FuncKey] = key
    while cur is not None:
        chain.append(f"{cur[0]}.{cur[1]}" if cur[1] != MODULE_BODY else cur[0])
        cur = dist[cur][1]
    return " -> ".join(reversed(chain))


def _function_of(mod: ModuleInfo, node_owner: Dict[int, FunctionInfo], node: ast.AST) -> FunctionInfo:
    return node_owner.get(id(node), mod.functions[MODULE_BODY])


def _owner_map(mod: ModuleInfo) -> Dict[int, FunctionInfo]:
    owner: Dict[int, FunctionInfo] = {}
    for fn in mod.functions.values():
        if fn.qualname == MODULE_BODY:
            continue
        node = fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node):
            owner.setdefault(id(sub), fn)
    return owner


def _violation(rule: str, mod: ModuleInfo, node: ast.AST, message: str, path: str) -> Violation:
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
    )


# ---------------------------------------------------------------------------
# REPRO110 / REPRO111: reachability of unseeded RNG and wall-clock reads
# ---------------------------------------------------------------------------


def check_rng_reachability(
    index: ProjectIndex, display_paths: Dict[str, str]
) -> Iterator[Violation]:
    """REPRO110: unseeded RNG constructors reachable from algorithmic entrypoints."""
    dist = shortest_paths_from(index, index.algorithmic_entrypoints())
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        owner = _owner_map(mod)
        path = display_paths.get(mod_name, str(mod.path))
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_unseeded_rng(node, mod.aliases):
                continue
            fn = _function_of(mod, owner, node)
            if fn.key not in dist:
                continue
            dotted = _dotted(node.func, mod.aliases)
            yield _violation(
                "REPRO110", mod, node,
                f"unseeded '{dotted}()' is reachable from an algorithmic "
                f"entrypoint ({_witness(dist, fn.key)}); thread a seeded "
                "Generator from the run config instead",
                path,
            )


def _is_unseeded_rng(node: ast.Call, aliases: Dict[str, str]) -> bool:
    dotted = _dotted(node.func, aliases)
    if dotted in _UNSEEDED_CTORS and not node.args and not node.keywords:
        return True
    # Generator(PCG64()) and friends: bit generator constructed with no seed
    if dotted == "numpy.random.Generator" and node.args:
        inner = node.args[0]
        if isinstance(inner, ast.Call) and not inner.args and not inner.keywords:
            return True
    return False


def check_wallclock_reachability(
    index: ProjectIndex, display_paths: Dict[str, str]
) -> Iterator[Violation]:
    """REPRO111: wall-clock reads in helper layers reachable from entrypoints."""
    dist = shortest_paths_from(index, index.algorithmic_entrypoints())
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        if mod.is_algorithmic:
            continue  # REPRO102 already covers these file-locally
        owner = _owner_map(mod)
        path = display_paths.get(mod_name, str(mod.path))
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, mod.aliases)
            if dotted not in _WALL_CLOCK:
                continue
            fn = _function_of(mod, owner, node)
            if fn.key not in dist:
                continue
            yield _violation(
                "REPRO111", mod, node,
                f"wall-clock read '{dotted}' is reachable from an algorithmic "
                f"entrypoint ({_witness(dist, fn.key)}); algorithmic decisions "
                "must not depend on wall time",
                path,
            )


# ---------------------------------------------------------------------------
# REPRO112: Generator objects crossing a process boundary
# ---------------------------------------------------------------------------


def _annotation_mentions_generator(ann: Optional[ast.AST]) -> bool:
    if ann is None:
        return False
    for sub in ast.walk(ann):
        if isinstance(sub, ast.Name) and sub.id in _GENERATOR_ANN:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _GENERATOR_ANN:
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if any(g in sub.value for g in _GENERATOR_ANN):
                return True
    return False


def _generator_names(fn_node: ast.AST, aliases: Dict[str, str]) -> Set[str]:
    """Names holding a live Generator inside one function scope.

    Sources: parameters annotated ``Generator`` (any spelling), the
    conventional parameter name ``rng``, and assignments from a
    generator-producing call (``default_rng(seed)``, ``Generator(...)``,
    ``<gen>.spawn(...)`` elements are out of scope).
    """
    names: Set[str] = set()
    if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn_node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg == "rng" or _annotation_mentions_generator(arg.annotation):
                names.add(arg.arg)
    for sub in ast.walk(fn_node):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
            dotted = _dotted(sub.value.func, aliases)
            if dotted in _GENERATOR_CTORS:
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            if _annotation_mentions_generator(sub.annotation):
                names.add(sub.target.id)
    return names


def _is_dispatch(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The dispatch spelling if ``node`` ships payloads to workers."""
    func = node.func
    if isinstance(func, ast.Name):
        origin = aliases.get(func.id, func.id)
        leaf = origin.rsplit(".", 1)[-1]
        if leaf in _DISPATCH_FUNCS:
            return leaf
    elif isinstance(func, ast.Attribute):
        if func.attr in _DISPATCH_FUNCS:
            return func.attr
        if func.attr in _DISPATCH_METHODS:
            recv = func.value
            recv_name = recv.id if isinstance(recv, ast.Name) else (
                recv.attr if isinstance(recv, ast.Attribute) else ""
            )
            # only pool-/executor-shaped receivers; `dict.map` noise is not real
            if any(h in recv_name.lower() for h in ("pool", "executor", "runtime")):
                return f"{recv_name}.{func.attr}"
    return None


def check_generator_payloads(
    index: ProjectIndex, display_paths: Dict[str, str]
) -> Iterator[Violation]:
    """REPRO112: Generators in worker-pool payloads (direct or captured)."""
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        path = display_paths.get(mod_name, str(mod.path))
        for fn in mod.functions.values():
            fn_node = fn.node
            if fn.qualname == MODULE_BODY:
                continue
            gen_names = _generator_names(fn_node, mod.aliases)
            if not gen_names:
                continue
            # locally defined payload functions capturing a generator
            capturing_defs: Set[str] = set()
            for sub in ast.walk(fn_node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not fn_node:
                    free = {
                        n.id for n in ast.walk(sub)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    }
                    if free & gen_names:
                        capturing_defs.add(sub.name)
            for sub in ast.walk(fn_node):
                if not isinstance(sub, ast.Call):
                    continue
                spelling = _is_dispatch(sub, mod.aliases)
                if spelling is None:
                    continue
                hit = _payload_generator(sub, gen_names, capturing_defs)
                if hit is not None:
                    yield _violation(
                        "REPRO112", mod, sub,
                        f"Generator '{hit}' crosses a process boundary in a "
                        f"'{spelling}(...)' payload; generators do not share "
                        "state across pickling — pass derived seeds and "
                        "construct the Generator worker-side",
                        path,
                    )


def _payload_generator(
    call: ast.Call, gen_names: Set[str], capturing_defs: Set[str]
) -> Optional[str]:
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name):
                if sub.id in gen_names:
                    return sub.id
                if sub.id in capturing_defs:
                    return f"{sub.id} (captures a Generator)"
    return None


# ---------------------------------------------------------------------------
# REPRO113: CutCache keys that are not fingerprint-derived
# ---------------------------------------------------------------------------


def _cutcache_names(fn_node: ast.AST, aliases: Dict[str, str]) -> Set[str]:
    """Names known to hold a CutCache in one function scope."""
    names: Set[str] = set()

    def ann_is_cutcache(ann: Optional[ast.AST]) -> bool:
        if ann is None:
            return False
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Name) and sub.id == "CutCache":
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "CutCache":
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if "CutCache" in sub.value:
                    return True
        return False

    if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn_node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if ann_is_cutcache(arg.annotation):
                names.add(arg.arg)
    for sub in ast.walk(fn_node):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
            dotted = _dotted(sub.value.func, aliases) or ""
            leaf = dotted.rsplit(".", 1)[-1] if dotted else (
                sub.value.func.id if isinstance(sub.value.func, ast.Name) else ""
            )
            if leaf == "CutCache":
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            if ann_is_cutcache(sub.annotation):
                names.add(sub.target.id)
    return names


_STRINGY_CALLS = ("str", "repr", "hash", "bytes", "format", "encode", "join")


def _key_classification(expr: ast.AST, local_exprs: Dict[str, ast.AST]) -> str:
    """'fingerprint' | 'literal' | 'unknown' provenance of a key expression.

    A fingerprint-family call *anywhere* in the expression (or in the local
    assignment it resolves to) vets the key.  Otherwise a key whose root is
    a string composition — f-string, literal, ``str()``/``hash()`` product,
    concatenation/%-formatting of those — is 'literal' no matter what it
    interpolates: stringifying raw attributes is exactly the collision
    hazard.  Everything else (a parameter, an opaque call) is 'unknown' and
    assumed vetted upstream.
    """
    root = expr
    for _ in range(20):  # chase simple local aliases, cycle-bounded
        if isinstance(root, ast.Name) and root.id in local_exprs:
            root = local_exprs[root.id]
        else:
            break
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            fname = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else ""
            )
            if fname in _FINGERPRINT_CALLS:
                return "fingerprint"

    def stringy(node: ast.AST) -> bool:
        if isinstance(node, (ast.JoinedStr, ast.Constant)):
            return True
        if isinstance(node, ast.Call):
            fname = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else ""
            )
            return fname in _STRINGY_CALLS
        if isinstance(node, ast.BinOp):  # 'a' + x, 'fmt' % vals
            return stringy(node.left) or stringy(node.right)
        if isinstance(node, ast.Tuple):
            return any(stringy(elt) for elt in node.elts)
        return False

    return "literal" if stringy(root) else "unknown"


def check_cutcache_keys(
    index: ProjectIndex, display_paths: Dict[str, str]
) -> Iterator[Violation]:
    """REPRO113: CutCache get/put keyed by non-fingerprint expressions."""
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        path = display_paths.get(mod_name, str(mod.path))
        for fn in mod.functions.values():
            fn_node = fn.node
            caches = _cutcache_names(fn_node, mod.aliases)
            if not caches:
                continue
            local_exprs: Dict[str, ast.AST] = {}
            for sub in ast.walk(fn_node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    if isinstance(target, ast.Name):
                        local_exprs[target.id] = sub.value
            for sub in ast.walk(fn_node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if not isinstance(func, ast.Attribute) or func.attr not in ("get", "put"):
                    continue
                recv = func.value
                recv_name = recv.id if isinstance(recv, ast.Name) else None
                if recv_name not in caches:
                    continue
                if not sub.args:
                    continue
                kind = _key_classification(sub.args[0], local_exprs)
                if kind == "literal":
                    yield _violation(
                        "REPRO113", mod, sub,
                        f"CutCache.{func.attr}() keyed by a non-fingerprint "
                        "expression; keys must derive from "
                        "CutProblem.fingerprint() or "
                        "colliding networks will serve wrong cuts",
                        path,
                    )
