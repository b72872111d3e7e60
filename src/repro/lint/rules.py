"""Rule catalog of the determinism & parallel-safety analyzer.

Every rule is project-specific: it encodes one hazard class that would
break a PUNCH reproduction contract (bit-identical partitions across
executors, RNG-draw parity, read-only shared views) rather than a general
style preference.  Rules are small AST passes over one module; the engine
(:mod:`.engine`) parses the file once, hands each rule a
:class:`LintContext`, and filters ``# repro: noqa(RULE)`` suppressions.

Scopes
------
``all``          : every module under the linted tree.
``algorithmic``  : modules whose path crosses ``graph/``, ``flow/``,
                   ``filtering/``, ``assembly/`` or ``balanced/`` — the
                   packages whose outputs must be bit-reproducible.
``parallel``     : modules under ``parallel/`` — task payloads must stay
                   picklable and fork-safe.

Adding a rule: subclass :class:`Rule`, implement :meth:`Rule.check`, and
append an instance to :data:`RULES`.  See ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "LintContext",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "ProjectRuleInfo",
    "PROJECT_RULES",
    "PROJECT_RULES_BY_ID",
    "KNOWN_RULE_IDS",
    "META_RULE_ID",
]

#: path segments that mark a module as algorithmic (bit-reproducible output)
ALGORITHMIC_PACKAGES = (
    "graph",
    "flow",
    "cutengine",
    "filtering",
    "assembly",
    "balanced",
    "crp",
    "serve",
    "updates",
)

#: CSR / shared-view array fields of :class:`repro.graph.graph.Graph`
CSR_FIELDS = frozenset(
    {"xadj", "adjncy", "eid", "edge_u", "edge_v", "vsize", "ewgt", "half_ewgt",
     "_half_ewgt", "coords"}
)

#: ``numpy.random`` attributes that are *not* legacy global-state draws
_NP_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "BitGenerator", "SeedSequence", "RandomState",
     "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}
)

#: wall-clock reads that must not feed algorithmic decisions (telemetry
#: clocks like ``time.perf_counter`` / ``time.process_time`` stay allowed)
_WALL_CLOCK = frozenset(
    {"time.time", "time.time_ns", "datetime.datetime.now",
     "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today"}
)

#: callables that capture the iteration order of their argument
_ORDER_CAPTURING = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: order-free consumers: a comprehension fed straight into one of these is
#: a commutative reduction (or a canonicalization), so set order cannot leak
_ORDER_FREE = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset"}
)


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def key(self) -> Tuple[str, int, int, str]:
        """Stable sort key (path, line, col, rule)."""
        return (self.path, self.line, self.col, self.rule)


class LintContext:
    """Everything a rule needs to analyze one module."""

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        parts = path.replace("\\", "/").split("/")
        self.is_algorithmic = any(p in ALGORITHMIC_PACKAGES for p in parts)
        self.is_parallel = "parallel" in parts
        self.aliases = _collect_import_aliases(tree)

    def in_scope(self, scope: str) -> bool:
        """Whether this module falls under a rule's scope."""
        if scope == "all":
            return True
        if scope == "algorithmic":
            return self.is_algorithmic
        if scope == "parallel":
            return self.is_parallel
        raise ValueError(f"unknown rule scope {scope!r}")


def _collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map locally bound names to the dotted origin they import.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy import random
    as npr`` binds ``npr -> numpy.random``; ``from os import environ`` binds
    ``environ -> os.environ``.  Function-level imports are included — the
    binding is treated file-wide, which errs on the side of reporting.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.split(".", 1)[0]
                origin = name.name if name.asname else name.name.split(".", 1)[0]
                aliases[bound] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.shuffle`` to ``numpy.random.shuffle`` (or None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


class Rule:
    """Base class: one hazard class, one scope, one AST pass."""

    id: str = ""
    name: str = ""
    description: str = ""
    scope: str = "all"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Yield every hit of this rule in the module."""
        raise NotImplementedError

    def hit(self, ctx: LintContext, node: ast.AST, message: str) -> Violation:
        """Build a violation anchored at ``node``."""
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


class GlobalRngRule(Rule):
    """REPRO101: unseeded ``random`` / ``np.random`` global-state calls.

    Module-level RNG state is shared, unseeded by default, and consumed in
    library-call order — any draw from it makes partitions depend on what
    else ran in the process.  All randomness must flow through an explicit
    ``numpy.random.Generator`` threaded from the run seed.
    """

    id = "REPRO101"
    name = "global-rng"
    description = "unseeded random/np.random global-state call"
    scope = "all"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, ctx.aliases)
            if dotted is None:
                continue
            if dotted.startswith("random."):
                yield self.hit(
                    ctx, node,
                    f"call to stdlib global RNG '{dotted}'; thread a seeded "
                    "np.random.Generator instead",
                )
            elif dotted.startswith("numpy.random."):
                leaf = dotted.split(".")[2]
                if leaf not in _NP_RANDOM_ALLOWED:
                    yield self.hit(
                        ctx, node,
                        f"call to numpy legacy global RNG '{dotted}'; use a "
                        "seeded np.random.Generator (default_rng) instead",
                    )


class WallClockRule(Rule):
    """REPRO102: wall-clock reads inside algorithmic modules.

    ``time.time()`` / ``datetime.now()`` values differ between runs, so any
    decision derived from them breaks bit-reproducibility.  Monotonic
    telemetry clocks (``perf_counter``, ``process_time``) stay allowed —
    they only ever feed timing reports.
    """

    id = "REPRO102"
    name = "wall-clock"
    description = "wall-clock read (time.time/datetime.now) in an algorithmic module"
    scope = "algorithmic"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, ctx.aliases)
            if dotted in _WALL_CLOCK:
                yield self.hit(
                    ctx, node,
                    f"wall-clock read '{dotted}' in an algorithmic module; "
                    "pass timing through RunBudget / telemetry instead",
                )


class EnvReadRule(Rule):
    """REPRO103: ``os.environ`` / ``os.getenv`` reads in algorithmic modules.

    Environment state is invisible to the run configuration: a partition
    that changes with an env var cannot be reproduced from its recorded
    config + seed.  Environment switches belong in the CLI / config layer.
    """

    id = "REPRO103"
    name = "env-read"
    description = "os.environ/os.getenv read in an algorithmic module"
    scope = "algorithmic"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func, ctx.aliases)
                if dotted in ("os.getenv", "os.environb.get"):
                    yield self.hit(
                        ctx, node,
                        f"environment read '{dotted}' in an algorithmic module; "
                        "route switches through the config dataclasses",
                    )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if _dotted(node, ctx.aliases) == "os.environ":
                    yield self.hit(
                        ctx, node,
                        "os.environ access in an algorithmic module; route "
                        "switches through the config dataclasses",
                    )


class _SetNames(ast.NodeVisitor):
    """Collect names bound to (or annotated as) built-in sets in one scope."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    @staticmethod
    def _is_set_annotation(ann: ast.AST) -> bool:
        target = ann.value if isinstance(ann, ast.Subscript) else ann
        if isinstance(target, ast.Name):
            return target.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
        if isinstance(target, ast.Attribute):
            return target.attr in ("Set", "FrozenSet", "AbstractSet")
        return False

    def is_set_expr(self, node: ast.AST) -> bool:
        """Syntactic test: does ``node`` evaluate to a built-in set?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if self.is_set_expr(node.value):
                self.names.add(node.targets[0].id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and self._is_set_annotation(node.annotation):
            self.names.add(node.target.id)
        self.generic_visit(node)

    def visit_arguments(self, node: ast.arguments) -> None:
        for arg in list(node.posonlyargs) + list(node.args) + list(node.kwonlyargs):
            if arg.annotation is not None and self._is_set_annotation(arg.annotation):
                self.names.add(arg.arg)

    # nested scopes run their own pass; do not leak their bindings here
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class UnorderedIterationRule(Rule):
    """REPRO104: set iteration order escaping into algorithmic decisions.

    CPython set order depends on insertion history and table resizes; it is
    stable enough to pass tests on one interpreter build and silently
    different on the next.  Iterating a set in a ``for`` loop, materializing
    it with ``list``/``tuple``/``iter``/``enumerate``, or seeding from
    ``next(iter(s))`` leaks that order into fragment/partition decisions.
    Order-free reductions (``len``/``min``/``max``/``sum``/``any``/``all``/
    ``sorted``/membership) are fine and not flagged.
    """

    id = "REPRO104"
    name = "unordered-iteration"
    description = "set iteration order escapes into a decision path"
    scope = "algorithmic"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        yield from self._check_scope(ctx, ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node)

    def _check_scope(self, ctx: LintContext, scope: ast.AST) -> Iterator[Violation]:
        tracker = _SetNames()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            tracker.visit_arguments(scope.args)
            body: Sequence[ast.stmt] = scope.body
        else:
            body = getattr(scope, "body", [])
        for stmt in body:
            tracker.visit(stmt)
        yield from self._scan(ctx, body, tracker)

    def _scan(
        self, ctx: LintContext, body: Sequence[ast.stmt], tracker: _SetNames
    ) -> Iterator[Violation]:
        # comprehensions that feed an order-free reduction (sum/min/...) are
        # commutative — exempt them so `sum(x for x in some_set)` stays clean
        exempt: Set[int] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_FREE
                    and node.args
                    and isinstance(node.args[0], (ast.GeneratorExp, ast.SetComp, ast.ListComp))
                ):
                    exempt.add(id(node.args[0]))
        for stmt in body:
            for node in ast.walk(stmt):
                # nested function scopes are re-scanned with their own table
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node in body:
                    break
                if isinstance(node, ast.For) and tracker.is_set_expr(node.iter):
                    yield self.hit(
                        ctx, node.iter,
                        "iterating a set in a for loop; order is hash-table "
                        "dependent — iterate sorted(...) or an ordered structure",
                    )
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    if id(node) in exempt:
                        continue
                    for gen in node.generators:
                        if tracker.is_set_expr(gen.iter):
                            yield self.hit(
                                ctx, gen.iter,
                                "comprehension over a set; order is hash-table "
                                "dependent — iterate sorted(...) instead",
                            )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_CAPTURING
                    and node.args
                    and tracker.is_set_expr(node.args[0])
                ):
                    yield self.hit(
                        ctx, node,
                        f"'{node.func.id}(...)' captures set iteration order; "
                        "use sorted(...) for a canonical order",
                    )


class IdOrderingRule(Rule):
    """REPRO105: ``id()``-based ordering.

    ``id()`` is an allocation address: sorting or comparing by it makes the
    outcome depend on the heap layout of the run.  Keying a registry by
    ``id`` is fine (identity lookup); *ordering* by it never is.
    """

    id = "REPRO105"
    name = "id-ordering"
    description = "id()-based ordering (sort key or magnitude comparison)"
    scope = "all"

    @staticmethod
    def _is_id_key(node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        if isinstance(node, ast.Lambda):
            return any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                for sub in ast.walk(node.body)
            )
        return False

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Name) and fn.id in ("sorted", "min", "max"):
                    for kw in node.keywords:
                        if kw.arg == "key" and self._is_id_key(kw.value):
                            yield self.hit(
                                ctx, node,
                                f"'{fn.id}' keyed by id(); object addresses are "
                                "not reproducible — sort by a stable attribute",
                            )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                ordered = any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
                )
                if ordered and any(
                    isinstance(x, ast.Call)
                    and isinstance(x.func, ast.Name)
                    and x.func.id == "id"
                    for x in operands
                ):
                    yield self.hit(
                        ctx, node,
                        "magnitude comparison of id(); object addresses are "
                        "not reproducible — compare a stable attribute",
                    )


class SharedViewMutationRule(Rule):
    """REPRO106: mutation of CSR graph arrays.

    :class:`~repro.graph.graph.Graph` arrays are shared by reference: the
    contraction chain, the memoized half-edge weights, cut subproblems and
    every caller holding the graph read the same buffers, so a write through
    any view silently changes all of them.  Graphs are immutable by
    contract — transformations build new arrays.
    """

    id = "REPRO106"
    name = "shared-view-mutation"
    description = "in-place write to a CSR graph array"
    scope = "all"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        class_stack: List[str] = []
        yield from self._walk(ctx, ctx.tree, class_stack)

    def _walk(
        self, ctx: LintContext, node: ast.AST, class_stack: List[str]
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                class_stack.append(child.name)
                yield from self._walk(ctx, child, class_stack)
                class_stack.pop()
                continue
            yield from self._check_node(ctx, child, class_stack)
            yield from self._walk(ctx, child, class_stack)

    def _check_node(
        self, ctx: LintContext, node: ast.AST, class_stack: List[str]
    ) -> Iterator[Violation]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                field = self._csr_store_field(target)
                if field is None:
                    continue
                if isinstance(target, ast.Attribute) and "Graph" in class_stack:
                    continue  # Graph's own constructors bind these fields
                yield self.hit(
                    ctx, target,
                    f"write to CSR array field '{field}'; graphs are "
                    "immutable and their arrays are shared by reference",
                )
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr == "setflags":
                for kw in node.keywords:
                    if (
                        kw.arg == "write"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        yield self.hit(
                            ctx, node,
                            "setflags(write=True) re-enables writes on an array "
                            "view; CSR views must stay read-only",
                        )

    @staticmethod
    def _csr_store_field(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr in CSR_FIELDS:
                return value.attr
        elif isinstance(target, ast.Attribute) and target.attr in CSR_FIELDS:
            return target.attr
        return None


class ForkUnsafePayloadRule(Rule):
    """REPRO107: fork-unsafe state in worker-pool task payloads.

    Pool tasks pickle by qualified name and may run under fork *or* spawn:
    lambdas do not pickle, ``global`` writes silently diverge between the
    driver and workers, and mutable default arguments smuggle driver-side
    state into payloads where each process mutates its own copy.
    """

    id = "REPRO107"
    name = "fork-unsafe-payload"
    description = "fork-unsafe construct in a parallel task module"
    scope = "parallel"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Lambda):
                yield self.hit(
                    ctx, node,
                    "lambda in a parallel module; task payloads must pickle "
                    "by qualified name — use a module-level def",
                )
            elif isinstance(node, ast.Global):
                # allow inside explicit per-process initializers/registries:
                # flag only when the enclosing function is dispatched state
                yield self.hit(
                    ctx, node,
                    f"'global {', '.join(node.names)}' mutates module state; "
                    "driver and worker copies diverge under fork/spawn — "
                    "return the value or use an explicit registry",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]:
                    if self._is_mutable_default(default):
                        yield self.hit(
                            ctx, default,
                            f"mutable default argument in '{node.name}'; each "
                            "process mutates its own copy — default to None",
                        )

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False


class SilentExceptRule(Rule):
    """REPRO108: bare ``except:`` and swallowed exceptions.

    The resilient executor's contract is that every failure is *counted* —
    retried, degraded, or skipped with accounting.  A bare ``except:`` also
    catches ``KeyboardInterrupt``/``SystemExit``, and a pass-only handler
    erases the incident entirely.  Intentional suppression should use
    ``contextlib.suppress(...)`` (visible, typed) or a ``# repro: noqa``.
    """

    id = "REPRO108"
    name = "silent-except"
    description = "bare except or exception handler that swallows the error"
    scope = "all"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.hit(
                    ctx, node,
                    "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                    "name the exception type",
                )
            elif all(
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                for stmt in node.body
            ):
                yield self.hit(
                    ctx, node,
                    "exception swallowed without accounting; use "
                    "contextlib.suppress(...) or count the incident",
                )


class BareSharedMemoryRule(Rule):
    """REPRO109: ``SharedMemory(...)`` constructed anywhere.

    Pool tasks carry their inputs by value, so the package owns no
    shared-memory segment and has no finalizer or reaper to clean one up.
    A ``SharedMemory(...)`` segment that is not unlinked — a crash between
    create and unlink is enough — leaks ``/dev/shm`` until reboot.
    """

    id = "REPRO109"
    name = "bare-shared-memory"
    description = "SharedMemory constructed (tasks carry values, not segments)"
    scope = "all"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, ctx.aliases)
            if dotted == "multiprocessing.shared_memory.SharedMemory":
                yield self.hit(
                    ctx, node,
                    "bare SharedMemory(...) leaks /dev/shm when a crash skips "
                    "its unlink; pass task inputs by value instead",
                )


RULES: Tuple[Rule, ...] = (
    GlobalRngRule(),
    WallClockRule(),
    EnvReadRule(),
    UnorderedIterationRule(),
    IdOrderingRule(),
    SharedViewMutationRule(),
    ForkUnsafePayloadRule(),
    SilentExceptRule(),
    BareSharedMemoryRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}


@dataclass(frozen=True)
class ProjectRuleInfo:
    """Catalog entry for a whole-project pass (implemented outside this module).

    The project passes need cross-file state (call graph, test index,
    layer declaration) that a per-file :class:`Rule` never sees; their
    implementations live in :mod:`.dataflow`, :mod:`.contracts` and
    :mod:`.layers`, but their *identities* are declared here so the noqa
    validator, ``--select``, and ``--list-rules`` know the full id space.
    """

    id: str
    name: str
    description: str
    scope: str = "project"


#: the meta-rule: problems with suppression comments themselves
META_RULE_ID = "REPRO000"

PROJECT_RULES: Tuple[ProjectRuleInfo, ...] = (
    ProjectRuleInfo(
        "REPRO110", "rng-reaches-entrypoint",
        "unseeded RNG constructor reachable from an algorithmic entrypoint",
    ),
    ProjectRuleInfo(
        "REPRO111", "wall-clock-taint",
        "wall-clock read in a helper reachable from an algorithmic entrypoint",
    ),
    ProjectRuleInfo(
        "REPRO112", "generator-pool-payload",
        "np.random.Generator crossing a process boundary in a pool payload",
    ),
    ProjectRuleInfo(
        "REPRO113", "cutcache-key-provenance",
        "CutCache key not derived from a network fingerprint",
    ),
    ProjectRuleInfo(
        "REPRO114", "layering",
        "module-scope import violates the declared architecture DAG or cycles",
    ),
    ProjectRuleInfo(
        "REPRO115", "twin-drift",
        "vectorized kernel and its *_reference twin drifted or lack a shared test",
    ),
)

PROJECT_RULES_BY_ID: Dict[str, ProjectRuleInfo] = {r.id: r for r in PROJECT_RULES}

#: every id a ``repro: noqa(...)`` suppression comment may legally name
KNOWN_RULE_IDS = frozenset(
    {rule.id for rule in RULES}
    | {info.id for info in PROJECT_RULES}
    | {META_RULE_ID}
)
