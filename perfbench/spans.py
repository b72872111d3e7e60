"""Span tracing for the traced run, recorded from the benchmark's own files.

The tracer wraps the program's public entry points at the module attributes
their callers look up (``repro.core.punch.run_filtering`` is the name
``run_punch`` calls, ``repro.filtering.pipeline.run_filtering`` the one the
benchmark calls), and restores every attribute when the traced round ends.
Each span records its name, start, end, parent span and op id; spans stay in
memory until the run ends.  A span's *self time* is its duration minus its
children's; the self time of an op's root span is the *remainder*, the part
of the op that no layer claims.

Span names are the per-layer metric keys: ``<layer>.<part>``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

ROOT = "op"

#: (module path, attribute, span name) of every wrapped function attribute
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.synthetic.roadnet", "road_network", "synthetic.generate"),
    ("repro.core.punch", "run_punch", "core.punch"),
    ("repro.core.punch", "run_filtering", "filtering.run"),
    ("repro.filtering.pipeline", "run_filtering", "filtering.run"),
    ("repro.filtering.pipeline", "run_tiny_cuts", "filtering.tiny_cuts"),
    ("repro.filtering.pipeline", "detect_natural_cuts", "filtering.natural_cuts"),
    ("repro.filtering.natural_cuts", "collect_cut_problems", "filtering.collect"),
    ("repro.filtering.natural_cuts", "resilient_map", "runtime.dispatch"),
    ("repro.core.punch", "run_assembly", "assembly.run"),
    ("repro.assembly.driver", "run_assembly", "assembly.run"),
    ("repro.assembly.multistart", "greedy_labels_for_graph", "assembly.greedy"),
    ("repro.assembly.multistart", "local_search", "assembly.local_search"),
    ("repro.serve.engine", "build_overlay", "crp.build_overlay"),
    ("repro.serve.engine", "customize_overlay", "crp.customize"),
    ("repro.serve.engine", "patch_overlay", "crp.patch"),
    ("repro.serve.engine", "patch_overlay_weights", "crp.patch"),
    ("repro.updates.engine", "run_punch", "updates.repair"),
)

#: (module path, class, method, span name) of every wrapped method
METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serve.engine", "ServingEngine", "__init__", "serve.engine"),
    ("repro.serve.engine", "ServingEngine", "customize", "serve.engine"),
    ("repro.serve.engine", "ServingEngine", "enable_updates", "serve.engine"),
    ("repro.serve.engine", "ServingEngine", "apply_update", "serve.engine"),
    ("repro.serve.engine", "ServingEngine", "query_batch", "serve.query_batch"),
    ("repro.updates.engine", "IncrementalUpdater", "apply", "updates.apply"),
)

#: every span name a layer claims, in report order; the root's self time is
#: reported as ``trace.remainder``
LAYER_SPANS: Tuple[str, ...] = (
    "synthetic.generate",
    "filtering.run",
    "filtering.tiny_cuts",
    "filtering.natural_cuts",
    "filtering.collect",
    "runtime.dispatch",
    "cutengine.solve",
    "assembly.run",
    "assembly.greedy",
    "assembly.local_search",
    "core.punch",
    "crp.build_overlay",
    "crp.customize",
    "crp.patch",
    "serve.engine",
    "serve.query_batch",
    "updates.apply",
    "updates.repair",
)


class NullTracer:
    """The untraced run's tracer: every hook is free."""

    active = False

    def op(self, kind: str):
        return nullcontext()

    def set_scale(self, scale: float) -> None:
        pass


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    active = True

    def __init__(self) -> None:
        # span: [name, start, end, parent index (-1 = root), op id]
        self.spans: List[list] = []
        self.scales: Dict[int, float] = {}  # op id -> normalization factor
        self.op_kinds: Dict[int, str] = {}
        self.natural_stats: List[Any] = []  # NaturalCutStats per detection
        self.multistart_stats: List[Any] = []  # MultistartStats per assembly
        self.fragments: List[int] = []  # fragment-graph sizes per filtering
        self._stack: List[int] = []
        self._op = -1
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """Root span of one timed unit (a setup step or an op)."""
        self._op = len(self.op_kinds)
        self.op_kinds[self._op] = kind
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def set_scale(self, scale: float) -> None:
        """Normalization factor (normalized / raw) of the op just closed."""
        self.scales[self._op] = scale

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, out)
            return out

        return traced

    def _count(self, name: str, out: Any) -> None:
        """Counts from the public result objects, taken where they return."""
        if name == "filtering.natural_cuts":
            self.natural_stats.append(out[1])
        elif name == "filtering.run":
            self.fragments.append(int(out.fragment_graph.n))
        elif name == "assembly.run":
            self.multistart_stats.append(out.stats)

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        import importlib

        for mod_name, attr, name in FUNCTION_TARGETS:
            mod = importlib.import_module(mod_name)
            self._set(mod, attr, self.wrap(getattr(mod, attr), name))
        for mod_name, cls_name, meth, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._set(cls, meth, self.wrap(cls.__dict__[meth], name))

        from repro.cutengine.push_relabel import PushRelabelEngine

        chain = PushRelabelEngine.__dict__["solve_chain"]
        wrap = self.wrap

        def solve_chain(engine, solver):
            return [wrap(attempt, "cutengine.solve") for attempt in chain(engine, solver)]

        self._set(PushRelabelEngine, "solve_chain", solve_chain)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Raw self seconds of every span: its duration minus its children's."""
        out = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                out[span[3]] -= span[2] - span[1]
        return out

    def layer_totals(self) -> Tuple[Dict[str, float], float, float]:
        """Normalized self seconds per span name.

        Returns ``(per_name, remainder, total)`` where ``remainder`` is the
        roots' own self time and ``total`` the roots' summed duration.
        """
        per: Dict[str, float] = {name: 0.0 for name in LAYER_SPANS}
        remainder = total = 0.0
        for span, own in zip(self.spans, self.self_times()):
            scale = self.scales.get(span[4], 1.0)
            if span[0] == ROOT:
                remainder += own * scale
                total += (span[2] - span[1]) * scale
            else:
                per[span[0]] = per.get(span[0], 0.0) + own * scale
        return per, remainder, total

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def check_additivity(self, tol: float = 1e-9) -> float:
        """Check that every op's layer self times plus remainder add up.

        Verifies that spans nest (each child lies inside its parent and in
        the same op), that no self time is negative, and that per op the
        self times sum to the root's duration.  Returns the largest
        per-op discrepancy in seconds; raises ``AssertionError`` on any
        violation.
        """
        spans = self.spans
        own = self.self_times()
        per_op: Dict[int, float] = {}
        root_dur: Dict[int, float] = {}
        for span, s_own in zip(spans, own):
            name, start, end, parent, op = span
            if end < start:
                raise AssertionError(f"span {name} ends before it starts")
            if s_own < -tol:
                raise AssertionError(f"span {name} has negative self time {s_own}")
            if parent == -1:
                if name != ROOT:
                    raise AssertionError(f"span {name} runs outside any op")
                root_dur[op] = end - start
            else:
                p = self.spans[parent]
                if p[4] != op or start < p[1] or end > p[2]:
                    raise AssertionError(f"span {name} is not nested in its parent {p[0]}")
            per_op[op] = per_op.get(op, 0.0) + s_own
        worst = 0.0
        for op, dur in root_dur.items():
            err = abs(per_op.get(op, 0.0) - dur)
            if err > tol * max(1.0, dur) + 1e-12:
                raise AssertionError(f"op {op}: self times sum to {per_op[op]}, op took {dur}")
            worst = max(worst, err)
        return worst

    def export(self) -> dict:
        """Every span, plus each op's kind and normalization factor."""
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "ops": {str(k): {"kind": v, "scale": self.scales.get(k)}
                    for k, v in self.op_kinds.items()},
        }
