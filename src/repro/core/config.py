"""Configuration dataclasses with the paper's default parameters.

Defaults reproduce the experimental setup of Section 5: filtering with
``alpha = 1``, ``f = 10``, coverage ``C = 2``, both tiny- and natural-cut
detection; assembly with the L2+ local search, ``phi = 16``, no combination.
The balanced driver (Section 4/5) filters at ``U*/3``, builds ``ceil(32/k)``
(default) or ``ceil(256/k)`` (strong) unbalanced solutions with ``phi = 512``
and rebalances each 50 times with ``phi = 128``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..runtime.budget import RunBudget
from ..runtime.faults import FaultPlan

__all__ = [
    "FilterConfig",
    "AssemblyConfig",
    "PunchConfig",
    "BalancedConfig",
    "RuntimeConfig",
    "ParallelConfig",
]


@dataclass(frozen=True)
class ParallelConfig:
    """Shared-memory worker-pool policy (``src/repro/parallel/``).

    Setting ``parallel`` on a :class:`PunchConfig` / :class:`BalancedConfig`
    routes natural-cut detection, multistart assembly, and the balanced
    driver's unbalanced starts through the one persistent pool of a
    :class:`~repro.parallel.pool.ParallelRuntime`.  Without it the same
    tasks run inline, and the output is bit-identical either way (no
    runtime ≡ threads ≡ processes — see ``docs/PERFORMANCE.md``); the
    backend only decides where the work runs.
    """

    backend: str = "processes"  # "threads" | "processes"
    workers: Optional[int] = None  # None = os.cpu_count()

    def __post_init__(self) -> None:
        if self.backend not in ("threads", "processes"):
            raise ValueError(
                f"backend must be 'threads' or 'processes', got {self.backend!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for cpu_count)")


@dataclass(frozen=True)
class RuntimeConfig:
    """Resilience policy for a run (see ``docs/RESILIENCE.md``).

    The defaults are inert: no deadline, no per-subproblem timeout, no
    checkpointing, no fault injection — only the bounded-retry and
    pool/solver degradation safety nets are armed.  ``fault_plan`` is
    exclusively a test/CI hook.  The backoff ceiling, jitter, and jitter
    seed, and the watchdog's heartbeat interval and stall-beat limit, are
    constants of :mod:`repro.parallel.pool`, whose
    :class:`~repro.parallel.pool.ParallelRuntime` applies the last three
    fields.
    """

    time_budget: Optional[float] = None  # wall-clock seconds for the whole run
    subproblem_timeout: Optional[float] = None  # per min-cut subproblem (pooled only)
    max_retries: int = 2  # extra attempts per failed subproblem
    backoff_base: float = 0.05  # first retry delay (seconds); 0 disables sleeps
    checkpoint_path: Optional[str] = None  # where multistart/balanced loops checkpoint
    checkpoint_every: int = 4  # starts / rebalance attempts between checkpoint writes
    checkpoint_generations: int = 2  # rotated .bakN generations kept per checkpoint
    resume: bool = False  # continue from checkpoint_path if it exists
    fault_plan: Optional[FaultPlan] = None  # deterministic fault injection (tests)
    supervise: bool = False  # worker watchdog + pool restarts + orphan reaping
    heartbeat_timeout: float = 10.0  # seconds before a heartbeat declares the pool hung
    max_pool_restarts: int = 1  # fresh pools a supervised run may respawn

    def __post_init__(self) -> None:
        if self.time_budget is not None and self.time_budget < 0:
            raise ValueError("time_budget must be >= 0 (or None)")
        if self.subproblem_timeout is not None and self.subproblem_timeout <= 0:
            raise ValueError("subproblem_timeout must be > 0 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_generations < 1:
            raise ValueError("checkpoint_generations must be >= 1")
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume requires checkpoint_path")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")

    def make_budget(self) -> RunBudget:
        """A fresh :class:`RunBudget` for one run under this config."""
        return RunBudget(self.time_budget)


@dataclass(frozen=True)
class FilterConfig:
    """Parameters of the filtering phase (paper Section 2)."""

    alpha: float = 1.0  # BFS tree grows to alpha * U
    f: float = 10.0  # core is the first alpha * U / f of the tree
    coverage: int = 2  # C: number of natural-cut sweeps
    tau: int = 5  # tiny-cut tau-merge threshold
    detect_tiny_cuts: bool = True
    detect_natural_cuts: bool = True
    chunk_large_paths: bool = False  # pass-2 extension (off = paper behavior)
    # which CutEngine chooses the natural cut per subproblem: "push_relabel"
    # (paper's min cut, bit-identical default) or "flowcutter" (Pareto
    # enumeration; see docs/CUT_ENGINES.md and repro.cutengine)
    cut_engine: str = "push_relabel"
    # memoize min-cut solves by network fingerprint (bit-identical reuse;
    # see src/repro/perf/cut_cache.py)
    use_cut_cache: bool = True
    cut_cache_entries: int = 65536

    def __post_init__(self) -> None:
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1] to guarantee fragment sizes <= U")
        if self.f <= 1:
            raise ValueError("f must be > 1")
        if self.coverage < 1:
            raise ValueError("coverage must be >= 1")
        if self.cut_cache_entries < 1:
            raise ValueError("cut_cache_entries must be >= 1")
        # late import: the registry package is lightweight and must not
        # import configs back (engines only see CutProblem instances)
        from ..cutengine import available_engines

        if self.cut_engine not in available_engines():
            raise ValueError(
                f"cut_engine must be one of {available_engines()}, got {self.cut_engine!r}"
            )


@dataclass(frozen=True)
class AssemblyConfig:
    """Parameters of the assembly phase (paper Section 3)."""

    local_search: str = "L2+"  # one of "L2", "L2+", "L2*", "none"
    phi: int = 16  # max failures per adjacent cell pair
    multistart: int = 1  # M: greedy+LS iterations
    use_combination: bool = False  # evolutionary combination of elite pairs
    pool_capacity: Optional[int] = None  # default ceil(sqrt(M))
    # randomized greedy score parameters (paper: a = 0.03, b = 0.6)
    score_a: float = 0.03
    score_b: float = 0.6
    # combination weight perturbations p0 > p1 > p2 (paper: 5, 3, 2)
    p0: float = 5.0
    p1: float = 3.0
    p2: float = 2.0

    def __post_init__(self) -> None:
        if self.local_search not in ("L2", "L2+", "L2*", "none"):
            raise ValueError("local_search must be 'L2', 'L2+', 'L2*' or 'none'")
        if self.phi < 1:
            raise ValueError("phi must be >= 1")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")
        if not (0 <= self.score_a <= 1 and 0 <= self.score_b <= 1):
            raise ValueError("score_a and score_b must be in [0, 1]")
        if not (self.p0 >= self.p1 >= self.p2 > 0):
            raise ValueError("perturbation factors must satisfy p0 >= p1 >= p2 > 0")


@dataclass(frozen=True)
class PunchConfig:
    """Full PUNCH configuration: filtering + assembly + seeding."""

    filter: FilterConfig = field(default_factory=FilterConfig)
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    # None = every task runs inline; set to run them on a worker pool (same
    # partition either way)
    parallel: Optional[ParallelConfig] = None
    seed: Optional[int] = None

    def with_seed(self, seed: int) -> "PunchConfig":
        """Copy of this config with a different seed."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class BalancedConfig:
    """Balanced-partition driver configuration (paper Sections 4-5)."""

    epsilon: float = 0.03  # tolerated imbalance
    strong: bool = False  # strong PUNCH: ceil(256/k) starts instead of ceil(32/k)
    starts_numerator: Optional[int] = None  # override 32/256 if set
    rebalance_attempts: int = 50  # rebalances per unbalanced solution
    filter_divisor: int = 3  # filtering runs with U = U*/3
    phi_unbalanced: int = 512
    phi_rebalance: int = 128
    filter: FilterConfig = field(default_factory=FilterConfig)
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    # None = every task runs inline; set to run them on a worker pool (same
    # partition either way)
    parallel: Optional[ParallelConfig] = None
    seed: Optional[int] = None

    @property
    def numerator(self) -> int:
        """Multistart numerator: ceil(numerator / k) unbalanced starts."""
        if self.starts_numerator is not None:
            return self.starts_numerator
        return 256 if self.strong else 32

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.filter_divisor < 1:
            raise ValueError("filter_divisor must be >= 1")
