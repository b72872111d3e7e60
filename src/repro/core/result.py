"""Result objects returned by the PUNCH drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


from ..assembly.multistart import MultistartStats
from ..filtering.pipeline import FilterResult
from ..lint.sanitizer import get_sanitizer
from .partition import Partition

__all__ = ["PunchResult", "BalancedResult", "sanitizer_section"]


def sanitizer_section(report: dict) -> dict:
    """Attach ``report["sanitizer"]`` when the runtime sanitizer is active.

    Public because every ``run_report()`` producer in the repo (driver
    results here, :class:`repro.serve.engine.ServingEngine`,
    :class:`repro.serve.replay.ReplayResult`) shares the same convention.
    """
    san = get_sanitizer()
    if san.enabled:
        report["sanitizer"] = san.report()
    return report


def _merge_assembly(report: dict, incidents: dict) -> None:
    """Add assembly incidents; a key filtering also reports gets a prefix."""
    for key, value in incidents.items():
        report[f"assembly_{key}" if key in report else key] = value


def _add_counts(total: dict, part: dict) -> None:
    """Add one run report's counters into ``total`` (flags are OR-ed)."""
    for key, value in part.items():
        if isinstance(value, dict):
            _add_counts(total.setdefault(key, {}), value)
        elif isinstance(value, bool):
            total[key] = total.get(key, False) or value
        elif isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value
        else:
            total[key] = value


@dataclass
class PunchResult:
    """Outcome of one unbalanced PUNCH run (paper Table 1 quantities)."""

    partition: Partition
    U: int
    filter_result: FilterResult
    assembly_stats: Optional[MultistartStats]
    time_tiny: float
    time_natural: float
    time_assembly: float
    # worker-pool telemetry (worker count, batches, pool breaks and
    # restarts); empty when the run had no worker pool
    parallel_report: dict = field(default_factory=dict)
    # supervision telemetry (watchdog detections, heartbeats, restarts);
    # empty when the run was unsupervised or had no worker pool
    supervisor_report: dict = field(default_factory=dict)
    # one result per multi-vertex component of a disconnected input; the
    # fragment count, the run report and assembly_stats (counters and
    # per-iteration costs summed) cover them all, filter_result is the last
    # component's
    components: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.components:
            self.assembly_stats = MultistartStats.summed(
                [c.assembly_stats for c in self.components]
            )

    @property
    def cost(self) -> float:
        """Cut weight of the partition."""
        return self.partition.cost

    @property
    def num_cells(self) -> int:
        """Number of cells in the partition."""
        return self.partition.num_cells

    @property
    def num_fragments(self) -> int:
        """|V'| of the paper: vertices after filtering (an isolated vertex
        of a disconnected input is a fragment and a cell of its own)."""
        if not self.components:
            return self.filter_result.fragment_graph.n
        isolated = self.num_cells - sum(c.num_cells for c in self.components)
        return sum(c.num_fragments for c in self.components) + isolated

    @property
    def time_total(self) -> float:
        """Total wall time across the three phases."""
        return self.time_tiny + self.time_natural + self.time_assembly

    @property
    def lower_bound_cells(self) -> int:
        """LB = ceil(n / U)."""
        return -(-self.partition.graph.total_size() // self.U)

    def run_report(self) -> dict:
        """Resilience incidents across both phases (empty dict = clean run).

        Keys follow docs/RESILIENCE.md: retries, timeouts, skipped,
        deadline_skipped, solver_fallbacks, executor_degradations,
        deadline_expired, resumed_at, checkpoints_written.  On a
        disconnected input the counters are summed over the components.
        """
        report: dict = {}
        assembly: dict = {}
        for part in self.components or [self]:
            _add_counts(report, part.filter_result.run_report())
            if part.assembly_stats is not None:
                _add_counts(assembly, part.assembly_stats.incidents())
        cache = report.get("cut_cache")
        if cache:
            cache["hit_rate"] = cache["hits"] / (cache["hits"] + cache["misses"])
        _merge_assembly(report, assembly)
        if self.parallel_report:
            report["parallel"] = dict(self.parallel_report)
        if self.supervisor_report:
            report["supervisor"] = dict(self.supervisor_report)
        return sanitizer_section(report)

    def summary(self) -> str:
        """One-line human-readable result summary."""
        line = (
            f"U={self.U}: cells={self.num_cells} (LB {self.lower_bound_cells}), "
            f"|V'|={self.num_fragments}, cost={self.cost:g}, "
            f"time tny/nat/asm = {self.time_tiny:.1f}/{self.time_natural:.1f}/"
            f"{self.time_assembly:.1f}s"
        )
        incidents = self.run_report()
        # the filtering, cut-cache, worker-pool, supervisor, and sanitizer
        # sections are informational
        incidents.pop("filtering", None)
        incidents.pop("cut_cache", None)
        incidents.pop("parallel", None)
        incidents.pop("supervisor", None)
        incidents.pop("sanitizer", None)
        if incidents:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(incidents.items()))
            line += f" [resilience: {detail}]"
        return line


@dataclass
class BalancedResult:
    """Outcome of one balanced PUNCH run (paper Tables 2-4 quantities)."""

    partition: Partition
    k: int
    epsilon: float
    U_star: int
    time_total: float
    attempts: int = 0
    failed_rebalances: int = 0
    unbalanced_costs: list = field(default_factory=list)
    # resilience accounting (docs/RESILIENCE.md)
    deadline_expired: bool = False  # driver stopped early on the budget
    resumed_at: int = -1  # start index restored from a checkpoint (-1 = fresh)
    checkpoints_written: int = 0
    # non-empty when the resume degraded (older generation / fresh start)
    checkpoint_recovery: dict = field(default_factory=dict)
    # dispatch incidents of the unbalanced starts (lost starts show here)
    assembly_report: dict = field(default_factory=dict)
    filter_report: dict = field(default_factory=dict)
    # worker-pool telemetry; empty when the run had no worker pool
    parallel_report: dict = field(default_factory=dict)
    # supervision telemetry; empty when the run was unsupervised or had no
    # worker pool
    supervisor_report: dict = field(default_factory=dict)

    @property
    def cost(self) -> float:
        return self.partition.cost

    def feasible(self) -> bool:
        """At most k cells, none above U*."""
        return (
            self.partition.num_cells <= self.k
            and self.partition.max_cell_size() <= self.U_star
        )

    def run_report(self) -> dict:
        """Resilience incidents of the whole run (empty dict = clean run)."""
        report = dict(self.filter_report)
        _merge_assembly(report, self.assembly_report)
        if self.deadline_expired:
            report["deadline_expired"] = True
        if self.resumed_at >= 0:
            report["resumed_at"] = self.resumed_at
        if self.checkpoints_written:
            report["checkpoints_written"] = self.checkpoints_written
        if self.checkpoint_recovery:
            report["checkpoint_recovery"] = dict(self.checkpoint_recovery)
        if self.parallel_report:
            report["parallel"] = dict(self.parallel_report)
        if self.supervisor_report:
            report["supervisor"] = dict(self.supervisor_report)
        return sanitizer_section(report)

    def summary(self) -> str:
        line = (
            f"k={self.k} eps={self.epsilon}: cells={self.partition.num_cells}, "
            f"cost={self.cost:g}, max cell={self.partition.max_cell_size()} "
            f"(U*={self.U_star}), time={self.time_total:.1f}s"
        )
        incidents = self.run_report()
        incidents.pop("filtering", None)
        incidents.pop("cut_cache", None)
        incidents.pop("parallel", None)
        incidents.pop("supervisor", None)
        incidents.pop("sanitizer", None)
        if incidents:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(incidents.items()))
            line += f" [resilience: {detail}]"
        return line
