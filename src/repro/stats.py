"""Event counters and execution profiles.

Three consumers:

* the Figure 11 reproduction needs the fraction of dynamic bytecodes
  executed by the interpreter, while recording, and on native traces;
* the evaluation narrative needs tracing-event counts (trees formed,
  branch traces attached, aborts, blacklistings, side exits, ...);
* the trace cache reports its lifecycle (flushes, retired fragments).

Lifecycle counts have **one store**: the VM's
:class:`repro.obs.metrics.MetricsRegistry`, created here by
:class:`VMStats` and fed by folding the structured event stream
(:mod:`repro.core.events`).  :class:`TraceStats` reads them back under
their historical names as read-only views.  Only per-bytecode and
per-instruction figures that are too hot for event dispatch
(``trace_entries``, the two transfer counts,
``loop_iterations_native``, ...) are plain ints incremented directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.costs import Activity, CycleLedger
from repro.obs.metrics import MetricsRegistry


@dataclass
class ExecutionProfile:
    """Dynamic bytecode counts by execution mode (Figure 11)."""

    interpreted: int = 0
    recorded: int = 0
    native: int = 0

    @property
    def total(self) -> int:
        return self.interpreted + self.recorded + self.native

    def fraction_native(self) -> float:
        """Fraction of dynamic bytecodes executed on compiled traces."""
        total = self.total
        if total == 0:
            return 0.0
        return self.native / total

    def fraction_recorded(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.recorded / total

    def fraction_interpreted(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.interpreted / total


def _count(family: str, **labels) -> property:
    """A read-only view of one registry series (or a family's total)."""
    if labels:
        return property(lambda self: getattr(self.metrics, family).value(**labels))
    return property(lambda self: getattr(self.metrics, family).total)


@dataclass
class TraceStats:
    """Counters for tracing events.

    The int fields are hot counts, incremented directly.  Every other
    count is a view of :attr:`metrics`, the VM's registry, which folds
    the event stream.
    """

    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )
    tree_calls_recorded: int = 0
    tree_calls_executed: int = 0
    trace_entries: int = 0
    #: Fragment-to-fragment transfers that stayed native: a guard whose
    #: exit is patched to a branch trace jumped straight into it.
    transfers_stitched: int = 0
    loop_iterations_native: int = 0
    oracle_marks: int = 0
    guards_emitted: int = 0
    deep_bails: int = 0

    loops_seen = _count("trace_lookups", result="miss")
    recordings_started = _count("recordings")
    traces_completed = _count("compiles")
    traces_aborted = _count("record_aborts")
    trees_formed = _count("compiles", fragment="root")
    unstable_traces = _count("unstable_trees")
    unstable_links = _count("unstable_links")
    side_exits_taken = _count("side_exits")
    blacklisted = _count("blacklists")
    backoffs = _count("backoffs")
    opt_cse_removed = _count("optimizer_rewrites", kind="cse")
    opt_guards_eliminated = _count("optimizer_rewrites", kind="guards_elim")
    opt_hoisted = _count("optimizer_rewrites", kind="hoisted")
    fragments_linked = _count("fragments_linked")
    cache_flushes = _count("cache_flushes")
    peer_overflows = _count("capacity_refusals", kind="peer-overflow")
    branch_caps = _count("capacity_refusals", kind="branch-cap")
    internal_failures = _count("firewall_trips")
    faults_injected = _count("faults_injected")
    script_deadlines = _count("guest_faults", kind="deadline")
    quota_breaches = _count("guest_faults", kind="quota")
    script_cancels = _count("guest_faults", kind="cancelled")
    #: Total resource-policy violations by the guest program.
    guest_faults = _count("guest_faults")
    jobs_retried = _count("job_retries")

    @property
    def branch_traces(self) -> int:
        return self.traces_completed - self.trees_formed

    @property
    def fragments_retired(self) -> int:
        """Fragments retired by whole-cache flushes."""
        retired = self.metrics.fragments_retired.values
        return sum(
            count for (reason,), count in retired.items()
            if reason.startswith("flush:")
        )

    @property
    def safe_mode(self) -> bool:
        return self.metrics.safe_mode_entries.total > 0

    @property
    def abort_reasons(self) -> Dict[str, int]:
        return {
            reason: count
            for (reason,), count in self.metrics.record_aborts.values.items()
        }

    def top_abort_reasons(self, limit: int = 3) -> List[tuple]:
        """The most frequent abort reasons, ``(reason, count)`` pairs."""
        ranked = sorted(
            self.abort_reasons.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:limit]


@dataclass
class VMStats:
    """Everything a run of the VM measures, in one bag."""

    ledger: CycleLedger = field(default_factory=CycleLedger)
    profile: ExecutionProfile = field(default_factory=ExecutionProfile)
    #: The VM's only counter store (``vm.metrics`` is the same object).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracing: TraceStats = field(init=False)
    #: The attached :class:`repro.obs.profiler.PhaseProfiler`, when the
    #: VM enabled profiling (set by :meth:`repro.vm.VM.enable_profiling`).
    profiler: object = None

    def __post_init__(self):
        self.tracing = TraceStats(self.metrics)

    @property
    def total_cycles(self) -> int:
        return self.ledger.total

    def time_breakdown(self) -> dict:
        """Per-activity cycle fractions (Figure 12 rows).

        When a phase profiler is attached the fractions come from its
        transition-accounted phase timeline (the authoritative source —
        independent counters can drift); otherwise from the raw ledger.
        Either way the fractions partition the run: they sum to 1.0
        whenever any cycles were spent.
        """
        profiler = self.profiler
        if profiler is not None and profiler.total_cycles > 0:
            return profiler.activity_fractions()
        fractions = {
            activity.value: self.ledger.fraction(activity) for activity in Activity
        }
        total = sum(fractions.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9, \
            "activity fractions must partition the run"
        return fractions

    def summary_lines(self) -> list:
        """Human-readable multi-line summary for examples and the CLI."""
        lines = [
            f"total simulated cycles : {self.total_cycles:,}",
            "cycle breakdown        : "
            + ", ".join(
                f"{name}={frac:.1%}" for name, frac in self.time_breakdown().items()
            ),
            f"dynamic bytecodes      : {self.profile.total:,} "
            f"(native {self.profile.fraction_native():.1%}, "
            f"interpreted {self.profile.fraction_interpreted():.1%}, "
            f"recorded {self.profile.fraction_recorded():.1%})",
            f"trees formed           : {self.tracing.trees_formed} "
            f"(+{self.tracing.branch_traces} branch traces)",
            f"recordings             : {self.tracing.recordings_started} started, "
            f"{self.tracing.traces_completed} completed, "
            f"{self.tracing.traces_aborted} aborted",
            f"side exits taken       : {self.tracing.side_exits_taken} "
            f"({self.tracing.transfers_stitched} stitched)",
            f"blacklisted fragments  : {self.tracing.blacklisted}",
        ]
        if (
            self.tracing.opt_cse_removed
            or self.tracing.opt_guards_eliminated
            or self.tracing.opt_hoisted
        ):
            lines.append(
                f"trace optimizer        : "
                f"{self.tracing.opt_cse_removed} instructions CSE'd, "
                f"{self.tracing.opt_guards_eliminated} guards eliminated, "
                f"{self.tracing.opt_hoisted} ops hoisted"
            )
        if self.tracing.cache_flushes:
            lines.append(
                f"code cache             : {self.tracing.cache_flushes} flushes, "
                f"{self.tracing.fragments_retired} fragments retired"
            )
        if (
            self.tracing.internal_failures
            or self.tracing.faults_injected
            or self.tracing.safe_mode
        ):
            lines.append(
                f"jit firewall           : "
                f"{self.tracing.internal_failures} internal failures contained, "
                f"{self.tracing.faults_injected} faults injected, "
                f"safe mode {'entered' if self.tracing.safe_mode else 'not entered'}"
            )
        if self.tracing.guest_faults or self.tracing.jobs_retried:
            lines.append(
                f"guest faults           : "
                f"{self.tracing.script_deadlines} deadlines, "
                f"{self.tracing.quota_breaches} quota breaches, "
                f"{self.tracing.script_cancels} cancellations, "
                f"{self.tracing.jobs_retried} jobs retried"
            )
        if self.tracing.abort_reasons:
            top = self.tracing.top_abort_reasons()
            remainder = len(self.tracing.abort_reasons) - len(top)
            reasons = ", ".join(f"{reason}×{count}" for reason, count in top)
            if remainder > 0:
                reasons += f" (+{remainder} more)"
            lines.append(f"top abort reasons      : {reasons}")
        return lines
