"""The multi-tenant batch supervisor.

Runs a queue of :class:`Job`\\ s on **one long-lived VM** — the
ROADMAP's "heavy traffic from millions of users" scenario in
miniature.  Per job it provides:

* **isolation** — fresh globals / output / frames via
  :meth:`repro.core.preempt.PreemptionMixin.reset_guest_state`, while
  the trace cache, oracle, and blacklist survive (identical sources
  share one compiled :class:`~repro.bytecode.compiler.Code`, so hot
  traces recorded for one tenant keep paying off for the next);
* **enforcement** — a :class:`repro.exec.limits.ScriptMeter` bills the
  job from ledger/allocation/output deltas and terminates it with a
  typed guest fault on breach;
* **retry with backoff** — a job whose compile-quota (or deadline)
  breach coincided with trace-cache flushes may have been *deopted by
  cache pressure* from other tenants rather than misbehaving itself;
  it is re-queued a bounded number of times, deterministically backed
  off behind other jobs, with a ``job-retried`` event;
* **graceful degradation** — a tenant that repeatedly blows the
  compile quota is demoted to interpreter-only mode (the monitor is
  disabled for its jobs), the same lever as the firewall's safe mode
  but scoped per tenant.

The supervisor never lets a guest fault escape as a raw traceback:
every job produces a :class:`JobResult` whose ``status`` reflects how
it ended.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core import events as eventkind
from repro.errors import (
    GuestFault,
    JSLiteSyntaxError,
    JSThrow,
    QuotaExceeded,
    ScriptCancelled,
    ScriptTimeout,
)
from repro.exec.limits import ResourceLimits

#: Job completion statuses.
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_QUOTA = "quota"
STATUS_CANCELLED = "cancelled"
STATUS_JS_ERROR = "js-error"
STATUS_COMPILE_ERROR = "compile-error"
#: Fallback for a :class:`GuestFault` subclass without its own status
#: (each concrete subclass must map to a *distinct* batch-table status).
STATUS_FAULT = "guest-fault"


@dataclass
class Job:
    """One unit of guest work: a source program owned by a tenant."""

    job_id: str
    source: str
    tenant: str = "default"
    name: Optional[str] = None
    #: Per-job override; falls back to the supervisor's default limits.
    limits: Optional[ResourceLimits] = None
    #: Fleet-level deadline on the *fleet's wall clock* (absolute, in
    #: seconds): a job that would only start past this instant is shed,
    #: never run.  Ignored by the single-VM supervisor, whose queue has
    #: no admission layer.
    not_after: Optional[float] = None


@dataclass
class JobUsage:
    """What one job attempt consumed (per-job billing)."""

    cycles: int = 0
    compile_cycles: int = 0
    heap_cells: int = 0
    output_bytes: int = 0
    max_stack: int = 0


@dataclass
class JobResult:
    job_id: str
    tenant: str
    status: str
    attempts: int
    engine_mode: str
    usage: JobUsage = field(default_factory=JobUsage)
    #: Rendered completion value (status "ok" only).
    result: Optional[str] = None
    #: Human-readable fault / uncaught-exception description.
    fault: Optional[str] = None
    output: Tuple[str, ...] = ()
    #: Trace-cache flushes observed while this attempt ran (the retry
    #: heuristic's signal for cache pressure).
    cache_flushes: int = 0
    #: Counter series that changed while the final attempt ran
    #: (``{series-name: delta}``), when the supervisor captures metrics;
    #: None otherwise.  This is the per-job telemetry the
    #: future sharded tier's admission control consumes.
    metrics: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class TenantUsage:
    """Aggregated billing for one tenant across a batch."""

    jobs: int = 0
    ok: int = 0
    faulted: int = 0
    retries: int = 0
    cycles: int = 0
    heap_cells: int = 0
    output_bytes: int = 0

    def add(self, result: JobResult) -> None:
        self.jobs += 1
        if result.ok:
            self.ok += 1
        else:
            self.faulted += 1
        self.retries += result.attempts - 1
        self.cycles += result.usage.cycles
        self.heap_cells += result.usage.heap_cells
        self.output_bytes += result.usage.output_bytes


def status_of_fault(fault: GuestFault) -> str:
    """Batch-table status for a guest fault; every concrete
    :class:`GuestFault` subclass maps to its own distinct status, and an
    unknown subclass falls back to :data:`STATUS_FAULT` (never to one of
    the specific statuses, which would mis-bill the tenant)."""
    if isinstance(fault, ScriptTimeout):
        return STATUS_TIMEOUT
    if isinstance(fault, ScriptCancelled):
        return STATUS_CANCELLED
    if isinstance(fault, QuotaExceeded):
        return STATUS_QUOTA
    return STATUS_FAULT


def backoff_slots(rng: random.Random, attempt: int) -> int:
    """Retry backoff expressed in *queue slots*: how many other queued
    jobs should run before this attempt retries.

    Exponential in the attempt number with seeded jitter —
    ``2**(attempt-1) + U[0, 2**(attempt-1))`` — so colliding retriers
    decorrelate (classic exponential backoff with jitter) while a fixed
    seed keeps whole batch runs deterministic."""
    base = 1 << (attempt - 1)
    return base + rng.randrange(base)


class Supervisor:
    """Runs job queues on one reusable VM under resource limits."""

    def __init__(
        self,
        engine: str = "tracing",
        config=None,
        limits: Optional[ResourceLimits] = None,
        max_retries: int = 1,
        degrade_after: int = 2,
        probation_after: int = 3,
        backoff_seed: int = 0,
        capture_events: bool = False,
        capture_metrics: bool = False,
        capture_spans: bool = False,
    ):
        self.engine = engine
        self.limits = limits if limits is not None else ResourceLimits()
        self.max_retries = max_retries
        self.degrade_after = degrade_after
        self.probation_after = probation_after
        #: Seeded jitter source for retry backoff: deterministic for a
        #: fixed seed, decorrelated between colliding retriers.
        self._backoff_rng = random.Random(backoff_seed)
        self.vm = self._make_vm(engine, config, capture_events)
        #: Attach each job's counter delta to its :class:`JobResult`.
        self.capture_metrics = capture_metrics
        if capture_spans:
            self.vm.enable_span_tracing()
        #: tenant -> aggregated billing, filled as results complete.
        self.tenant_usage: Dict[str, TenantUsage] = {}
        #: source -> compiled Code; shared across jobs and tenants so
        #: identical programs hit the same loop headers (and traces).
        self._codes: Dict[str, object] = {}
        #: tenant -> compile-quota breach count (degradation trigger).
        self._compile_breaches: Dict[str, int] = {}
        #: Tenants demoted to interpreter-only mode.
        self.degraded_tenants: Set[str] = set()
        #: tenant -> consecutive clean interpreter-only jobs while
        #: degraded (the half-open probation counter).
        self._clean_interp: Dict[str, int] = {}
        #: Degraded tenants re-admitted to the JIT on probation: one
        #: more compile breach re-degrades them immediately, one clean
        #: JIT job restores them fully.
        self.probation_tenants: Set[str] = set()

    @staticmethod
    def _make_vm(engine: str, config, capture_events: bool):
        from repro.baselines.method_jit import MethodJITVM
        from repro.vm import BaselineVM, ThreadedVM, TracingVM, VMConfig

        engines = {
            "tracing": TracingVM,
            "baseline": BaselineVM,
            "threaded": ThreadedVM,
            "methodjit": MethodJITVM,
        }
        if engine not in engines:
            raise ValueError(f"unknown engine {engine!r}")
        if capture_events:
            if config is None:
                config = VMConfig()
            config.capture_events = True
        return engines[engine](config)

    # -- the queue ----------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Run ``jobs`` to completion; returns one result per job, in
        completion order (retries re-queue behind other jobs).

        Queue entries carry their enqueue-time cycle stamp so the span
        recorder (when attached) can emit the queue-wait interval of
        every attempt — jobs share one VM, so simulated cycles are a
        faithful sequential clock for time spent waiting behind other
        tenants' work.
        """
        vm = self.vm
        spans = getattr(vm, "span_recorder", None)
        now = vm.stats.ledger.total
        queue: List[Tuple[Job, int, int]] = [(job, 1, now) for job in jobs]
        results: List[JobResult] = []
        while queue:
            job, attempt, enqueued_at = queue.pop(0)
            vm.metrics.queue_depth.set(len(queue))
            if spans is not None:
                waited = spans.now()
                wait_id = spans.open(
                    f"queue-wait {job.job_id}", cat="queue", at=enqueued_at,
                    tenant=job.tenant, attempt=attempt,
                )
                spans.close(wait_id, at=waited)
            result = self._run_attempt(job, attempt)
            if self._should_retry(result, attempt):
                # Backoff in *queue slots*, not a raw insertion index:
                # exponential with seeded jitter, clamped to the tail
                # (an index past the end would otherwise collapse every
                # deep backoff to front-of-queue via list.insert).
                backoff = backoff_slots(self._backoff_rng, attempt)
                vm.events.emit(
                    eventkind.JOB_RETRIED,
                    job=job.job_id,
                    tenant=job.tenant,
                    attempt=attempt,
                    backoff=backoff,
                    status=result.status,
                )
                position = min(len(queue), backoff)
                queue.insert(
                    position, (job, attempt + 1, vm.stats.ledger.total)
                )
                continue
            self._note_outcome(job, result)
            results.append(result)
        vm.metrics.queue_depth.set(0)
        return results

    def run_source(
        self, source: str, job_id: str = "job-0", tenant: str = "default"
    ) -> JobResult:
        """Convenience: run one source string as a single job."""
        return self.run([Job(job_id=job_id, source=source, tenant=tenant)])[0]

    def _should_retry(self, result: JobResult, attempt: int) -> bool:
        if attempt > self.max_retries:
            return False
        if result.status not in (STATUS_QUOTA, STATUS_TIMEOUT):
            return False
        # Only breaches coinciding with cache pressure are plausibly
        # the supervisor's fault (recompilation churn from flushes);
        # a quiet-cache breach is the guest's own behavior.
        return result.cache_flushes > 0

    def _note_outcome(self, job: Job, result: JobResult) -> None:
        tenant = job.tenant
        compile_breach = result.status == STATUS_QUOTA and result.fault and (
            "compile-cycles" in result.fault
        )
        if compile_breach:
            self._clean_interp.pop(tenant, None)
            if tenant in self.probation_tenants:
                # Half-open breach: straight back to interpreter-only,
                # no second grace period.
                self.probation_tenants.discard(tenant)
                self.degraded_tenants.add(tenant)
                self._compile_breaches[tenant] = self.degrade_after
                self.vm.events.emit(
                    eventkind.TENANT_PROBATION,
                    tenant=tenant,
                    phase="redegraded",
                    job=job.job_id,
                )
            else:
                count = self._compile_breaches.get(tenant, 0) + 1
                self._compile_breaches[tenant] = count
                if count >= self.degrade_after:
                    self.degraded_tenants.add(tenant)
        elif result.engine_mode == "interp-only" and (
            tenant in self.degraded_tenants
        ):
            # Half-open circuit: after probation_after consecutive
            # clean interpreter-only jobs, let the tenant try the JIT
            # again on probation.
            if result.ok:
                count = self._clean_interp.get(tenant, 0) + 1
                self._clean_interp[tenant] = count
                if count >= self.probation_after:
                    self.degraded_tenants.discard(tenant)
                    self.probation_tenants.add(tenant)
                    self._clean_interp.pop(tenant, None)
                    self._compile_breaches.pop(tenant, None)
                    self.vm.events.emit(
                        eventkind.TENANT_PROBATION,
                        tenant=tenant,
                        phase="enter",
                        job=job.job_id,
                    )
            else:
                self._clean_interp.pop(tenant, None)
        elif tenant in self.probation_tenants and result.ok:
            # One clean JIT-enabled job closes the probation window.
            self.probation_tenants.discard(tenant)
            self.vm.events.emit(
                eventkind.TENANT_PROBATION,
                tenant=tenant,
                phase="restored",
                job=job.job_id,
            )
        usage = self.tenant_usage.get(job.tenant)
        if usage is None:
            usage = self.tenant_usage[job.tenant] = TenantUsage()
        usage.add(result)
        metrics = self.vm.metrics
        metrics.jobs.inc(1, tenant=job.tenant, status=result.status)
        metrics.billed_cycles.inc(result.usage.cycles, tenant=job.tenant)
        metrics.billed_heap_cells.inc(result.usage.heap_cells, tenant=job.tenant)
        metrics.billed_output_bytes.inc(
            result.usage.output_bytes, tenant=job.tenant
        )
        metrics.degraded_tenants.set(len(self.degraded_tenants))

    def tenant_summary(self) -> Dict[str, TenantUsage]:
        """Per-tenant aggregated billing, sorted by tenant name."""
        return dict(sorted(self.tenant_usage.items()))

    # -- fleet-facing API ---------------------------------------------------
    #
    # The fleet scheduler owns queueing, retry placement, and shedding;
    # each worker's supervisor only runs attempts and keeps its local
    # per-tenant policy state.  These wrappers expose exactly that.

    def run_attempt(self, job: Job, attempt: int) -> JobResult:
        """Run one attempt of ``job`` (no queueing, no retry, no
        outcome bookkeeping) — the fleet worker's entry point."""
        return self._run_attempt(job, attempt)

    def note_outcome(self, job: Job, result: JobResult) -> None:
        """Record ``result`` as ``job``'s final outcome: billing,
        degradation/probation transitions, and per-job metrics."""
        self._note_outcome(job, result)

    def should_retry(self, result: JobResult, attempt: int) -> bool:
        """Whether the cache-pressure retry heuristic would re-queue
        this attempt (the fleet applies the same discipline)."""
        return self._should_retry(result, attempt)

    def retry_backoff(self, attempt: int) -> int:
        """Seeded-jitter backoff (in queue slots) for retrying after
        ``attempt`` — same discipline as the single-VM queue."""
        return backoff_slots(self._backoff_rng, attempt)

    def warm_source(self, source: str) -> bool:
        """Whether this VM's trace cache holds compiled loops for ``source``.

        Distinct from mere *parse* caching (``_codes`` keeps the Code
        object even after a cache flush): a source is warm only while
        its trace trees are linked.  The fleet's locality-aware work
        stealing routes on this.
        """
        code = self._codes.get(source)
        if code is None:
            return False
        cache = getattr(self.vm, "monitor", None)
        if cache is None:  # baseline/interp engines never compile traces
            return False
        return cache.cache.holds_code(code)

    def warm_start_from_store(self) -> tuple:
        """Preload every live trace-store entry into this VM.

        Compiles each persisted source, primes the shared source→Code
        cache, and links the persisted traces — the respawned fleet
        worker's reload-and-verify path.  Returns ``(sources_loaded,
        fragments_linked)``; every failure is contained per entry (a
        broken entry costs only its own warm start).
        """
        vm = self.vm
        store = getattr(vm, "trace_store", None)
        monitor = getattr(vm, "monitor", None)
        if store is None or monitor is None:
            return (0, 0)
        sources = 0
        fragments_before = monitor.cache.fragment_count
        for source, name in store.warm_sources():
            code = self._codes.get(source)
            if code is None:
                try:
                    code = vm.compile(source, name=name)
                except Exception:
                    continue  # stale entry for an uncompilable source
                self._codes[source] = code
            if store.preload(vm, source, code):
                sources += 1
        return (sources, monitor.cache.fragment_count - fragments_before)

    # -- one attempt --------------------------------------------------------

    def _code_for(self, job: Job):
        code = self._codes.get(job.source)
        if code is None:
            code = self.vm.compile(job.source, name=job.name or job.job_id)
            self._codes[job.source] = code
            store = getattr(self.vm, "trace_store", None)
            if store is not None:
                # Warm-start newly compiled sources from the persistent
                # store (contained: trouble just means cold tracing).
                store.preload(self.vm, job.source, code)
        return code

    def _run_attempt(self, job: Job, attempt: int) -> JobResult:
        vm = self.vm
        vm.reset_guest_state()
        limits = job.limits if job.limits is not None else self.limits
        meter = vm.install_meter(limits)
        metrics = vm.metrics
        counters_before = metrics.flat_counters() if self.capture_metrics else None
        spans = getattr(vm, "span_recorder", None)
        job_span = 0
        if spans is not None:
            job_span = spans.open(
                f"{job.job_id} (attempt {attempt})", cat="job",
                tenant=job.tenant, attempt=attempt,
            )
        monitor = getattr(vm, "monitor", None)
        degraded = job.tenant in self.degraded_tenants
        saved_disabled = None
        engine_mode = self.engine
        if degraded and monitor is not None:
            saved_disabled = monitor.disabled
            monitor.disabled = True
            engine_mode = "interp-only"
        tracing = vm.stats.tracing
        flushes_before = tracing.cache_flushes
        status = STATUS_OK
        rendered = None
        fault_text = None
        try:
            try:
                code = self._code_for(job)
            except JSLiteSyntaxError as error:
                status = STATUS_COMPILE_ERROR
                fault_text = str(error)
            else:
                from repro.runtime.conversions import to_string

                value = vm.run_code(code)
                rendered = to_string(value)
        except GuestFault as fault:
            status = status_of_fault(fault)
            fault_text = str(fault)
        except JSThrow as thrown:
            from repro.runtime.conversions import to_string

            status = STATUS_JS_ERROR
            fault_text = f"uncaught exception: {to_string(thrown.value)}"
        finally:
            if saved_disabled is not None and not getattr(vm, "in_safe_mode", False):
                monitor.disabled = saved_disabled
            usage = JobUsage(
                cycles=meter.cycles_used(vm),
                compile_cycles=meter.compile_cycles_used(vm),
                heap_cells=meter.heap_cells,
                output_bytes=meter.output_bytes,
                max_stack=meter.max_stack,
            )
            vm.clear_meter()
        if status == STATUS_OK and meter.pending is not None:
            # The breach was detected but the program finished before
            # reaching a delivery safe point: it still counts — the
            # tenant is billed and the job is marked terminated.
            status = status_of_fault(meter.pending)
            fault_text = str(meter.pending)
            rendered = None
        metrics.meter_polls.inc(meter.polls)
        metrics_delta = None
        if self.capture_metrics:
            metrics_delta = metrics.delta(counters_before, metrics.flat_counters())
        if spans is not None:
            spans.close(job_span, status=status)
        store = getattr(vm, "trace_store", None)
        if store is not None and status != STATUS_COMPILE_ERROR:
            code = self._codes.get(job.source)
            if code is not None:
                store.persist(vm, job.source, code)
        return JobResult(
            job_id=job.job_id,
            tenant=job.tenant,
            status=status,
            attempts=attempt,
            engine_mode=engine_mode,
            usage=usage,
            result=rendered,
            fault=fault_text,
            output=tuple(vm.output),
            cache_flushes=tracing.cache_flushes - flushes_before,
            metrics=metrics_delta,
        )
