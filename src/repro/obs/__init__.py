"""Observability layer: phase profiler, fragment profiles, reports.

``repro.obs`` turns the VM's event stream and cost ledger into the
paper's whole-system observability story:

* :mod:`repro.obs.profiler` — the :class:`~repro.obs.profiler.PhaseProfiler`
  phase timeline (interpret / monitor / record / compile / native /
  blacklist-backoff) and per-fragment runtime profiles;
* :mod:`repro.obs.report` — the ``--profile`` report: phase breakdown,
  hot-loop table, top deopt sites;
* :mod:`repro.obs.timeline` — TraceVis-style ASCII and self-contained
  HTML timeline renderers (``--timeline``);
* :mod:`repro.obs.metrics` — the
  :class:`~repro.obs.metrics.MetricsRegistry` every VM carries as its
  only counter store (counters / gauges / histograms;
  ``--metrics-json`` / ``--metrics-prom``);
* :mod:`repro.obs.spans` — span-based job tracing exported as Chrome
  trace-event JSON (``--trace-export``);
* :mod:`repro.obs.validate` — schema validation for every telemetry
  artifact the CLI emits (``python -m repro.obs.validate``).

None of it charges simulated cycles.  The metrics registry is always
attached; the profiler and span recorder are off by default, see
:meth:`repro.vm.VM.enable_profiling` and
:meth:`~repro.vm.VM.enable_span_tracing`.
"""

from repro.obs.profiler import (
    ACTIVITY_OF_PHASE,
    PHASE_BACKOFF,
    PHASE_COMPILE,
    PHASE_INTERPRET,
    PHASE_MONITOR,
    PHASE_NATIVE,
    PHASE_RECORD,
    PHASES,
    PROFILE_SCHEMA_VERSION,
    GuardProfile,
    LoopProfile,
    PhaseProfiler,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    write_metrics_json,
    write_metrics_prom,
)
from repro.obs.report import profile_json, profile_report, write_profile_json
from repro.obs.spans import (
    SPANS_SCHEMA_VERSION,
    SpanRecorder,
    write_chrome_trace,
)
from repro.obs.timeline import render_ascii, render_html, write_timeline

__all__ = [
    "ACTIVITY_OF_PHASE",
    "PHASES",
    "PHASE_BACKOFF",
    "PHASE_COMPILE",
    "PHASE_INTERPRET",
    "PHASE_MONITOR",
    "PHASE_NATIVE",
    "PHASE_RECORD",
    "PROFILE_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "SPANS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "GuardProfile",
    "Histogram",
    "LoopProfile",
    "MetricsRegistry",
    "PhaseProfiler",
    "SpanRecorder",
    "write_chrome_trace",
    "write_metrics_json",
    "write_metrics_prom",
    "profile_json",
    "profile_report",
    "write_profile_json",
    "render_ascii",
    "render_html",
    "write_timeline",
]
