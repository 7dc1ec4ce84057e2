"""End-to-end, layer-by-layer wall-clock benchmark of the tracing JIT.

One command, run from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 40 --trace 0

It builds the workload's inputs from ``--seed``, computes their
references, then runs passes over the workload's programs for at least
``--seconds``: a closed loop, one client on one thread, a fresh VM per
program.  Every run's completion value and output are checked.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it report the seed, the Python version, ``nproc``, the
quartiles of ``wall_s``, the raw pass walls and each program's raw
median time.

``--trace 1`` alternates untraced and traced passes, wrapping each
layer's entry points during the traced ones (see ``tracer.py``), and
writes the spans to ``perfbench/out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "program_ms_geomean": "ms",
    "sim_mcycles": "Mcycles",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "frontend.parse_s": "s",
    "bytecode.compile_s": "s",
    "interp.self_s": "s",
    "interp.bytecodes": "count",
    "core.monitor.self_s": "s",
    "core.monitor.tree_entries": "count",
    "core.monitor.side_exits": "count",
    "core.recorder.s": "s",
    "core.recorder.traces": "count",
    "core.recorder.aborts": "count",
    "jit.optimizer.s": "s",
    "jit.optimizer.lir_retained": "ratio",
    "jit.codegen.s": "s",
    "jit.codegen.native_insns": "count",
    "jit.pycompile.emit_s": "s",
    "jit.pycompile.cpython_compile_s": "s",
    "jit.pycompile.source_mb": "MB",
    "jit.pycompile.fragment_builds": "count",
    "jit.pycompile.tree_builds": "count",
    "jit.native.s": "s",
    "jit.native.transfers_direct": "count",
    "jit.native.transfers_stitched": "count",
    "core.store.preload_s": "s",
    "core.store.persist_s": "s",
    "core.store.mb": "MB",
    "unattributed_s": "s",
    "obs.trace_overhead": "ratio",
    "fail_rate": "ratio",
}

#: Span name -> per-layer self-time metric.
LAYER_TIMES = {
    "frontend.parse": "frontend.parse_s",
    "bytecode.compile": "bytecode.compile_s",
    "interp": "interp.self_s",
    "core.monitor": "core.monitor.self_s",
    "core.recorder": "core.recorder.s",
    "jit.optimizer": "jit.optimizer.s",
    "jit.codegen": "jit.codegen.s",
    "jit.pycompile.emit": "jit.pycompile.emit_s",
    "jit.pycompile.cpython_compile": "jit.pycompile.cpython_compile_s",
    "jit.native": "jit.native.s",
    "core.store.preload": "core.store.preload_s",
    "core.store.persist": "core.store.persist_s",
}

#: The small programs the benchmark's own smoke tests run.
TINY_SUITE = ("bitops-3bit-bits-in-byte", "access-fannkuch", "string-base64")
TINY_SCALE = 0.05

#: How many times set-up builds the inputs and references.
SETUP_REPEATS = 5

#: The host alternates many times a second between a fast state and a
#: slow one, in which plain Python runs up to 1.8 times slower, and the
#: share of time it spends slow drifts over minutes.  Times are
#: therefore scaled to a reference host speed.  While the programs run,
#: a ``HostSampler`` times a fixed ``SAMPLE_LOOP``-iteration
#: pure-Python loop every ``SAMPLE_INTERVAL_S`` (about 0.5% of the
#: wall), since a probe between programs cannot see the state during a
#: multi-second one.  A pass's times, and ``setup_s``, are scaled by
#: ``SAMPLE_REF_S`` over their mean sample.
SAMPLE_LOOP = 800
SAMPLE_INTERVAL_S = 0.05
SAMPLE_REF_S = 0.0002


@dataclass
class Pass:
    """One pass over a workload's programs."""

    traced: bool
    wall_s: float = 0.0
    program_s: Dict[str, float] = field(default_factory=dict)
    #: Run times scaled to the reference host speed (``SAMPLE_REF_S``).
    program_ref_s: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def _calibration_loop() -> int:
    table: Dict[int, int] = {}
    items = []
    total = 0
    for i in range(SAMPLE_LOOP):
        key = i & 63
        table[key] = table.get(key, 0) + i
        items.append(key * 3)
        total += items[-1] % 7
    return total


class HostSampler:
    """Samples the host's speed while timed code executes.

    Entering it takes one sample and then, when ``interval`` is
    non-zero, one from a ``SIGALRM`` handler every ``interval`` seconds
    of wall time until it is left.  :meth:`timed` takes the samples'
    own time off a run's.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, *_signal) -> None:
        started = time.perf_counter()
        _calibration_loop()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, run: Callable[[], object]) -> Tuple[object, Optional[Exception], float]:
        """Call ``run``; return its result or exception and its seconds."""
        spent = self.spent
        started = time.perf_counter()
        try:
            with self:
                result, error = run(), None
        except Exception as exc:  # a failed run, not a benchmark crash
            result, error = None, exc
        return result, error, time.perf_counter() - started - (self.spent - spent)

    def scale(self, seconds: float) -> float:
        """``seconds`` as they would read on the reference host."""
        return seconds * SAMPLE_REF_S / statistics.fmean(self.samples)


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(parent, name))
        for parent, _dirs, names in os.walk(root)
        for name in names
    )


def _import_seconds(first: float) -> List[float]:
    """``first`` (this process's import time) and the time that
    ``SETUP_REPEATS - 1`` fresh interpreters take for the same imports."""
    code = (
        "import sys, time; started = time.perf_counter(); "
        f"sys.path[:0] = {[str(HERE), str(SRC)]!r}; "
        "import run, tracer, workloads; print(time.perf_counter() - started)"
    )
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return times


def build_jobs(workload: str, seed: int, tiny: bool = False):
    """The workload's jobs, each with its reference filled in."""
    from workloads import hot_loop_jobs, load_expected, suite_jobs

    if workload == "hot-loops":
        return hot_loop_jobs(seed, scale=TINY_SCALE if tiny else 1.0)
    jobs = suite_jobs(seed, names=TINY_SUITE if tiny else None)
    expected = load_expected()
    for job in jobs:
        job.expected = expected.get(job.name)
    return jobs


def run_pass(index: int, jobs, make_vm, snapshot: Optional[str], work: str, tracer) -> Pass:
    """Run every job once in a fresh VM; time only ``vm.run``."""
    from workloads import check

    record = Pass(traced=tracer is not None)
    store_dir = None
    if snapshot is not None:
        store_dir = os.path.join(work, "store")
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.copytree(snapshot, store_dir)
    counts: Counter = Counter()
    # Each program's garbage is collected before the next run, so no
    # run pays for a collection its predecessor caused and the
    # seed-shuffled order does not move the times.
    gc.collect()
    # Traced passes sample only as each run starts, so that no sample
    # lands inside a span.
    sampler = HostSampler(interval=0.0 if tracer is not None else SAMPLE_INTERVAL_S)
    for job in jobs:
        vm = make_vm(store_dir)
        if tracer is not None:
            tracer.program = f"{index}:{job.name}"
            if vm.monitor is not None:
                vm.enable_profiling()
        result, error, elapsed = sampler.timed(lambda: vm.run(job.source, name=job.name))
        record.wall_s += elapsed
        record.program_s[job.name] = elapsed
        record.cycles += vm.stats.total_cycles
        record.attempted += 1
        if error is not None:
            record.failures.append(f"{job.name}: {type(error).__name__}: {error}")
        elif not check(job, result, vm.output):
            record.failures.append(f"{job.name}: got {result!r} {vm.output!r}")
        if tracer is not None:
            profile, tracing = vm.stats.profile, vm.stats.tracing
            counts["interp.bytecodes"] += profile.interpreted + profile.recorded
            counts["core.monitor.tree_entries"] += tracing.trace_entries
            counts["core.monitor.side_exits"] += tracing.side_exits_taken
            counts["core.recorder.traces"] += tracing.traces_completed
            counts["core.recorder.aborts"] += tracing.traces_aborted
            if vm.profiler is not None:
                counts["jit.native.transfers_direct"] += vm.profiler.transfers_direct
                counts["jit.native.transfers_stitched"] += vm.profiler.transfers_stitched
        del vm, result, error
        gc.collect()
    record.program_ref_s = {
        name: sampler.scale(seconds) for name, seconds in record.program_s.items()
    }
    if tracer is not None:
        record.layers = _layer_metrics(record, tracer, counts, store_dir)
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
    return record


def _layer_metrics(record: Pass, tracer, counts: Counter, store_dir) -> Dict[str, float]:
    from tracer import self_times

    self_s = self_times(tracer.spans)
    layers = dict.fromkeys(PER_LAYER, 0)
    layers.update((metric, self_s.get(span, 0.0)) for span, metric in LAYER_TIMES.items())
    layers["unattributed_s"] = record.wall_s - sum(self_s.values())
    layers.update(counts)
    traced = tracer.counts
    lir_in = traced["lir_in"]
    layers["jit.optimizer.lir_retained"] = traced["lir_out"] / lir_in if lir_in else 0.0
    layers["jit.codegen.native_insns"] = traced["native_insns"]
    layers["jit.pycompile.source_mb"] = traced["source_chars"] / 1e6
    layers["jit.pycompile.fragment_builds"] = traced["fragment_builds"]
    layers["jit.pycompile.tree_builds"] = traced["tree_builds"]
    layers["core.store.mb"] = _tree_bytes(store_dir) / 1e6 if store_dir else 0.0
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, started: Optional[float] = None) -> dict:
    """Set up, run passes for ``seconds``, and summarise them.

    Returns ``{"passes", "attempted", "failed", "metrics", "report",
    "spans"}``; ``metrics`` maps each metric name to its value and
    unit.  ``started`` is when set-up began (the process start for the
    command line).
    """
    from tracer import Tracer
    from workloads import WORKLOADS, engine_for

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    imported = time.perf_counter()
    started = imported if started is None else started
    # Set-up is timed several times and its median enters setup_s: the
    # imports here and in fresh interpreters, then building the inputs
    # and references.  Warm-start's store fill is too long to repeat.
    # Like a pass, set-up is scaled to the reference host speed.
    setup = HostSampler()
    with setup:
        import_s = _import_seconds(imported - started)
        build_s = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            jobs = build_jobs(workload, seed, tiny)
            build_s.append(time.perf_counter() - began)
    make_vm = engine_for(workload)
    OUT.mkdir(exist_ok=True)
    passes: List[Pass] = []
    spans: list = []
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        snapshot = None
        fill_s = 0.0
        if workload == "warm-start":
            # One cold pass fills the store; every measured pass starts
            # from a copy of this snapshot.  Collecting after each program,
            # as the passes do, keeps the seed-shuffled order from moving
            # the peak memory this pass reaches.  A failed run here is
            # counted by the measured passes.
            snapshot = os.path.join(work, "snapshot")
            for job in jobs:
                fill_s += setup.timed(lambda: make_vm(snapshot).run(job.source, name=job.name))[2]
                gc.collect()
        setup_s = setup.scale(statistics.median(import_s) + statistics.median(build_s) + fill_s)
        began = time.perf_counter()
        while True:
            untraced = sum(not p.traced for p in passes)
            traced = trace and len(passes) - untraced < untraced
            tracer = Tracer().install() if traced else None
            try:
                passes.append(run_pass(len(passes), jobs, make_vm, snapshot, work, tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    spans.extend(tracer.spans)
            kinds = {p.traced for p in passes}
            if time.perf_counter() - began >= seconds and (not trace or len(kinds) == 2):
                break
    return _summarise(workload, seed, trace, setup_s, passes, spans)


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _summarise(workload, seed, trace, setup_s, passes: List[Pass], spans) -> dict:
    plain = [p for p in passes if not p.traced]
    walls = [sum(p.program_ref_s.values()) for p in plain]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    program_ms = {
        name: 1000 * statistics.median(p.program_s[name] for p in plain)
        for name in plain[0].program_s
    }
    program_ref_ms = [
        1000 * statistics.median(p.program_ref_s[name] for p in plain)
        for name in plain[0].program_s
    ]
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in PER_LAYER
            if name not in ("obs.trace_overhead", "fail_rate")
        }
        metrics["obs.trace_overhead"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in plain)
        )
        metrics["fail_rate"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "program_ms_geomean": _geomean(program_ref_ms),
            "sim_mcycles": statistics.median(p.cycles for p in plain) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    report = [
        f"perfbench workload={workload} seed={seed} trace={int(trace)} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}",
        f"wall_s median={statistics.median(walls):.4f} p25={quartiles[0]:.4f} "
        f"p75={quartiles[2]:.4f} n={len(walls)} (untraced passes, calibrated)",
        "raw pass wall_s: " + " ".join(f"{'T' if p.traced else ''}{p.wall_s:.3f}" for p in passes),
        f"program_ms_geomean raw={_geomean(program_ms.values()):.3f} "
        f"calibrated={_geomean(program_ref_ms):.3f}",
    ]
    report += [f"  {name:28s} {ms:10.2f} ms" for name, ms in sorted(program_ms.items())]
    for p in passes:
        report += [f"FAILED {failure}" for failure in p.failures]
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "report": report,
        "spans": spans,
    }


def _write_spans(path: pathlib.Path, header: dict, spans) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), started=STARTED)
    for line in summary["report"]:
        print(line)
    if args.trace:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        header = {
            "workload": args.workload,
            "seed": args.seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "fields": ["id", "name", "start", "end", "parent", "program"],
        }
        _write_spans(path, header, summary["spans"])
        print(f"spans: {path.relative_to(HERE.parent)} ({len(summary['spans'])})")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
