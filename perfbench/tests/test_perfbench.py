"""The benchmark's own checks: smoke runs, determinism, the output check.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

#: Per-layer counts that must repeat exactly for one seed.
DETERMINISTIC = (
    "jit.pycompile.source_mb",
    "jit.pycompile.fragment_builds",
    "jit.pycompile.tree_builds",
    "core.recorder.traces",
    "jit.native.transfers_direct",
    "jit.native.transfers_stitched",
)


def _traced_counts(workload: str, seed: int) -> dict:
    summary = run.measure(workload, seed, seconds=0, trace=True, tiny=True)
    assert summary["failed"] == 0
    traced = [p for p in summary["passes"] if p.traced]
    assert len(traced) == 1
    counts = {name: traced[0].layers[name] for name in DETERMINISTIC}
    counts["sim_mcycles"] = traced[0].cycles / 1e6
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload_reports_every_metric(workload):
    summary = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert summary["failed"] == 0 and summary["attempted"] > 0
    metrics = summary["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    for name, metric in metrics.items():
        assert metric["value"] > 0, name
        assert metric["unit"] == run.END_TO_END[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_with_one_seed_count_the_same(workload):
    first = _traced_counts(workload, seed=5)
    assert first == _traced_counts(workload, seed=5)
    if workload != "interp-only":
        assert first["core.recorder.traces"] > 0
        assert first["jit.pycompile.source_mb"] > 0


def test_traced_run_reports_layers_and_restores_every_wrapped_name():
    import repro.jit.pycompile
    from repro.core.monitor import TraceMonitor

    on_loop_header = TraceMonitor.on_loop_header
    summary = run.measure("warm-start", seed=2, seconds=0, trace=True, tiny=True)
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["core.store.preload_s"] > 0 and metrics["core.store.mb"] > 0
    assert metrics["jit.native.s"] > 0 and metrics["fail_rate"] == 0
    assert metrics["obs.trace_overhead"] > 0
    assert "compile" not in vars(repro.jit.pycompile)
    assert TraceMonitor.on_loop_header is on_loop_header
    names = {span[1] for span in summary["spans"]}
    assert {"interp", "jit.native", "core.store.persist"} <= names


def test_seed_picks_order_and_sizes_but_not_the_work():
    assert [j.name for j in workloads.suite_jobs(1)] != [
        j.name for j in workloads.suite_jobs(2)
    ]
    assert sorted(j.name for j in workloads.suite_jobs(1)) == sorted(
        j.name for j in workloads.suite_jobs(2)
    )
    one, two = workloads.hot_loop_jobs(1), workloads.hot_loop_jobs(2)
    assert [j.source for j in one] != [j.source for j in two]
    assert [j.source for j in one] == [j.source for j in workloads.hot_loop_jobs(1)]
    rng = workloads.random.Random(9)
    assert sum(workloads._paired_sizes(rng, 1000, 250)) == 1000 * workloads.ROUNDS


def test_mismatch_and_exception_count_as_failed_runs():
    jobs = [
        Job("wrong", "1 + 1;", ("Box(int, 3)", [])),
        Job("throws", "throw 1;", ("Box(int, 1)", [])),
        Job("right", "1 + 1;", ("Box(int, 2)", [])),
        Job("no-reference", "1;", None),
    ]
    record = run.run_pass(0, jobs, workloads.engine_for("suite-cold"), None, "", None)
    assert record.attempted == 4
    assert [f.split(":")[0] for f in record.failures] == [
        "wrong",
        "throws",
        "no-reference",
    ]


def test_expected_file_is_the_tracing_off_interpreter_output():
    from expected import reference_run
    from repro.suite.programs import PROGRAMS

    expected = workloads.load_expected()
    assert sorted(expected) == sorted(p.name for p in PROGRAMS)
    for program in PROGRAMS:
        assert list(reference_run(program.source, program.name)) == expected[program.name]


def test_hot_loop_references_match_the_tracing_off_interpreter():
    for job in workloads.hot_loop_jobs(4, scale=run.TINY_SCALE):
        vm = workloads.BaselineVM()
        assert workloads.check(job, vm.run(job.source), vm.output), job.name


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-loops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
