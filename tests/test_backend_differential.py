"""Differential tests: the generated-Python backend vs the step interpreter.

The ``py`` backend compiles each fragment's ``NativeInsn`` sequence to a
real Python function; the ``step`` backend walks the same instructions
one at a time.  The contract is that they are observationally identical
in the simulated world: same results, same cycle ledgers, same stats
summaries, and the same trace-lifecycle event stream.

The one permitted difference is the global side-exit id counter
(``repro.core.exits._exit_ids``), which is shared across VM instances
within a process — two *same-backend* runs also disagree on raw exit
ids.  Events are therefore compared after renumbering exit ids in
first-seen order.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import events as eventkind
from repro.suite.programs import PROGRAMS
from repro.vm import TracingVM, VMConfig

SIEVE_PATH = pathlib.Path(__file__).parent.parent / "examples" / "sieve.js"


def _run(source: str, backend: str):
    config = VMConfig()
    config.native_backend = backend
    vm = TracingVM(config)
    vm.events.capture = True
    result = vm.run(source)
    return result, vm


def _normalized_events(vm):
    """(kind, payload-json) pairs with exit ids renumbered first-seen."""
    renumber = {}
    normalized = []
    for event in vm.events.events:
        payload = dict(event.payload)
        for key, value in payload.items():
            if key.endswith("exit_id") and isinstance(value, int):
                payload[key] = renumber.setdefault(value, len(renumber) + 1)
        normalized.append(
            (event.kind, json.dumps(payload, sort_keys=True, default=repr))
        )
    return normalized


def _side_exit_sequence(events):
    return [pair for pair in events if "exit" in pair[0]]


def _assert_runs_identical(source: str, name: str):
    result_py, vm_py = _run(source, "py")
    result_step, vm_step = _run(source, "step")

    assert repr(result_py) == repr(result_step), name
    assert vm_py.stats.total_cycles == vm_step.stats.total_cycles, name
    assert vm_py.stats.summary_lines() == vm_step.stats.summary_lines(), name
    assert vm_py.output == vm_step.output, name

    events_py = _normalized_events(vm_py)
    events_step = _normalized_events(vm_step)
    assert events_py == events_step, name
    assert _side_exit_sequence(events_py) == _side_exit_sequence(events_step)

    # The py backend must actually have compiled something on traceable
    # programs: a silent fallback to step would make this test vacuous.
    failures = vm_py.events.counts.get(eventkind.JIT_INTERNAL_FAILURE, 0)
    assert failures == 0, f"{name}: py backend fell back ({failures} failures)"
    return vm_py, vm_step


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_suite_program_identical_across_backends(program):
    _assert_runs_identical(program.source, program.name)


def test_sieve_identical_across_backends():
    _assert_runs_identical(SIEVE_PATH.read_text(), "sieve.js")


def _profiled_run(source: str, backend: str):
    config = VMConfig()
    config.native_backend = backend
    vm = TracingVM(config)
    vm.events.capture = True
    vm.enable_profiling()
    result = vm.run(source)
    return result, vm


def test_backend_used_reflects_config():
    source = "var s = 0; for (var i = 0; i < 500; i++) s += i; s;"
    _result, vm_py = _profiled_run(source, "py")
    _result, vm_step = _profiled_run(source, "step")
    assert vm_py.profiler.loops, "expected a compiled loop"
    assert all(loop.backend == "py" for loop in vm_py.profiler.loops)
    assert all(loop.backend == "step" for loop in vm_step.profiler.loops)
    # Compile wall time is only spent by the py backend.
    assert vm_py.profiler.pycompile_count > 0
    assert vm_step.profiler.pycompile_count == 0


def test_chaos_pycompile_fault_falls_back_to_step():
    """With the firewall up, an injected emission fault must be contained:
    the run completes on the step backend with an unchanged result."""
    from repro.hardening import FaultPlan

    source = SIEVE_PATH.read_text()
    clean_result, clean_vm = _run(source, "py")

    config = VMConfig()
    config.native_backend = "py"
    config.fault_plan = FaultPlan.parse(["pycompile.emit:*"])
    vm = TracingVM(config)
    vm.events.capture = True
    vm.enable_profiling()
    result = vm.run(source)

    assert repr(result) == repr(clean_result)
    assert vm.output == clean_vm.output
    # Every fragment emission failed, so execution fell back to step.
    assert vm.profiler.loops
    assert all(loop.backend == "step" for loop in vm.profiler.loops)
    failures = vm.events.of_kind(eventkind.JIT_INTERNAL_FAILURE)
    assert failures, "injected pycompile faults must be reported"
    assert all(e.payload["boundary"] == "pycompile" for e in failures)
    assert all(e.payload["injected"] for e in failures)
    # The fallback is a recovery, not a breaker strike: the firewall logs
    # the trip but does not advance toward safe mode.
    firewall = vm.firewall
    assert firewall is not None
    assert any(trip[0] == "pycompile" for trip in firewall.trips)
    assert firewall.failures == 0
    assert not vm.in_safe_mode
