"""Span tracing around each layer's public functions, from outside ``src``.

:class:`Tracer` replaces each layer's entry points with a timing wrapper
for as long as it is installed.  Where a caller imported a function by
name, the wrapper replaces that name in the caller's module (for
example ``repro.core.tree.generate``, or the ``compile``/``exec`` names
that ``repro.jit.pycompile`` resolves through its module globals).

Every call becomes a span ``(id, name, start, end, parent id, program)``
kept in memory.  :func:`self_times` derives each layer's self time from
them: a span's duration minus the time its child spans cover.  The self
times of one pass add up to the traced wall time, less what no wrapper
covers (``unattributed_s``).
"""

from __future__ import annotations

import builtins
import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.bytecode.compiler
import repro.core.store
import repro.core.tree
import repro.jit.pycompile
import repro.vm
from repro.core.monitor import TraceMonitor
from repro.core.recorder import Recorder
from repro.core.store import TraceStore
from repro.interp.interpreter import Interpreter
from repro.jit.native import NativeMachine

_MISSING = object()


class Tracer:
    """Records spans and call counts at the layer boundaries."""

    def __init__(self):
        self.spans: List[Tuple[int, str, float, float, Optional[int], str]] = []
        #: Ids of the open spans, innermost last.
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: Label of the program run in progress (``"<pass>:<name>"``).
        self.program = ""
        self.counts: Counter = Counter()

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, name: Optional[str], fn: Callable, after=None) -> Callable:
        """``fn`` recorded as a span called ``name`` (None: count only);
        ``after(args, result)`` updates the counts."""
        tracer = self

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer.program)
                )
            if after is not None:
                after(args, result)
            return result

        return spanned

    def _patch(self, owner, attr: str, name: Optional[str], after=None) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        target = getattr(owner, attr, None)
        if target is None:  # a builtin the module resolves via its globals
            target = getattr(builtins, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, target, after))

    def _count(self, key: str, amount: Callable = lambda args, result: 1):
        def after(args, result):
            self.counts[key] += amount(args, result)

        return after

    def install(self) -> "Tracer":
        """Wrap every layer entry point (before any VM is created)."""
        pycompile = repro.jit.pycompile
        patch = self._patch
        patch(repro.bytecode.compiler, "parse", "frontend.parse")
        patch(repro.vm, "compile_program", "bytecode.compile")
        patch(Interpreter, "run_toplevel", "interp")
        patch(Interpreter, "call_function", "interp")
        patch(TraceMonitor, "on_loop_header", "core.monitor")
        patch(TraceMonitor, "execute_tree", "core.monitor")
        patch(Recorder, "record_op", "core.recorder")
        patch(Recorder, "close_loop", "core.recorder")
        patch(TraceMonitor, "finish_recording", "core.recorder")
        patch(TraceMonitor, "abort_recording", "core.recorder")

        def lir_sizes(args, result):
            self.counts["lir_in"] += len(args[0])
            self.counts["lir_out"] += len(result[0])

        patch(repro.core.tree, "optimize_fragment", "jit.optimizer", lir_sizes)
        patch(
            repro.core.tree,
            "generate",
            "jit.codegen",
            self._count("native_insns", lambda args, result: len(result[0])),
        )
        patch(pycompile, "emit_fragment", "jit.pycompile.emit")
        patch(pycompile, "emit_tree", "jit.pycompile.emit")
        patch(repro.core.store, "emit_fragment", "jit.pycompile.emit")
        patch(
            pycompile,
            "compile",
            "jit.pycompile.cpython_compile",
            self._count("source_chars", lambda args, result: len(args[0])),
        )
        patch(pycompile, "exec", "jit.pycompile.cpython_compile")
        patch(pycompile, "compile_fragment_py", None, self._count("fragment_builds"))
        patch(pycompile, "compile_tree_py", None, self._count("tree_builds"))
        patch(NativeMachine, "run", "jit.native")
        patch(pycompile, "run_compiled", "jit.native")
        patch(TraceStore, "preload", "core.store.preload")
        patch(TraceStore, "persist", "core.store.persist")
        return self

    def uninstall(self) -> None:
        """Put every wrapped name back as it was."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans) -> Dict[str, float]:
    """Seconds per span name, not counting time inside child spans."""
    names = {span[0]: span[1] for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    for _id, name, start, end, parent, _program in spans:
        totals[name] += end - start
        if parent is not None:
            totals[names[parent]] -= end - start
    return totals
