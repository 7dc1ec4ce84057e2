"""The boxed-value bytecode interpreter.

Every opcode charges simulated cycles (see :mod:`repro.costs`) for
dispatch, tag tests, un/boxing, and the semantic work — these charges
are exactly what the tracing JIT later eliminates, so the cost model
*is* the experiment.

Opcode behaviour lives in one place, the per-code handler table of
:mod:`repro.interp.dispatch`.  Two short drivers run it:

* the **threaded** driver (:meth:`Interpreter._run_frame_threaded`),
  used while not recording, runs the table with hot opcode pairs fused
  into superinstructions;
* the **recording** driver (:meth:`Interpreter._run_frame_recording`)
  runs the unfused table and calls the recorder's hook before every
  bytecode, as the paper's recorder hooks the interpreter (Section 3).

Both charge identical simulated cycles, stats, and events per bytecode.
"""

from __future__ import annotations

from typing import List, Optional

from repro import costs
from repro.bytecode import opcodes as op
from repro.bytecode.compiler import Code
from repro.costs import Activity
from repro.errors import GuestFault, JSThrow, TraceAbort, VMInternalError
from repro.interp import dispatch
from repro.interp.frames import Frame
from repro.runtime import conversions
from repro.runtime.builtins import STRING_METHODS
from repro.runtime.objects import (
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    new_object_with_proto,
)
from repro.runtime.values import (
    Box,
    TAG_DOUBLE,
    TAG_INT,
    TAG_OBJECT,
    TAG_STRING,
    UNDEFINED,
    make_number,
    make_object,
    make_string,
)


class Interpreter:
    """Executes bytecode against a VM (globals, ledger, monitor, recorder).

    ``dispatch_cost`` parameterizes the baseline: 5 cycles for the
    switch-threaded SpiderMonkey-like interpreter, 2 for the
    call-threaded SquirrelFish-like baseline.
    """

    def __init__(self, vm, dispatch_cost: int = costs.DISPATCH):
        self.vm = vm
        self.dispatch_cost = dispatch_cost
        self.frames: List[Frame] = []
        # RETURN/RETUNDEF value handoff from threaded handlers (the
        # driving loop owns the frames/base-depth bookkeeping).
        self._ret: Optional[Box] = None

    # -- cost / profile helpers ---------------------------------------------

    def _charge(self, cycles: int) -> None:
        vm = self.vm
        activity = Activity.RECORD if vm.recorder is not None else Activity.INTERPRET
        vm.stats.ledger.charge(activity, cycles)

    # -- entry points ----------------------------------------------------------

    def run_toplevel(self, code: Code) -> Box:
        """Run a compiled program; returns the completion value."""
        frame = Frame(code)
        profiler = self.vm.profiler
        if profiler is None:
            return self._execute_toplevel(frame)
        # The phase timeline brackets the whole top-level run; phase
        # switches inside come from the monitor / recorder / compiler
        # hook sites, never from the per-bytecode dispatch loop.
        profiler.start()
        try:
            return self._execute_toplevel(frame)
        finally:
            profiler.finish()

    def _execute_toplevel(self, frame: Frame) -> Box:
        try:
            return self.execute(frame)
        except GuestFault:
            # Guest faults unwind the whole job without popping frames
            # (guest ``try`` cannot catch them); drop them here so the
            # VM stays reusable for the next job.
            del self.frames[:]
            raise

    def call_function(self, fn, this_box: Box, args: List[Box]) -> Box:
        """Call a JSLite or native function from the host."""
        if isinstance(fn, NativeFunction):
            return fn.fn(self.vm, this_box, args)
        if not isinstance(fn, JSFunction):
            raise JSThrow(make_string("TypeError: not a function"))
        frame = Frame(fn.code, this_box, args)
        return self.execute(frame)

    # -- throw handling -----------------------------------------------------------

    def _unwind(self, frames: List[Frame], base_depth: int, value: Box) -> bool:
        """Unwind ``frames`` (down to ``base_depth``) looking for a handler.

        Returns True if a handler was found (the frame is positioned at
        it with the exception pushed); otherwise frames are popped to
        ``base_depth`` and the caller re-raises.
        """
        self._charge(costs.THROW_UNWIND)
        while len(frames) > base_depth:
            frame = frames[-1]
            if frame.try_stack:
                handler_pc, depth = frame.try_stack.pop()
                del frame.stack[depth:]
                frame.stack.append(value)
                frame.pc = handler_pc
                return True
            frames.pop()
            self._charge(costs.FRAME_TEARDOWN)
        return False

    # -- the dispatch loop -----------------------------------------------------

    def execute(self, frame: Frame) -> Box:
        """Run ``frame`` (and everything it calls) to completion."""
        vm = self.vm
        frames = self.frames
        base_depth = len(frames)
        frames.append(frame)

        while len(frames) > base_depth:
            frame = frames[-1]
            try:
                result = self._run_frame(frame, frames, base_depth)
            except JSThrow as thrown:
                if vm.recorder is not None:
                    vm.monitor.abort_recording("exception-thrown")
                if not self._unwind(frames, base_depth, thrown.value):
                    raise
                continue
            if result is not _SWITCH_FRAME:
                return result
        raise VMInternalError("interpreter frame stack underflow")

    def _run_frame(self, frame: Frame, frames: List[Frame], base_depth: int):
        """Execute until the current frame changes or execution completes.

        Returns ``_SWITCH_FRAME`` when the top frame changed (call /
        return / unwinding, or a recorder attached or detached), or the
        final completion/return Box.

        Both drivers run the same handlers (:mod:`repro.interp.dispatch`)
        and charge identical simulated cycles per bytecode, so which one
        runs is invisible to results, stats, and events.
        """
        if self.vm.recorder is None:
            return self._run_frame_threaded(frame, frames, base_depth)
        return self._run_frame_recording(frame, frames, base_depth)

    def _run_frame_threaded(self, frame: Frame, frames: List[Frame], base_depth: int):
        """The non-recording driver: the fused handler table, one entry
        per pc.  Never runs while recording — the loop-header handler
        returns ``_SWITCH_FRAME`` the moment a recorder starts, and
        :meth:`_run_frame` then picks the recording driver."""
        code = frame.code
        table = code.threaded_table
        if table is None:
            table = _build_tables(code)[1]
        profile = self.vm.stats.profile
        stack = frame.stack
        charge = self._charge
        dispatch_cost = self.dispatch_cost

        while True:
            pc = frame.pc
            frame.pc = pc + 1
            profile.interpreted += 1
            charge(dispatch_cost)
            result = table[pc](self, frame, stack, charge, pc)
            if result is not None:
                return self._leave(result, frame, frames, base_depth)

    def _run_frame_recording(self, frame: Frame, frames: List[Frame], base_depth: int):
        """The recording driver: the *unfused* handler table, with the
        recorder's hook called before every bytecode (Section 3: the
        recorder observes each bytecode the interpreter executes).
        Superinstructions would hide their second bytecode from the
        recorder, so they are never used here."""
        vm = self.vm
        code = frame.code
        insns = code.insns
        table = code.handler_table
        if table is None:
            table = _build_tables(code)[0]
        profile = vm.stats.profile
        ledger = vm.stats.ledger
        stack = frame.stack
        charge = self._charge
        dispatch_cost = self.dispatch_cost
        RECORD_PER_BYTECODE = costs.RECORD_PER_BYTECODE

        while True:
            recorder = vm.recorder
            if recorder is None:
                # Recording finished or aborted: back to the fused table.
                return _SWITCH_FRAME
            pc = frame.pc
            opcode, arg = insns[pc]
            frame.pc = pc + 1
            profile.recorded += 1
            ledger.charge(Activity.RECORD, RECORD_PER_BYTECODE)
            try:
                wants_result = recorder.record_op(self, frame, pc, opcode, arg)
            except TraceAbort as abort:
                vm.monitor.abort_recording(abort.reason)
                wants_result = False
            except (JSThrow, GuestFault):
                raise
            except Exception as error:
                # The record firewall boundary: recording is passive
                # (the bytecode has not executed yet), so containing
                # the failure and dropping the recorder resumes
                # interpretation with no state repair needed.
                if not vm.monitor.contain_internal_failure("record", error):
                    raise
                wants_result = False
            charge(dispatch_cost)
            result = table[pc](self, frame, stack, charge, pc)
            if result is not None:
                return self._leave(result, frame, frames, base_depth)
            if wants_result:
                recorder.record_result(stack[-1])

    def _leave(self, result, frame: Frame, frames: List[Frame], base_depth: int):
        """Finish a handler that did not return None: ``_SWITCH_FRAME``
        passes through, ``_DO_RETURN`` pops ``frame`` and hands the
        stashed value to the caller, and END's completion Box (END
        already popped the frame) is the result."""
        if result is _DO_RETURN:
            value = self._ret
            self._ret = None
            frames.pop()
            self._charge(costs.FRAME_TEARDOWN)
            if len(frames) == base_depth:
                return value
            caller = frames[-1]
            if caller.code.insns[caller.pc - 1][0] == op.NEW:
                # `new F()`: a non-object return is replaced by `this`.
                if value.tag != TAG_OBJECT:
                    value = frame.this_box
            caller.stack.append(value)
            return _SWITCH_FRAME
        return result

    # -- preemption (Section 6.4) ---------------------------------------------

    def _check_preemption(self) -> None:
        self._charge(costs.PREEMPT_CHECK)
        vm = self.vm
        meter = vm.meter
        if meter is not None:
            # Ledger-based limit checks (deadline / compile quota /
            # cancellation); a breach sets the preemption flag so the
            # fault below is delivered at this loop-edge safe point.
            meter.poll(vm)
        if vm.preempt_flag:
            vm.service_preemption()

    # -- property access helpers -----------------------------------------------

    def _getprop(self, obj_box: Box, name: str) -> Box:
        tag = obj_box.tag
        if tag == TAG_STRING:
            self._charge(costs.TAG_TEST + costs.STRING_OP + costs.STACK_OP)
            if name == "length":
                return make_number(len(obj_box.payload))
            method = STRING_METHODS.get(name)
            if method is not None:
                return make_object(method)
            return UNDEFINED
        if tag != TAG_OBJECT:
            raise JSThrow(
                make_string(f"TypeError: cannot read property '{name}' of non-object")
            )
        obj = obj_box.payload
        if isinstance(obj, JSArray) and name == "length":
            self._charge(costs.TAG_TEST + costs.SLOT_ACCESS + costs.STACK_OP)
            return make_number(obj.length)
        if isinstance(obj, JSFunction) and name == "prototype":
            self._charge(costs.TAG_TEST + costs.SLOT_ACCESS + costs.STACK_OP)
            return make_object(obj.ensure_prototype())
        depth = obj.chain_depth_of(name)
        self._charge(
            costs.TAG_TEST
            + depth * costs.PROPERTY_LOOKUP
            + costs.SLOT_ACCESS
            + costs.STACK_OP
        )
        found = obj.lookup_chain(name)
        if found is None:
            return UNDEFINED
        return found[1]

    def _setprop(self, obj_box: Box, name: str, value: Box) -> None:
        if obj_box.tag != TAG_OBJECT:
            raise JSThrow(
                make_string(f"TypeError: cannot set property '{name}' of non-object")
            )
        obj = obj_box.payload
        if isinstance(obj, JSArray) and name == "length":
            self._charge(costs.TAG_TEST + costs.SLOT_ACCESS)
            new_length = int(conversions.to_number(value))
            if new_length < len(obj.elements):
                del obj.elements[new_length:]
            obj.length = max(new_length, 0)
            return
        is_new = obj.get_own(name) is None
        self._charge(
            costs.TAG_TEST
            + costs.PROPERTY_LOOKUP
            + costs.SLOT_ACCESS
            + (costs.SHAPE_TRANSITION if is_new else 0)
        )
        if is_new and self.vm.meter is not None:
            self.vm.meter.note_cells(1, self.vm)
        obj.set_property(name, value)

    @staticmethod
    def _index_of(index_box: Box):
        """Integer index of a numeric box, or None."""
        if index_box.tag == TAG_INT:
            return index_box.payload
        if index_box.tag == TAG_DOUBLE and index_box.payload.is_integer():
            return int(index_box.payload)
        return None

    def _getelem(self, obj_box: Box, index_box: Box) -> Box:
        if obj_box.tag == TAG_OBJECT:
            obj = obj_box.payload
            index = self._index_of(index_box)
            if isinstance(obj, JSArray) and index is not None:
                self._charge(costs.TAG_TEST * 2 + costs.DENSE_ELEM + costs.STACK_OP)
                if index_box.tag == TAG_DOUBLE:
                    self._charge(costs.D2I)
                element = obj.get_element(index)
                return element if element is not None else UNDEFINED
            # Generic path: number -> string key conversion (paper, fn. 1).
            key = conversions.to_property_key(index_box)
            self._charge(
                costs.TAG_TEST * 2
                + costs.STRING_OP * 2
                + costs.PROPERTY_LOOKUP
                + costs.STACK_OP
            )
            return self._getprop(obj_box, key)
        if obj_box.tag == TAG_STRING:
            index = self._index_of(index_box)
            self._charge(costs.TAG_TEST * 2 + costs.STRING_OP + costs.STACK_OP)
            if index is not None and 0 <= index < len(obj_box.payload):
                return make_string(obj_box.payload[index])
            return UNDEFINED
        raise JSThrow(make_string("TypeError: cannot index non-object"))

    def _setelem(self, obj_box: Box, index_box: Box, value: Box) -> None:
        if obj_box.tag != TAG_OBJECT:
            raise JSThrow(make_string("TypeError: cannot index non-object"))
        obj = obj_box.payload
        index = self._index_of(index_box)
        if isinstance(obj, JSArray) and index is not None:
            self._charge(costs.TAG_TEST * 2 + costs.DENSE_ELEM)
            if index_box.tag == TAG_DOUBLE:
                self._charge(costs.D2I)
            growth = index + 1 - obj.length if index >= obj.length else 0
            if obj.set_element(index, value):
                if growth and self.vm.meter is not None:
                    self.vm.meter.note_cells(growth, self.vm)
                return
        key = conversions.to_property_key(index_box)
        self._charge(costs.TAG_TEST * 2 + costs.STRING_OP * 2)
        self._setprop(obj_box, key, value)

    # -- call helpers ---------------------------------------------------------------

    def _do_call(
        self,
        frames: List[Frame],
        frame: Frame,
        callee_box: Box,
        this_box: Box,
        args: List[Box],
    ) -> bool:
        """Returns True if a new interpreter frame was pushed."""
        if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
            raise JSThrow(make_string("TypeError: not a function"))
        callee = callee_box.payload
        if isinstance(callee, NativeFunction):
            self._charge(
                costs.NATIVE_CALL + costs.FFI_BOX_PER_ARG * len(args) + costs.STACK_OP
            )
            result = callee.fn(self.vm, this_box, args)
            frame.stack.append(result)
            return False
        self._charge(costs.FRAME_SETUP)
        vm = self.vm
        if vm.meter is not None:
            # Pure recursion never crosses a loop edge, so the call
            # boundary doubles as a stack-quota/deadline safe point.
            vm.meter.note_frame_push(len(frames) + 1, vm)
        new_frame = Frame(callee.code, this_box, args)
        frames.append(new_frame)
        return True

    def _do_new(
        self,
        frames: List[Frame],
        frame: Frame,
        callee_box: Box,
        args: List[Box],
    ) -> bool:
        if callee_box.tag != TAG_OBJECT or not callee_box.payload.is_callable:
            raise JSThrow(make_string("TypeError: not a constructor"))
        callee = callee_box.payload
        self._charge(costs.ALLOC)
        if isinstance(callee, NativeFunction):
            self._charge(costs.NATIVE_CALL + costs.FFI_BOX_PER_ARG * len(args))
            result = callee.fn(self.vm, UNDEFINED, args)
            if result.tag != TAG_OBJECT:
                result = make_object(JSObject())
            frame.stack.append(result)
            return False
        this_obj = new_object_with_proto(callee)
        self._charge(costs.FRAME_SETUP + costs.SHAPE_TRANSITION)
        vm = self.vm
        if vm.meter is not None:
            vm.meter.note_cells(1, vm)
            vm.meter.note_frame_push(len(frames) + 1, vm)
        new_frame = Frame(callee.code, make_object(this_obj), args)
        frames.append(new_frame)
        return True


def _build_tables(code: Code):
    """Build and cache ``code``'s unfused and fused handler tables."""
    code.handler_table = dispatch.build_table(code)
    code.threaded_table = dispatch.fuse_table(code, code.handler_table)
    return code.handler_table, code.threaded_table


#: Sentinel: the current frame changed; refresh cached state.
_SWITCH_FRAME = dispatch.SWITCH_FRAME
#: Sentinel: a RETURN/RETUNDEF handler stashed its value in
#: ``interp._ret``.
_DO_RETURN = dispatch.DO_RETURN
