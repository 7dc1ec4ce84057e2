"""The interpreter's opcode semantics: per-code handler tables.

This module is the only implementation of bytecode behaviour in the
interpreter.  It precomputes, per :class:`Code`, a **handler table**:
one closure per pc, with the opcode decoded and the operand (const box,
local slot, property name, jump target) pre-resolved at build time.
Two drivers in :class:`repro.interp.interpreter.Interpreter` run it.
The non-recording driver is::

    pc = frame.pc
    frame.pc = pc + 1
    profile.interpreted += 1
    charge(dispatch_cost)
    result = table[pc](interp, frame, stack, charge, pc)

The recording driver is the same loop over the *unfused* table, with
``recorder.record_op`` called before the handler and
``recorder.record_result(stack[-1])`` after it when the recorder asks
for the value the bytecode produced.

For the non-recording driver, adjacent hot opcode pairs are **fused**
into superinstructions (:func:`fuse_table`): a fused entry executes
both bytecodes in one table hit, skipping a whole loop iteration.  The
pair set (:data:`FUSED_PAIRS`) comes from static pair-frequency
analysis over the benchmark-suite bytecode (``python -m
repro.interp.dispatch`` regenerates the table); fusion heads are
restricted to :data:`SAFE_FIRST` ops — ops that cannot raise, cannot
jump, and never touch ``frame.pc`` — so the fused entry's bookkeeping
is trivially correct.  Jumps *into* the middle of a fused pair need no
special handling: the table keeps an ordinary entry at every pc, so a
branch target simply uses the unfused entry.

Invariants:

* **Dispatch-cost agnostic.**  The driver charges ``dispatch_cost``
  per bytecode — fused entries charge it again for their second op —
  so fused and unfused tables charge identical cycles, and tables are
  safe to cache on the shared ``Code`` across engines.
* **Recording runs the unfused table.**  A superinstruction would hide
  its second bytecode from the recorder, so the fused table is driven
  only while ``vm.recorder is None``; the loop-header handler hands
  control back the moment the monitor starts a recorder.
* **Blacklist patching stays live.**  ``LOOPHEADER`` is patched to
  ``NOP`` in place by blacklisting (and patched *back* by the trace
  store's load rollback).  Header entries capture the mutable insn and
  re-read the opcode on every execution, so a stale table can neither
  consult the monitor for a blacklisted header nor skip a restored one.

``ThreadedVM`` (the SquirrelFish-like baseline) shares these tables
with a cheaper ``dispatch_cost``.  The method-JIT baseline
(:mod:`repro.baselines.method_jit`) compiles each method to its own
per-pc closures with different cost formulas, so it keeps its own loop
and does not use this table.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List

from repro import costs
from repro.bytecode import opcodes as op
from repro.errors import JSThrow
from repro.exec.limits import string_cells
from repro.runtime import conversions, operations
from repro.runtime.objects import JSArray, JSObject, enumerable_keys
from repro.runtime.values import (
    FALSE,
    NULL,
    TAG_DOUBLE,
    TAG_INT,
    TAG_OBJECT,
    TAG_STRING,
    TRUE,
    UNDEFINED,
    make_bool,
    make_number,
    make_object,
    make_string,
)

#: Sentinel: the top frame changed; ``execute()`` must refresh state.
SWITCH_FRAME = object()
#: Sentinel: RETURN/RETUNDEF; the value is stashed in ``interp._ret``
#: (the driving loop owns the frames/base-depth bookkeeping).
DO_RETURN = object()

_ZERO_BOX = make_number(0)
_ONE_BOX = make_number(1)
_NUM_TAGS = (TAG_INT, TAG_DOUBLE)

STACK_OP = costs.STACK_OP
TAG_TEST = costs.TAG_TEST
_STACK2 = 2 * costs.STACK_OP
_STACK3 = 3 * costs.STACK_OP
_SLOT_PUSH = costs.SLOT_ACCESS + costs.STACK_OP
_GLOBAL_GET = costs.GLOBAL_LOOKUP + costs.STACK_OP
_COND = costs.STACK_OP + costs.TAG_TEST
_TONUM_SLOW = costs.TAG_TEST + costs.D2I32 + costs.BOX
_DELPROP = costs.PROPERTY_LOOKUP + costs.SHAPE_TRANSITION
_INITPROP = costs.SHAPE_TRANSITION + costs.SLOT_ACCESS
_NEWOBJ = costs.ALLOC + costs.STACK_OP


# -- shared (operand-free) handlers ------------------------------------------------
#
# Uniform signature: handler(interp, frame, stack, charge, pc) -> result
# where result is None (keep going), SWITCH_FRAME, DO_RETURN, or the
# final completion Box (END only).


def _h_nop(interp, frame, stack, charge, pc):
    return None


def _h_zero(interp, frame, stack, charge, pc):
    stack.append(_ZERO_BOX)
    charge(STACK_OP)


def _h_one(interp, frame, stack, charge, pc):
    stack.append(_ONE_BOX)
    charge(STACK_OP)


def _h_undef(interp, frame, stack, charge, pc):
    stack.append(UNDEFINED)
    charge(STACK_OP)


def _h_null(interp, frame, stack, charge, pc):
    stack.append(NULL)
    charge(STACK_OP)


def _h_true(interp, frame, stack, charge, pc):
    stack.append(TRUE)
    charge(STACK_OP)


def _h_false(interp, frame, stack, charge, pc):
    stack.append(FALSE)
    charge(STACK_OP)


def _h_pop(interp, frame, stack, charge, pc):
    stack.pop()
    charge(STACK_OP)


def _h_popv(interp, frame, stack, charge, pc):
    frame.completion = stack.pop()
    charge(STACK_OP)


def _h_dup(interp, frame, stack, charge, pc):
    stack.append(stack[-1])
    charge(STACK_OP)


def _h_swap(interp, frame, stack, charge, pc):
    stack[-1], stack[-2] = stack[-2], stack[-1]
    charge(STACK_OP)


def _h_this(interp, frame, stack, charge, pc):
    stack.append(frame.this_box)
    charge(STACK_OP)


def _h_add(interp, frame, stack, charge, pc):
    right = stack.pop()
    left = stack.pop()
    value, cycles = operations.add(left, right)
    stack.append(value)
    charge(cycles + _STACK3)
    if value.tag == TAG_STRING:
        vm = interp.vm
        if vm.meter is not None:
            vm.meter.note_cells(string_cells(len(value.payload)), vm)


def _binop(fn):
    def handler(interp, frame, stack, charge, pc):
        right = stack.pop()
        left = stack.pop()
        value, cycles = fn(left, right)
        stack.append(value)
        charge(cycles + _STACK3)

    return handler


def _unop(fn):
    def handler(interp, frame, stack, charge, pc):
        value, cycles = fn(stack.pop())
        stack.append(value)
        charge(cycles + _STACK2)

    return handler


def _relop(text):
    def handler(interp, frame, stack, charge, pc):
        right = stack.pop()
        left = stack.pop()
        value, cycles = operations.compare(left, right, text)
        stack.append(value)
        charge(cycles + _STACK3)

    return handler


def _eqop(strict, negate):
    def handler(interp, frame, stack, charge, pc):
        right = stack.pop()
        left = stack.pop()
        value, cycles = operations.equals(left, right, strict, negate)
        stack.append(value)
        charge(cycles + _STACK3)

    return handler


def _h_tonum(interp, frame, stack, charge, pc):
    operand = stack[-1]
    if operand.tag not in _NUM_TAGS:
        stack[-1] = make_number(conversions.to_number(operand))
        charge(_TONUM_SLOW)
    else:
        charge(TAG_TEST)


def _h_getelem(interp, frame, stack, charge, pc):
    index_box = stack.pop()
    obj_box = stack.pop()
    stack.append(interp._getelem(obj_box, index_box))


def _h_setelem(interp, frame, stack, charge, pc):
    value = stack.pop()
    index_box = stack.pop()
    obj_box = stack.pop()
    interp._setelem(obj_box, index_box, value)
    stack.append(value)


def _h_iterkeys(interp, frame, stack, charge, pc):
    obj_box = stack.pop()
    vm = interp.vm
    keys = enumerable_keys(obj_box, vm.array_prototype)
    stack.append(make_object(keys))
    charge(
        costs.ALLOC
        + costs.PROPERTY_LOOKUP
        + costs.SLOT_ACCESS * max(keys.length, 1)
        + _STACK2
    )
    if vm.meter is not None:
        vm.meter.note_cells(1 + keys.length, vm)


def _h_newobj(interp, frame, stack, charge, pc):
    stack.append(make_object(JSObject()))
    charge(_NEWOBJ)
    vm = interp.vm
    if vm.meter is not None:
        vm.meter.note_cells(1, vm)


def _h_return(interp, frame, stack, charge, pc):
    interp._ret = stack.pop()
    return DO_RETURN


def _h_retundef(interp, frame, stack, charge, pc):
    interp._ret = UNDEFINED
    return DO_RETURN


def _h_throw(interp, frame, stack, charge, pc):
    raise JSThrow(stack.pop())


def _h_trypop(interp, frame, stack, charge, pc):
    frame.try_stack.pop()
    charge(STACK_OP)


def _h_end(interp, frame, stack, charge, pc):
    interp.frames.pop()
    return frame.completion


# -- operand-capturing factories ---------------------------------------------------
#
# factory(code, arg, pc) -> handler.  Operands are resolved once at
# table-build time (const boxes, names, jump targets, argc).


def _f_const(code, arg, pc):
    box = code.consts[arg]

    def handler(interp, frame, stack, charge, pc):
        stack.append(box)
        charge(STACK_OP)

    return handler


def _f_getlocal(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        stack.append(frame.locals[arg])
        charge(_SLOT_PUSH)

    return handler


def _f_setlocal(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        frame.locals[arg] = stack[-1]
        charge(costs.SLOT_ACCESS)

    return handler


def _f_getglobal(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        charge(_GLOBAL_GET)
        try:
            stack.append(interp.vm.globals[name])
        except KeyError:
            raise JSThrow(
                make_string(f"ReferenceError: {name} is not defined")
            ) from None

    return handler


def _f_setglobal(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        interp.vm.globals[name] = stack[-1]
        charge(costs.GLOBAL_LOOKUP)

    return handler


def _f_jump(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        if arg <= pc:
            interp._check_preemption()
        frame.pc = arg

    return handler


def _f_iffalse(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        condition = stack.pop()
        charge(_COND)
        if not conversions.to_boolean(condition):
            if arg <= pc:
                interp._check_preemption()
            frame.pc = arg

    return handler


def _f_iftrue(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        condition = stack.pop()
        charge(_COND)
        if conversions.to_boolean(condition):
            if arg <= pc:
                interp._check_preemption()
            frame.pc = arg

    return handler


def _f_andjmp(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        charge(_COND)
        if not conversions.to_boolean(stack[-1]):
            frame.pc = arg
        else:
            stack.pop()

    return handler


def _f_orjmp(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        charge(_COND)
        if conversions.to_boolean(stack[-1]):
            frame.pc = arg
        else:
            stack.pop()

    return handler


def _f_loopheader(code, arg, pc):
    # Capture the mutable insn, not the opcode: blacklisting patches
    # LOOPHEADER -> NOP in place (and the trace store's load rollback
    # patches it back), and the table must track the live state.
    insn = code.insns[pc]

    def handler(interp, frame, stack, charge, pc):
        if insn[0] != op.LOOPHEADER:
            return None
        vm = interp.vm
        monitor = vm.monitor
        if monitor is not None:
            monitor.on_loop_header(interp, frame, pc)
            if (
                vm.recorder is not None
                or interp.frames[-1] is not frame
                or frame.pc != pc + 1
            ):
                # A recording is active, a trace ran, or frames
                # changed: hand control back so the outer loop
                # refreshes its state and picks the right driver.
                return SWITCH_FRAME
        return None

    return handler


def _f_getprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        obj_box = stack.pop()
        stack.append(interp._getprop(obj_box, name))

    return handler


def _f_setprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        value = stack.pop()
        obj_box = stack.pop()
        interp._setprop(obj_box, name, value)
        stack.append(value)

    return handler


def _f_delprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        obj_box = stack.pop()
        if obj_box.tag != TAG_OBJECT:
            raise JSThrow(make_string("TypeError: delete on non-object"))
        charge(_DELPROP)
        stack.append(make_bool(obj_box.payload.delete_property(name)))

    return handler


def _f_initprop(code, arg, pc):
    name = code.names[arg]

    def handler(interp, frame, stack, charge, pc):
        value = stack.pop()
        obj_box = stack[-1]
        obj_box.payload.set_property(name, value)
        charge(_INITPROP)

    return handler


def _f_newarr(code, arg, pc):
    cost = costs.ALLOC + (arg + 1) * costs.STACK_OP

    def handler(interp, frame, stack, charge, pc):
        vm = interp.vm
        arr = JSArray(proto=vm.array_prototype)
        if arg:
            elements = stack[len(stack) - arg :]
            del stack[len(stack) - arg :]
            for index, element in enumerate(elements):
                arr.set_element(index, element)
        stack.append(make_object(arr))
        charge(cost)
        if vm.meter is not None:
            vm.meter.note_cells(1 + arg, vm)

    return handler


def _f_call(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        args = stack[len(stack) - arg :]
        del stack[len(stack) - arg :]
        callee_box = stack.pop()
        if interp._do_call(interp.frames, frame, callee_box, UNDEFINED, args):
            return SWITCH_FRAME

    return handler


def _f_callmethod(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        args = stack[len(stack) - arg :]
        del stack[len(stack) - arg :]
        callee_box = stack.pop()
        this_box = stack.pop()
        if interp._do_call(interp.frames, frame, callee_box, this_box, args):
            return SWITCH_FRAME

    return handler


def _f_new(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        args = stack[len(stack) - arg :]
        del stack[len(stack) - arg :]
        callee_box = stack.pop()
        if interp._do_new(interp.frames, frame, callee_box, args):
            return SWITCH_FRAME

    return handler


def _f_trypush(code, arg, pc):
    def handler(interp, frame, stack, charge, pc):
        frame.try_stack.append((arg, len(stack)))
        charge(STACK_OP)

    return handler


def _shared(handler):
    def factory(code, arg, pc):
        return handler

    return factory


_FACTORIES: Dict[int, object] = {
    op.NOP: _shared(_h_nop),
    op.LOOPHEADER: _f_loopheader,
    op.CONST: _f_const,
    op.UNDEF: _shared(_h_undef),
    op.NULL: _shared(_h_null),
    op.TRUE: _shared(_h_true),
    op.FALSE: _shared(_h_false),
    op.ZERO: _shared(_h_zero),
    op.ONE: _shared(_h_one),
    op.GETLOCAL: _f_getlocal,
    op.SETLOCAL: _f_setlocal,
    op.GETGLOBAL: _f_getglobal,
    op.SETGLOBAL: _f_setglobal,
    op.GETPROP: _f_getprop,
    op.SETPROP: _f_setprop,
    op.GETELEM: _shared(_h_getelem),
    op.SETELEM: _shared(_h_setelem),
    op.DELPROP: _f_delprop,
    op.ITERKEYS: _shared(_h_iterkeys),
    op.NEWOBJ: _shared(_h_newobj),
    op.NEWARR: _f_newarr,
    op.INITPROP: _f_initprop,
    op.ADD: _shared(_h_add),
    op.SUB: _shared(_binop(operations.sub)),
    op.MUL: _shared(_binop(operations.mul)),
    op.DIV: _shared(_binop(operations.div)),
    op.MOD: _shared(_binop(operations.mod)),
    op.NEG: _shared(_unop(operations.neg)),
    op.TONUM: _shared(_h_tonum),
    op.BITAND: _shared(_binop(operations.bitand)),
    op.BITOR: _shared(_binop(operations.bitor)),
    op.BITXOR: _shared(_binop(operations.bitxor)),
    op.BITNOT: _shared(_unop(operations.bitnot)),
    op.SHL: _shared(_binop(operations.shl)),
    op.SHR: _shared(_binop(operations.shr)),
    op.USHR: _shared(_binop(operations.ushr)),
    op.LT: _shared(_relop("<")),
    op.LE: _shared(_relop("<=")),
    op.GT: _shared(_relop(">")),
    op.GE: _shared(_relop(">=")),
    op.EQ: _shared(_eqop(False, False)),
    op.NE: _shared(_eqop(False, True)),
    op.STRICTEQ: _shared(_eqop(True, False)),
    op.STRICTNE: _shared(_eqop(True, True)),
    op.NOT: _shared(_unop(operations.logical_not)),
    op.TYPEOF: _shared(_unop(operations.typeof_op)),
    op.POP: _shared(_h_pop),
    op.POPV: _shared(_h_popv),
    op.DUP: _shared(_h_dup),
    op.SWAP: _shared(_h_swap),
    op.JUMP: _f_jump,
    op.IFFALSE: _f_iffalse,
    op.IFTRUE: _f_iftrue,
    op.ANDJMP: _f_andjmp,
    op.ORJMP: _f_orjmp,
    op.CALL: _f_call,
    op.CALLMETHOD: _f_callmethod,
    op.NEW: _f_new,
    op.RETURN: _shared(_h_return),
    op.RETUNDEF: _shared(_h_retundef),
    op.THIS: _shared(_h_this),
    op.THROW: _shared(_h_throw),
    op.TRYPUSH: _f_trypush,
    op.TRYPOP: _shared(_h_trypop),
    op.END: _shared(_h_end),
}


# -- superinstruction fusion -------------------------------------------------------

#: Fusion heads: ops whose handlers always return None, never raise,
#: never jump, and never touch ``frame.pc`` — so a fused entry can run
#: them unconditionally before delegating to the second op's handler.
SAFE_FIRST = frozenset(
    (
        op.CONST,
        op.GETLOCAL,
        op.SETLOCAL,
        op.ZERO,
        op.ONE,
        op.UNDEF,
        op.NULL,
        op.TRUE,
        op.FALSE,
        op.POP,
        op.POPV,
        op.DUP,
        op.SWAP,
        op.THIS,
    )
)

#: The fused pairs, from static pair-frequency analysis over the
#: 26-program benchmark suite (``python -m repro.interp.dispatch``):
#: the twelve most frequent adjacent pairs whose first op is in
#: :data:`SAFE_FIRST`.  Counts at generation time: SETLOCAL+POP 292,
#: GETLOCAL+GETLOCAL 204, POP+GETLOCAL 144, ONE+ADD 111, POP+ZERO 91,
#: POP+JUMP 91, GETLOCAL+CONST 87, CONST+SETGLOBAL 85, DUP+ONE 82,
#: POP+POP 75, DUP+GETPROP 74, POP+CONST 68.
FUSED_PAIRS = frozenset(
    (
        (op.SETLOCAL, op.POP),
        (op.GETLOCAL, op.GETLOCAL),
        (op.POP, op.GETLOCAL),
        (op.ONE, op.ADD),
        (op.POP, op.ZERO),
        (op.POP, op.JUMP),
        (op.GETLOCAL, op.CONST),
        (op.CONST, op.SETGLOBAL),
        (op.DUP, op.ONE),
        (op.POP, op.POP),
        (op.DUP, op.GETPROP),
        (op.POP, op.CONST),
    )
)


def _fuse(first, second):
    """A superinstruction: run ``first`` (a SAFE_FIRST handler), then do
    the loop's per-bytecode bookkeeping for the second op and delegate.
    ``second`` may itself be a fused entry, chaining further."""

    def fused(interp, frame, stack, charge, pc):
        first(interp, frame, stack, charge, pc)
        frame.pc = pc + 2
        interp.vm.stats.profile.interpreted += 1
        charge(interp.dispatch_cost)
        return second(interp, frame, stack, charge, pc + 1)

    return fused


# -- table construction ------------------------------------------------------------


def build_table(code) -> list:
    """The unfused handler table for ``code``: one handler per pc."""
    blacklisted = code.blacklisted_headers
    table: List[object] = []
    for pc, (opcode, arg) in enumerate(code.insns):
        # A blacklisted header reads NOP today but may be patched back
        # by the store's load rollback; keep it live.
        factory = _f_loopheader if pc in blacklisted else _FACTORIES[opcode]
        table.append(factory(code, arg, pc))
    return table


def fuse_table(code, table: list) -> list:
    """A copy of ``table`` with :data:`FUSED_PAIRS` fused into
    superinstructions (the non-recording driver's table)."""
    insns = code.insns
    blacklisted = code.blacklisted_headers
    table = list(table)
    # Fuse hot pairs, highest pc first so a fused entry can delegate to
    # an already-fused successor (chained superinstructions).
    for pc in range(len(insns) - 2, -1, -1):
        if pc in blacklisted or pc + 1 in blacklisted:
            continue
        if (insns[pc][0], insns[pc + 1][0]) in FUSED_PAIRS:
            table[pc] = _fuse(table[pc], table[pc + 1])
    return table


# -- static pair-frequency analysis ------------------------------------------------


def pair_frequencies(codes: Iterable) -> Counter:
    """Static adjacent-pair counts over ``codes``, restricted to
    fusable pairs (first op in :data:`SAFE_FIRST`, second op not a
    loop header)."""
    pairs: Counter = Counter()
    for code in codes:
        insns = code.insns
        for pc in range(len(insns) - 1):
            first, second = insns[pc][0], insns[pc + 1][0]
            if first in SAFE_FIRST and second != op.LOOPHEADER:
                pairs[(first, second)] += 1
    return pairs


def suite_codes() -> list:
    """Every Code object (top-level and nested functions) compiled from
    the benchmark suite."""
    from repro.bytecode.compiler import compile_program
    from repro.runtime.objects import JSFunction
    from repro.suite.programs import PROGRAMS

    codes: list = []

    def walk(code):
        codes.append(code)
        for box in code.consts:
            if box.tag == TAG_OBJECT and isinstance(box.payload, JSFunction):
                walk(box.payload.code)

    for program in PROGRAMS:
        walk(compile_program(program.source, program.name))
    return codes


def main() -> None:
    """Print the suite's fusable-pair frequency table (the source of
    :data:`FUSED_PAIRS`)."""
    for (first, second), count in pair_frequencies(suite_codes()).most_common(20):
        print(f"{count:5d}  {op.opcode_name(first):10s} {op.opcode_name(second)}")


if __name__ == "__main__":
    main()
