"""Tests for the interpreter's handler tables (:mod:`repro.interp.dispatch`).

The handler table is the only implementation of opcode behaviour, so
every opcode needs a handler.  Recording drives the *unfused* table:
the recorder must observe every bytecode, including the second half of
each superinstruction pair.
"""

from __future__ import annotations

from repro import BaselineVM, TracingVM
from repro.bytecode import opcodes as op
from repro.core.recorder import Recorder
from repro.interp import dispatch

#: A function loop whose straight-line body holds many fused pairs
#: (SETLOCAL POP, POP GETLOCAL, GETLOCAL GETLOCAL, ONE ADD, DUP ONE,
#: POP POP, POP JUMP, ...).
FUSED_LOOP = """
function f(o) {
  var s = 0; var t = 0;
  for (var i = 0; i < 20; i++) { t = s; s = t + i; o.x = o.x + 1; }
  return s + o.x;
}
f({x: 0});
"""


def test_every_opcode_has_a_handler_factory():
    missing = [
        name for code, name in enumerate(op.OPCODE_NAMES)
        if code not in dispatch._FACTORIES
    ]
    assert missing == []


def test_fused_pairs_are_the_suite_top_twelve():
    """FUSED_PAIRS is documented as the twelve most frequent fusable
    pairs in the benchmark suite's bytecode."""
    top = dispatch.pair_frequencies(dispatch.suite_codes()).most_common(12)
    assert frozenset(pair for pair, _count in top) == dispatch.FUSED_PAIRS


def test_recording_sees_every_bytecode_of_fused_pairs(monkeypatch):
    seen = []
    original = Recorder.record_op

    def spy(self, interp, frame, pc, opcode, arg):
        seen.append((frame.code, pc))
        return original(self, interp, frame, pc, opcode, arg)

    monkeypatch.setattr(Recorder, "record_op", spy)
    vm = TracingVM()
    result = vm.run(FUSED_LOOP)
    assert repr(result) == repr(BaselineVM().run(FUSED_LOOP))

    code = vm.globals["f"].payload.code
    (loop,) = code.loops
    header = loop.header_pc
    back_edge = loop.end_pc - 1
    assert tuple(code.insns[back_edge]) == (op.JUMP, header)
    body = range(header + 1, back_edge + 1)
    fused_in_body = [
        pc for pc in body[:-1]
        if (code.insns[pc][0], code.insns[pc + 1][0]) in dispatch.FUSED_PAIRS
    ]
    assert len(fused_in_body) >= 8

    # Recording starts just after the header and closes the loop when
    # it reaches the header again: one iteration is every body pc, in
    # order, then the header.
    pcs = [pc for seen_code, pc in seen if seen_code is code]
    iteration = list(body) + [header]
    assert len(pcs) >= len(iteration)
    assert len(pcs) % len(iteration) == 0
    assert pcs == iteration * (len(pcs) // len(iteration))
