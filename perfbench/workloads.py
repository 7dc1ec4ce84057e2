"""The benchmark's four workloads: their inputs, engines and references.

Every workload is a list of :class:`Job` (a generated source plus the
reference its run is checked against) and a way to build a fresh VM
for one job.  The seed decides the program order and the ``hot-loops``
sizes; the VM only ever sees the generated sources.

References never come from the engine under test:

* the suite workloads: ``expected_suite.json``, the tracing-off
  interpreter's (:class:`repro.vm.BaselineVM`) completion value and
  output for each program, checked in and rebuilt only by
  ``python3 perfbench/expected.py``.  The benchmark's tests check that
  the interpreter still reproduces it.
* ``hot-loops``: a plain-Python version of each kernel (``zlib`` for
  crc32).
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.runtime.values import TAG_DOUBLE, TAG_INT
from repro.suite.programs import PROGRAMS
from repro.vm import BaselineVM, TracingVM, VMConfig

EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "expected_suite.json"

WORKLOADS = ("suite-cold", "hot-loops", "warm-start", "interp-only")


@dataclass
class Job:
    """One program run: its name, generated source and reference.

    ``expected`` is ``(result repr, output lines)`` for suite programs
    and ``(number, [])`` for hot-loops kernels, whose completion value
    is compared numerically (the engines may box an integral result as
    int or double).
    """

    name: str
    source: str
    expected: Optional[Tuple[object, List[str]]] = None


def check(job: Job, result, output: List[str]) -> bool:
    """Whether a run's completion value and printed output match."""
    if job.expected is None:  # no reference for this program
        return False
    want_value, want_output = job.expected
    if list(output) != list(want_output):
        return False
    if isinstance(want_value, str):
        return repr(result) == want_value
    return result.tag in (TAG_INT, TAG_DOUBLE) and result.payload == want_value


# -- suite programs -----------------------------------------------------------


def suite_jobs(seed: int, names: Optional[Sequence[str]] = None) -> List[Job]:
    """The suite programs (all 25, or those in ``names``) in seed-shuffled
    order."""
    programs = [p for p in PROGRAMS if names is None or p.name in names]
    random.Random(seed).shuffle(programs)
    return [Job(p.name, p.source) for p in programs]


def load_expected() -> dict:
    """``{program name: [result repr, output lines]}``."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# -- hot-loops kernels ----------------------------------------------------------

#: Every kernel splits a fixed total size into ``ROUNDS`` seeded sizes
#: that pair up around the mean (m + d, m - d), so the seed changes the
#: inputs but not the amount of work, and wall time stays comparable
#: across seeds.
ROUNDS = 6

_SIEVE = """
var sizes = [%(sizes)s];
var total = 0;
for (var round = 0; round < sizes.length; round++) {
    var n = sizes[round];
    var isPrime = [];
    for (var i = 0; i < n; i++) isPrime[i] = true;
    var primes = 0;
    for (var i = 2; i < n; i++) {
        if (isPrime[i]) {
            primes++;
            for (var k = i + i; k < n; k += i) isPrime[k] = false;
        }
    }
    total += primes;
}
total;
"""

_NSIEVE_BITS = """
function nsieveBits(m) {
    var count = 0;
    var size = (m >> 5) + 1;
    var flags = new Array(size);
    for (var f = 0; f < size; f++) flags[f] = -1;
    for (var i = 2; i < m; i++) {
        if (flags[i >> 5] & (1 << (i & 31))) {
            count++;
            for (var j = i + i; j < m; j += i)
                flags[j >> 5] = flags[j >> 5] & ~(1 << (j & 31));
        }
    }
    return count;
}
var sizes = [%(sizes)s];
var total = 0;
for (var r = 0; r < sizes.length; r++) total += nsieveBits(sizes[r]);
total;
"""

_CRC32 = """
var crcTable = new Array(256);
for (var n = 0; n < 256; n++) {
    var c = n;
    for (var k = 0; k < 8; k++) {
        if (c & 1) c = -306674912 ^ (c >>> 1);
        else c = c >>> 1;
    }
    crcTable[n] = c;
}
function crc32(text) {
    var crc = -1;
    for (var i = 0; i < text.length; i++)
        crc = (crc >>> 8) ^ crcTable[(crc ^ text.charCodeAt(i)) & 0xFF];
    return (crc ^ -1) >>> 0;
}
var messages = [%(messages)s];
var sum = 0;
for (var r = 0; r < messages.length; r++)
    sum = (sum + crc32(messages[r])) & 0x7fffffff;
sum;
"""

_PARTIAL_SUMS = """
function partial(n) {
    var a3 = 0.0, a6 = 0.0, a7 = 0.0, a8 = 0.0, a9 = 0.0;
    var alt = -1.0;
    for (var k = 1; k <= n; k++) {
        var k2 = k * k;
        alt = -alt;
        a3 += 1.0 / (k * (k + 1.0));
        a6 += 1.0 / k;
        a7 += 1.0 / k2;
        a8 += alt / k;
        a9 += alt / (2 * k - 1);
    }
    return a3 + a6 + a7 + a8 + a9;
}
var sizes = [%(sizes)s];
var total = 0.0;
for (var r = 0; r < sizes.length; r++) total += partial(sizes[r]);
Math.floor(total * 1000000);
"""


def _count_primes(n: int) -> int:
    flags = bytearray([1]) * max(n, 2)
    flags[0] = flags[1] = 0
    for i in range(2, n):
        if flags[i]:
            flags[i + i :: i] = bytes(len(range(i + i, n, i)))
    return sum(flags[:n])


def _partial(n: int) -> float:
    a3 = a6 = a7 = a8 = a9 = 0.0
    alt = -1.0
    for k in range(1, n + 1):
        k2 = k * k
        alt = -alt
        a3 += 1.0 / (k * (k + 1.0))
        a6 += 1.0 / k
        a7 += 1.0 / k2
        a8 += alt / k
        a9 += alt / (2 * k - 1)
    return a3 + a6 + a7 + a8 + a9


def _paired_sizes(rng: random.Random, mean: int, spread: int) -> List[int]:
    sizes = []
    for _ in range(ROUNDS // 2):
        delta = rng.randint(0, spread)
        sizes += [mean + delta, mean - delta]
    rng.shuffle(sizes)
    return sizes


def _message(rng: random.Random, length: int) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,"
    return "".join(rng.choice(alphabet) for _ in range(length))


def hot_loop_jobs(seed: int, scale: float = 1.0) -> List[Job]:
    """The four type-stable kernels, sized from the seed.

    ``scale`` shrinks every size for the benchmark's own smoke tests.
    """
    rng = random.Random(seed)

    def size(mean: int) -> int:
        return max(8, int(mean * scale))

    sieve = _paired_sizes(rng, size(4000), size(4000) // 4)
    bits = _paired_sizes(rng, size(3000), size(3000) // 4)
    lengths = _paired_sizes(rng, size(4500), size(4500) // 4)
    messages = [_message(rng, n) for n in lengths]
    partial = _paired_sizes(rng, size(8000), size(8000) // 4)

    crc_sum = 0
    for text in messages:
        crc_sum = (crc_sum + zlib.crc32(text.encode("ascii"))) & 0x7FFFFFFF
    partial_total = 0.0
    for n in partial:
        partial_total += _partial(n)

    def joined(values) -> str:
        return ", ".join(str(v) for v in values)

    return [
        Job(
            "sieve",
            _SIEVE % {"sizes": joined(sieve)},
            (sum(_count_primes(n) for n in sieve), []),
        ),
        Job(
            "nsieve-bits",
            _NSIEVE_BITS % {"sizes": joined(bits)},
            (sum(_count_primes(n) for n in bits), []),
        ),
        Job(
            "crc32",
            _CRC32 % {"messages": joined(json.dumps(m) for m in messages)},
            (crc_sum, []),
        ),
        Job(
            "partial-sums",
            _PARTIAL_SUMS % {"sizes": joined(partial)},
            (math.floor(partial_total * 1000000), []),
        ),
    ]


# -- engines ----------------------------------------------------------------------


def engine_for(workload: str) -> Callable[[Optional[str]], object]:
    """A factory ``make_vm(store_dir)`` for one program run of ``workload``.

    ``suite-cold`` and ``hot-loops`` use the shipped default (py backend,
    opt-level 2, no store); ``warm-start`` adds the trace store;
    ``interp-only`` is the tracing-off engine.
    """
    if workload == "interp-only":
        return lambda store_dir=None: BaselineVM()
    if workload == "warm-start":
        return lambda store_dir=None: TracingVM(VMConfig(trace_store=store_dir))
    return lambda store_dir=None: TracingVM()
