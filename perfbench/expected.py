"""Rebuild ``expected_suite.json``, the ``interp-only`` reference.

It holds each suite program's completion value (as ``repr``) and
printed output on the tracing-off interpreter.  Rebuild it only when a
suite program or the language's defined behaviour changes, and review
the diff.  From the repository root::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.suite.programs import PROGRAMS  # noqa: E402
from repro.vm import BaselineVM  # noqa: E402

from workloads import EXPECTED_PATH  # noqa: E402


def reference_run(source: str, name: str) -> Tuple[str, List[str]]:
    """Completion value repr and output of the tracing-off interpreter."""
    vm = BaselineVM()
    result = vm.run(source, name=name)
    return repr(result), list(vm.output)


def main() -> None:
    table = {p.name: list(reference_run(p.source, p.name)) for p in PROGRAMS}
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
