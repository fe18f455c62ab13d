"""Print each line of ``src/latticefl`` that no tier-1 test runs in-process.

The runner runs pytest with a ``sys.settrace`` tracer installed before
the package is imported, and records every line that runs in a file of
the package.  A line counts as code when the line table of its module's
code object, or of a code object nested in it, lists it.  Each such line
that never ran is printed as ``path:line: text``; the exit status is 1
if there is any.  This is not part of the tier-1 suite.  From the
repository root::

    python tests/run_linecov.py                     # the whole tier-1 suite
    python tests/run_linecov.py tests/test_cli.py   # pytest arguments, passed on

The tracer does not follow subprocesses: a line that only a child
interpreter runs (``python -c``, ``python -m``) counts as unrun.  Every
frame's line events go to one shared local trace function: a fresh
closure per call that returns itself is a reference cycle, which only the
cyclic collector frees, and the ~600 such closures that 2000 clients'
local training left alive lifted
``test_tasks.py::test_local_update_peak_memory_is_one_block_beyond_its_result[2000]``
from 1.15 to 1.41 blocks, past its bound of 1.25.  The suite takes about
twice as long under the tracer.  The verdict rests on the lines that
ran, not on whether the tests passed; pytest's own summary is printed as
usual.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticefl"


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that the line tables of ``code`` and its nested code objects list."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # a call's first line: a function's def, a module's first statement
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        missing = sorted(code_lines(compile(source, str(path), "exec")) - ran.get(str(path), set()))
        text = source.splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        unrun += len(missing)
    print(f"{unrun} unrun lines in {PACKAGE.relative_to(ROOT)}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
