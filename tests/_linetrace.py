"""Opt-in line trace of ``src/gpdtools`` with the standard library alone.

Load it by name; the default test run does not::

    python -m pytest -p tests._linetrace tests/

From configuration to the end of the run, ``sys.settrace`` records each
line that runs in a frame whose code lies in ``src/gpdtools``; other frames
get no line tracer.  The summary then lists every executable line that no
test ran, as ``path:line: source``.  The executable lines are those of the
code objects (``co_lines()``) compiled from each module's source as read at
configuration, before the tests import it, so an edit made while the trace
runs does not shift the lines it reports.  Code run in a subprocess
or a pool worker is not traced, so its lines are listed as never run.  The
trace slows the run several times over.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gpdtools"
_PREFIX = str(SRC) + os.sep

#: Lines seen per code object: on a call its first line, then each line.
_hits: dict = {}
#: Each module's source, read at configuration.
_sources: dict[Path, str] = {}


def _lines_of(code) -> set[int]:
    """Every line of ``code`` and of the code objects nested in it."""
    lines = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _lines_of(const)
    return lines


def _trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_PREFIX):
        return None
    seen = _hits.setdefault(code, set())
    seen.add(code.co_firstlineno)

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    return local


def pytest_configure(config):
    _sources.update((path, path.read_text()) for path in sorted(SRC.glob("*.py")))
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for code, lines in _hits.items():
        ran.setdefault(os.path.realpath(code.co_filename), set()).update(lines)
    write = terminalreporter.write_line
    terminalreporter.section("lines of src/gpdtools no test ran")
    total = 0
    for path, source in _sources.items():
        text = source.splitlines()
        unrun = _lines_of(compile(source, str(path), "exec"))
        unrun -= ran.get(os.path.realpath(path), set())
        for line in sorted(unrun):
            write(f"{path.relative_to(SRC.parents[1])}:{line}: {text[line - 1].strip()}")
        total += len(unrun)
    write(f"{total} executable lines never ran")
