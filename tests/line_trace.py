"""Which ``raise`` statements of ``src/sphertwist`` a test run reaches.

The project depends on no coverage package, so this pytest plugin
records with `sys.settrace` the lines of ``src/sphertwist`` that a run
executes, and at the end of the run reports, module by module, how many
of the package's ``raise`` statements never ran and on which lines.  It
is not a test module, so pytest does not collect it; it is run by hand,
loaded with ``-p`` from the repository root::

    PYTHONPATH=src:tests python -m pytest -p line_trace -q tests

Tracing starts when pytest is configured and makes the run several
times slower.  A raise site is the line of an `ast.Raise` node, which is
the line the interpreter reports when the statement starts.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sphertwist"

_lines = set()
_inside = {}


def _in_package(filename):
    if filename not in _inside:
        _inside[filename] = Path(filename).resolve().parent == SRC
    return _inside[filename]


def _trace_lines(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    return _trace_lines if _in_package(frame.f_code.co_filename) else None


def raise_sites():
    """{module: sorted line numbers of its raise statements}."""
    return {
        path.stem: sorted(node.lineno for node in ast.walk(ast.parse(path.read_text("utf-8")))
                          if isinstance(node, ast.Raise))
        for path in sorted(SRC.glob("*.py"))
    }


def unreached(lines):
    """{module: (raise lines never run, number of raise lines)}, for the
    set of (module, line) pairs that ran."""
    return {
        module: ([n for n in sites if (module, n) not in lines], len(sites))
        for module, sites in raise_sites().items() if sites
    }


def pytest_configure(config):
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    report = unreached({(Path(f).stem, n) for f, n in _lines})
    missed = sum(len(lines) for lines, _ in report.values())
    total = sum(count for _, count in report.values())
    write = terminalreporter.write_line
    write("")
    write("%d of %d raise sites never ran: %s" % (missed, total, ", ".join(
        "%s %d/%d" % (module, len(lines), count) for module, (lines, count) in report.items())))
    for module, (lines, _) in report.items():
        if lines:
            write("  %s.py: %s" % (module, ", ".join(map(str, lines))))
