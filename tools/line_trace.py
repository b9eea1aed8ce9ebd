"""List the lines of the emseg package that no tier-1 test executes.

coverage is not a dependency, so this script traces with sys.settrace:
it runs the tests in tests/ in process under the tracer, then prints, per
module, the lines that hold code and never ran.  Run from anywhere:

    python3 tools/line_trace.py [PYTEST_ARGS...]

The lines are reported whatever the tests' outcome.  The tracer slows
the suite down several times over, so the tests that assert a time
budget may fail under it; that does not change which lines ran.  Lines that
only a child process runs (the CLI tests that start `python -m
emseg.cli`) count as not run.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emseg"


def _code_lines(code):
    """The line numbers that the code object code and the code objects
    nested in it run, as a set; line 0, a module's start, is left out."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines(path):
    """The lines of the Python file path that hold code the interpreter
    runs."""
    return _code_lines(compile(path.read_text(), str(path), "exec"))


def trace_tests(args):
    """Run pytest with args under the tracer: {file name: lines run}."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
                    + args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main(args):
    ran = trace_tests(args)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print("%s: %s" % (path.name, ", ".join(map(str, missed))))
    print("%d lines not run" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
