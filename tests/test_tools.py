"""The scripts under tools/."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Docstrings of a module, a function and a nested function, a comment line,
# a trailing comment, blank lines and a call over two lines.
SAMPLE = '''"""Module docstring,
over two lines."""

# A comment.
X = 1  # trailing comment


def outer(a):
    """Outer's docstring."""

    def inner(b):
        """Inner's docstring."""
        return b + 1
    return inner(
        a)
'''


def _tool(name):
    """The module tools/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    """X = 1, the two def lines, the nested return and the two lines of
    the call; each docstring, comment and blank line is left out."""
    assert _tool("code_lines").code_lines(SAMPLE) == 6


def test_executable_lines_reach_into_nested_functions(tmp_path):
    """The lines the module, outer and inner run: line 1 stores the module
    docstring, and a function's docstring runs no line of its own."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert _tool("line_trace").executable_lines(path) == {
        1, 5, 8, 11, 13, 14, 15}


def _has_git_checkout():
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _has_git_checkout(), reason="needs a git checkout")
def test_interleave_against_head():
    """tools/interleave.py runs one round of closure-bfs against the
    package at HEAD, checks every result on both sides, and prints one
    JSON line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), "--parent",
         "HEAD", "--workload", "closure-bfs", "--seed", "1", "--rounds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    line, = proc.stdout.decode().splitlines()
    out = json.loads(line)
    assert out["ops"] == 13 and 0 <= out["faster"] <= 13
    assert 0 < out["q1"] <= out["median_ratio"] <= out["q3"]
    assert out["parent_s"] > 0 and out["change_s"] > 0
