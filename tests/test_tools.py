"""The scripts under tools/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
