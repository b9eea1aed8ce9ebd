"""The names the benchmark's tracer, workloads and worker reach into emseg
by.

bench/tracing.py wraps each (module, attribute) of its TARGETS list, and
MultiSegment.__post_init__; bench/workloads.py and bench/worker.py read
emseg.<name> chains such as emseg.multi_segment, emseg.cli.run and
emseg.count._count_rec.cache_info.  TARGETS and the chains are read from
the source with ast, so no bench code is imported here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import emseg
import emseg.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS list")


def test_every_trace_target_is_a_callable():
    targets = _targets()
    assert len(targets) > 10
    missing = [(module, attr) for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []


def test_the_hooks_outside_targets_exist():
    core = importlib.import_module("emseg.core")
    assert callable(core.MultiSegment.__post_init__)
    assert callable(emseg.count._count_rec.cache_info)


def _emseg_chains(path):
    """Every attribute chain on the name emseg in a source file, as a
    tuple of names: emseg.cli.run gives ("cli", "run") and ("cli",)."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "emseg":
            chains.add(tuple(reversed(names)))
    return chains


@pytest.mark.parametrize("name, sample", [
    ("workloads.py", ("validate",)),
    ("worker.py", ("count", "_count_rec", "cache_info")),
])
def test_every_emseg_name_the_bench_reads_resolves(name, sample):
    chains = _emseg_chains(BENCH / name)
    assert sample in chains
    missing = []
    for chain in chains:
        value = emseg
        for attr in chain:
            value = getattr(value, attr, None)
        if value is None:
            missing.append(".".join(("emseg",) + chain))
    assert missing == []
