"""The names the benchmark's tracer and worker reach into emseg by.

bench/tracing.py wraps each (module, attribute) of its TARGETS list, and
MultiSegment.__post_init__; bench/worker.py reads
emseg.count._count_rec.cache_info().  TARGETS is read from the source with
ast, so no bench code is imported here.
"""

import ast
import importlib
from pathlib import Path

import emseg

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
