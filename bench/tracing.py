"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper at
every emseg module attribute that holds it, which is where callers look it
up, and ``uninstall`` puts the originals back; emseg's source is untouched.
``MultiSegment`` construction is traced through its ``__post_init__``.

Each wrapper call is a span.  Spans nest on a stack and are folded into
per-function totals as they close: calls, total time, self time (the span
minus the time its child spans cover) and outcome counts.  Keeping totals
instead of every span keeps a traced closure run, which makes millions of
``make_row`` calls, in a few kilobytes.
"""

import functools
import sys
import time

# (module, attribute, metric prefix); the outcome hooks are below.
TARGETS = [
    ("emseg.core", "make_row", "core.make_row"),
    ("emseg.core", "arthur_parameter", "core.arthur_parameter"),
    ("emseg.core", "render", "core.render"),
    ("emseg.core", "parse", "core.parse"),
    ("emseg.ops", "row_exchange", "ops.row_exchange"),
    ("emseg.ops", "ui", "ops.ui"),
    ("emseg.ops", "dual", "ops.dual"),
    ("emseg.ops", "split_circles", "ops.split_circles"),
    ("emseg.ops", "to_sorted", "ops.to_sorted"),
    ("emseg.closure", "exchange_neighbors", "closure.exchange_neighbors"),
    ("emseg.closure", "neighbors", "closure.neighbors"),
    ("emseg.closure", "closure", "closure.closure"),
    ("emseg.sdata", "enumerate_S", "sdata.enumerate_S"),
    ("emseg.sdata", "enumerate_ST", "sdata.enumerate_ST"),
    ("emseg.sdata", "validate_S", "sdata.validate_S"),
    ("emseg.sdata", "validate_T", "sdata.validate_T"),
    ("emseg.sdata", "build", "sdata.build"),
    ("emseg.blocks", "block_decompose", "blocks.block_decompose"),
    ("emseg.blocks", "block_tuple", "blocks.block_tuple"),
    ("emseg.count", "count_tempered", "count.count_tempered"),
    ("emseg.cli", "run", "cli.run"),
]
POST_INIT = "core.multisegment"


def _applied(result):
    return result.applied


def _accepted(result):
    return bool(result)


def _closure_sizes(result):
    return {"states": result.states, "psi": len(result.psi)}


def _candidates(result):
    return {"candidates": len(result)}


# What counts as a useful outcome, per traced function: a function returning
# True counts in "useful"; one returning a dict adds its entries.
OUTCOMES = {
    "ops.row_exchange": _applied,
    "ops.ui": _applied,
    "sdata.validate_S": _accepted,
    "sdata.validate_T": _accepted,
    "closure.closure": _closure_sizes,
    "closure.neighbors": _candidates,
}


class Stat:
    __slots__ = ("calls", "failed", "total_ns", "self_ns", "useful", "extra")

    def __init__(self):
        self.calls = self.failed = self.total_ns = self.self_ns = 0
        self.useful = 0
        self.extra = {}


class Tracer:
    """Wrappers over the traced functions, built once; ``install`` and
    ``uninstall`` swap them in and out at every place they are looked up."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._places = []  # (owner, attribute, original, wrapper)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "emseg" or n.startswith("emseg."))]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._places.append((module, key, original, wrapper))
        cls = sys.modules["emseg.core"].MultiSegment
        original = cls.__post_init__
        self._places.append(
            (cls, "__post_init__", original, self._wrap(POST_INIT, original)))

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        outcome = OUTCOMES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                span = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.total_ns += span
                stat.self_ns += span - children
                if stack:
                    stack[-1] += span
            if outcome is not None:
                got = outcome(result)
                if got is True:
                    stat.useful += 1
                elif got:
                    for key, value in got.items():
                        stat.extra[key] = stat.extra.get(key, 0) + value
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        for owner, key, _, wrapper in self._places:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._places:
            setattr(owner, key, original)

    def table(self):
        """Every traced function's totals, for the trace file."""
        return {
            name: {"calls": s.calls, "failed": s.failed, "useful": s.useful,
                   "total_ms": s.total_ns / 1e6, "self_ms": s.self_ns / 1e6,
                   **s.extra}
            for name, s in sorted(self.stats.items())}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, cache_before, cache_after):
    """The per-layer metrics by name, from one traced run.

    ``cache_before``/``cache_after`` are ``count._count_rec.cache_info()``
    around the timed operations.
    """
    s = tracer.stats
    m = {}

    def calls(name):
        m[name + ".calls"] = (s[name].calls, "count")

    def self_ms(name):
        m[name + ".self_ms"] = (s[name].self_ns / 1e6, "ms")

    def failed(name):
        m[name + ".failed"] = (s[name].failed, "count")

    def ratio(name, label):
        m["%s.%s" % (name, label)] = (_ratio(s[name].useful, s[name].calls), "ratio")

    for name in ("core.make_row", POST_INIT, "core.arthur_parameter",
                 "core.render", "core.parse"):
        calls(name)
        self_ms(name)
    for name in ("ops.row_exchange", "ops.ui", "ops.dual",
                 "ops.split_circles", "ops.to_sorted"):
        calls(name)
        self_ms(name)
    ratio("ops.row_exchange", "applied_ratio")
    failed("ops.row_exchange")
    ratio("ops.ui", "applied_ratio")
    failed("ops.split_circles")

    clo = s["closure.closure"].extra
    states = clo.get("states", 0)
    candidates = s["closure.neighbors"].extra.get("candidates", 0)
    calls("closure.neighbors")
    self_ms("closure.neighbors")
    self_ms("closure.closure")
    m["closure.candidates"] = (candidates, "count")
    # Every state but the seed of each closure was once a new candidate.
    m["closure.new_per_candidate"] = (
        _ratio(states - s["closure.closure"].calls, candidates), "ratio")
    m["closure.exchange_neighbors.per_state"] = (
        _ratio(s["closure.exchange_neighbors"].calls, states), "calls/state")
    m["closure.states"] = (states, "count")
    m["closure.psi"] = (clo.get("psi", 0), "count")

    for name in ("sdata.enumerate_S", "sdata.validate_S", "sdata.validate_T",
                 "sdata.build"):
        calls(name)
    self_ms("sdata.enumerate_S")
    self_ms("sdata.enumerate_ST")
    self_ms("sdata.build")
    ratio("sdata.validate_S", "accept_ratio")
    ratio("sdata.validate_T", "accept_ratio")

    calls("blocks.block_decompose")
    self_ms("blocks.block_decompose")
    self_ms("blocks.block_tuple")

    calls("count.count_tempered")
    failed("count.count_tempered")
    self_ms("count.count_tempered")
    m["count.cache.hits"] = (cache_after.hits - cache_before.hits, "count")
    m["count.cache.misses"] = (cache_after.misses - cache_before.misses, "count")
    m["count.cache.currsize"] = (cache_after.currsize, "entries")

    calls("cli.run")
    self_ms("cli.run")
    return m
