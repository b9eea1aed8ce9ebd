"""Breadth-first closure of a multi-segment under the operator moves.

The class of a non-vanishing multi-segment is generated by row exchanges,
union-intersections, their inverses (circle splits) and the dual-conjugated
versions of both.  The closure explores exact row lists; canonical forms
quotient out row exchanges and give the packet-level node set.
"""

from dataclasses import dataclass

from .core import (
    MultiSegment, _psi, check_star, order_admissible, order_sorted, render,
    row_is_strict, STRICT,
)
from .ops import (
    OrderError, SegmentError, dual, row_exchange, split_circles, to_sorted, ui,
)


@dataclass(frozen=True)
class ClosureReport:
    nodes: frozenset          # canonical keys, one per row-exchange class
    psi: frozenset            # Arthur parameters
    states: int               # exact row lists visited
    exhausted: bool
    max_states: int
    max_depth: int


DEFAULT_MAX_STATES = 100000
DEFAULT_MAX_DEPTH = 64


def _valid_state(ms):
    return (all(row_is_strict(r) for r in ms.rows)
            and order_admissible(ms.rows)
            and check_star(ms))


def _strictify(ms):
    if ms.mode != STRICT and all(row_is_strict(r) for r in ms.rows):
        return MultiSegment._of(ms.rows, STRICT)
    return ms


def exchange_neighbors(ms):
    """Results of every applicable row exchange."""
    out = []
    for k in range(len(ms.rows) - 1):
        try:
            res = row_exchange(ms, k)
        except SegmentError:
            continue
        if res.applied and res.out.rows != ms.rows:
            out.append(res.out)
    return out


def _ui_and_split_neighbors(ms):
    out = []
    for k in range(len(ms.rows) - 1):
        res = ui(ms, k)
        if res.applied:
            out.append(res.out)
    for k, r in enumerate(ms.rows):
        if r.l == 0 and r.A > r.B:
            for X in range(r.B, r.A):
                try:
                    out.append(split_circles(ms, k, X))
                except SegmentError:
                    continue
    return out


def _other_neighbors(ms):
    """The ui and split moves, plus their dual-conjugated versions when the
    order is (P')."""
    cand = _ui_and_split_neighbors(ms)
    if order_sorted(ms.rows):
        d = dual(ms)
        for moved in _ui_and_split_neighbors(d):
            try:
                cand.append(dual(to_sorted(moved)))
            except (OrderError, SegmentError):
                continue
    return cand


def neighbors(ms):
    """All single operator moves, filtered to valid strict states."""
    return [c for c in exchange_neighbors(ms) + _other_neighbors(ms)
            if _valid_state(c)]


def closure(ms, max_states=DEFAULT_MAX_STATES, max_depth=DEFAULT_MAX_DEPTH):
    """Breadth-first closure from a strict, non-vanishing seed."""
    seed = _strictify(ms)
    if not _valid_state(seed):
        raise SegmentError("closure seed must be strict, admissible and non-vanishing")
    # States are expanded in the order they are found, so states[start:]
    # is the frontier and exchange_edges[i] belongs to states[i].
    states = [seed]
    index = {seed.rows: 0}
    exchange_edges = []
    exhausted = True
    depth = 0
    start = 0
    while start < len(states):
        if depth >= max_depth:
            exhausted = False
            break
        end = len(states)
        for state in states[start:end]:
            exchange = exchange_neighbors(state)
            # A state in index already passed _valid_state.
            for cand in exchange + _other_neighbors(state):
                if cand.rows in index or not _valid_state(cand):
                    continue
                if len(states) >= max_states:
                    exhausted = False
                    break
                index[cand.rows] = len(states)
                states.append(cand)
            # Once the limit is hit nothing more is added, so every edge
            # to a visited state is known here even after a break.
            exchange_edges.append(
                [index[c.rows] for c in exchange if c.rows in index])
            if not exhausted:
                break
        if not exhausted:
            break
        start = end
        depth += 1
    nodes = frozenset(_component_keys(states, index, exchange_edges))
    psi = frozenset(_psi(s.rows) for s in states)
    return ClosureReport(nodes, psi, len(states), exhausted, max_states, max_depth)


def _component_keys(states, index, exchange_edges):
    """Canonical key per row-exchange component among the visited states.

    exchange_edges holds the edges of the states the search expanded; the
    others are looked up here.
    """
    parent = list(range(len(states)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i, edges in enumerate(exchange_edges):
        for j in edges:
            union(i, j)
    for i in range(len(exchange_edges), len(states)):
        for nb in exchange_neighbors(states[i]):
            j = index.get(nb.rows)
            if j is not None:
                union(i, j)
    best = {}
    for i, s in enumerate(states):
        root = find(i)
        key = render(s).encode()
        if root not in best or key < best[root]:
            best[root] = key
    return best.values()


def canonical(ms):
    """Least serialized row list over all row-exchange-reachable states."""
    seed = _strictify(ms)
    seen = {seed.rows}
    frontier = [seed]
    best = render(seed).encode()
    while frontier:
        nxt = []
        for state in frontier:
            for nb in exchange_neighbors(state):
                if nb.rows in seen:
                    continue
                seen.add(nb.rows)
                key = render(nb).encode()
                if key < best:
                    best = key
                nxt.append(nb)
        frontier = nxt
    return best


def are_equivalent(ms1, ms2,
                   max_states=DEFAULT_MAX_STATES, max_depth=DEFAULT_MAX_DEPTH):
    """Shared membership test via the closure of the first argument."""
    report = closure(ms1, max_states, max_depth)
    return canonical(ms2) in report.nodes
