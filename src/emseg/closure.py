"""Breadth-first closure of a multi-segment under the operator moves.

The class of a non-vanishing multi-segment is generated by row exchanges,
union-intersections, their inverses (circle splits) and the dual-conjugated
versions of both.  The closure explores exact row lists; canonical forms
quotient out row exchanges and give the packet-level node set.

The search works on row tuples.  _moves computes every move of a state with
the row-level cores of ops, as a candidate row tuple of weak-normalized
rows; the candidate is looked up among the visited states first, and only
a new one is checked, on the rows the move may have changed (see
_valid_move).  A new state is stored as the tuple the cores built, once:
it is both its key in the index and its entry in the state list.
"""

from dataclasses import dataclass

from .core import (
    MultiSegment, _psi, order_admissible, order_sorted, render, row_is_strict,
    STRICT,
)
from .ops import (
    SegmentError, _supports_nest, _with_new_rows, dual_rows, exchange_pair,
    pair_ui_type, sort_rows, split_pair, split_points, ui_rows,
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


def _rows_ok(rows):
    """Every row strict (0 <= 2l <= b) and non-vanishing (B + l >= 0, the
    row-wise condition of check_star)."""
    return all(row_is_strict(r) and r.B + r.l >= 0 for r in rows)


def _valid_state(rows):
    """Strict, (P)-admissible and non-vanishing."""
    return _rows_ok(rows) and order_admissible(rows)


def _valid_move(rows, lo, hi):
    """_valid_state of the output rows of a move of a valid state, where
    every row outside rows[lo:hi] is a row of the parent.

    Only the new rows need the strict and check_star tests, because no
    move breaks (P):
    - an exchange swaps a nesting pair, which (P) allows in either order;
    - a ui's union [A2, B1] and intersection [A1, B2] may stand before
      (after) every row that both old rows could stand before (after);
    - _local_moves yields only the splits that keep (P);
    - a dual-conjugated output is (P')-sorted, as every dual is.
    """
    return _rows_ok(rows[lo:hi])


def _exchange_moves(rows):
    """Every row exchange that changes rows, as (rows, lo, hi)."""
    for k in range(len(rows) - 1):
        r1, r2 = rows[k], rows[k + 1]
        if _supports_nest(r1, r2):
            pair = exchange_pair(r1, r2)
            if pair != (r1, r2):
                yield rows[:k] + pair + rows[k + 2:], k, k + 2


def _local_moves(rows):
    """Every ui, then every split that keeps the (P)-admissible rows
    admissible, as (rows, lo, hi)."""
    for k in range(len(rows) - 1):
        r1, r2 = rows[k], rows[k + 1]
        tag = pair_ui_type(r1, r2)
        if tag is not None:
            new = ui_rows(r1, r2, tag)
            yield rows[:k] + new + rows[k + 2:], k, k + len(new)
    for k, r in enumerate(rows):
        points = split_points(r)
        if points:
            # Of the pairs [X, B] and [A, X + 1] form with the other rows
            # only two kinds can break (P): an earlier row with a larger B
            # that ends after X, and a later row with a smaller A that
            # starts at or before X.
            low = max([points.start] + [s.A for s in rows[:k] if s.B > r.B])
            high = min([points.stop]
                       + [s.B for s in rows[k + 1:] if s.A < r.A])
            for X in range(low, high):
                yield rows[:k] + split_pair(r, X) + rows[k + 1:], k, k + 2


def _moves(rows):
    """Every single operator move of the row tuple rows, in search order,
    as (candidate rows, lo, hi, exchange): rows[:lo] and rows[hi:] of the
    candidate are rows of the input, rows[lo:hi] may be new, and exchange
    tells the row exchanges from the other moves.

    Exchanges come first, then the ui and split moves, then, when rows is
    (P')-sorted, the ui and split moves of the dual taken back by sorting
    and dualizing.  A dual-conjugated candidate is new throughout: every
    row of it is the output of dual_rows.
    """
    for cand, lo, hi in _exchange_moves(rows):
        yield cand, lo, hi, True
    for cand, lo, hi in _local_moves(rows):
        yield cand, lo, hi, False
    if not order_sorted(rows):
        return
    for moved, _, _ in _local_moves(tuple(dual_rows(rows))):
        moved = list(moved)
        if sort_rows(moved) is None:
            cand = tuple(dual_rows(moved))
            yield cand, 0, len(cand), False


def _as_multisegment(cand, lo, hi):
    """A move as the operators return it: make_row on the new rows, in the
    mode of the result."""
    return _with_new_rows(list(cand), range(lo, hi))


def exchange_neighbors(ms):
    """Results of every applicable row exchange."""
    return [_as_multisegment(*move) for move in _exchange_moves(ms.rows)]


def neighbors(ms):
    """All single operator moves, filtered to valid strict states."""
    return [_as_multisegment(cand, lo, hi)
            for cand, lo, hi, _ in _moves(ms.rows) if _valid_state(cand)]


def _seed_rows(ms):
    """The rows of ms, which must be a valid state."""
    if not _valid_state(ms.rows):
        raise SegmentError("closure seed must be strict, admissible and non-vanishing")
    return ms.rows


def closure(ms, max_states=DEFAULT_MAX_STATES, max_depth=DEFAULT_MAX_DEPTH):
    """Breadth-first closure from a strict, non-vanishing seed.

    Each state is one row tuple, both its key in index and its entry in
    states.  A move's candidate is looked up in index before it is
    checked; a miss is checked with _valid_move, which looks only at what
    the move changed.  The search stops at the first new valid state past
    max_states, or after max_depth levels.
    """
    seed = _seed_rows(ms)
    # States are expanded in the order they are found, so states[start:]
    # is the frontier and exchange_edges[i] belongs to states[i].  A state
    # left mid-expansion by the state limit gets no entry.
    states = [seed]
    index = {seed: 0}
    exchange_edges = []
    full = False
    depth = 0
    start = 0
    while start < len(states) and not full and depth < max_depth:
        end = len(states)
        for rows in states[start:end]:
            edges = []
            for cand, lo, hi, exchange in _moves(rows):
                j = index.get(cand)
                if j is None:
                    # A state in index already passed _valid_state.
                    if not _valid_move(cand, lo, hi):
                        continue
                    if len(states) >= max_states:
                        full = True
                        break
                    j = len(states)
                    index[cand] = j
                    states.append(cand)
                if exchange:
                    edges.append(j)
            if full:
                break
            exchange_edges.append(edges)
        start = end
        depth += 1
    exhausted = not full and start >= len(states)
    nodes = frozenset(_component_keys(states, index, exchange_edges))
    psi = frozenset(_psi(s) for s in states)
    return ClosureReport(nodes, psi, len(states), exhausted, max_states, max_depth)


def _key(rows):
    """The serialized row list; canonical keys are the least of these."""
    return render(MultiSegment._of(rows, STRICT)).encode()


def _component_keys(states, index, exchange_edges):
    """Canonical key per row-exchange component among the visited states.

    exchange_edges holds the edges of the states the search expanded in
    full; the edges of the others are looked up here.
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
        for cand, _, _ in _exchange_moves(states[i]):
            j = index.get(cand)
            if j is not None:
                union(i, j)
    best = {}
    for i, s in enumerate(states):
        root = find(i)
        key = _key(s)
        if root not in best or key < best[root]:
            best[root] = key
    return best.values()


def canonical(ms):
    """Least serialized row list over the valid states reachable by row
    exchanges: the key closure gives the class of ms.  Raises closure's
    SegmentError when ms is not a valid state."""
    seed = _seed_rows(ms)
    seen = {seed}
    frontier = [seed]
    best = _key(seed)
    while frontier:
        nxt = []
        for rows in frontier:
            for cand, lo, hi in _exchange_moves(rows):
                if cand in seen or not _valid_move(cand, lo, hi):
                    continue
                seen.add(cand)
                best = min(best, _key(cand))
                nxt.append(cand)
        frontier = nxt
    return best


def are_equivalent(ms1, ms2,
                   max_states=DEFAULT_MAX_STATES, max_depth=DEFAULT_MAX_DEPTH):
    """Shared membership test via the closure of the first argument; False
    when ms2 is not a valid state."""
    report = closure(ms1, max_states, max_depth)
    return _valid_state(ms2.rows) and canonical(ms2) in report.nodes
