"""Breadth-first closure of a multi-segment under the operator moves.

The class of a non-vanishing multi-segment is generated by row exchanges,
union-intersections, their inverses (circle splits) and the dual-conjugated
versions of both.  The closure explores exact row lists; canonical forms
quotient out row exchanges and give the packet-level node set.

closure, are_equivalent and canonical share one breadth-first loop,
_search, within closure's limits: closure and are_equivalent run it over
every move, canonical over the row exchanges alone.  The loop yields
what it has found once per level, the seed's first, and records the
exchange edges of each state it expands.  closure reads the last yield
and joins its states along those edges, canonical, whose every move is
an exchange, reads only the states of the last yield, and are_equivalent
stops at the first level whose states hold its second argument.
neighbors and exchange_neighbors list the moves of one state.  Each of
the five keeps one row table, _Rows, for the length of its call, made
from the seed.  The table gives each distinct row a small int id the
first time the search meets it and works out, once per id, what the
search asks of a row: whether it is strict and non-vanishing, its DSL
item, A and B, its split pairs and its dual (one per id, since every
move keeps the parity that picks it); and, once per adjacent pair of
ids, its row exchange and its union-intersection.  The formulas stay
in the row-level cores of ops; the table only keeps their results.

A state is a tuple of ids.  _moves yields every move of a state as a
candidate tuple of ids, the dual-conjugated ones too: their sort back to
(P') order is a walk of at most one row by the table's exchanges.  It
reads each adjacent pair of the state once, straight from the table's
pair entries, and bounds each split by a running max or min over the
other rows.  The candidate is looked up among the visited states first,
and only a new one is checked, by the flags of its ids, since no move of
a valid state breaks (P) (see _search).  A canonical key joins the DSL
items of its ids.  Row exchanges keep the supports, so the Arthur
parameter, which sorts the (a, b) of the rows, is taken once per exchange
class, from the ab each Row of the table keeps (see core.Row).
"""

from typing import NamedTuple

from .core import (
    MultiSegment, _limit, order_admissible, render, row_is_strict, STRICT,
)
from .ops import (
    SegmentError, _result, _supports_nest, dual_flip, dual_row,
    exchange_pair, pair_ui_type, split_pair, split_points, ui_rows,
)


class ClosureReport(NamedTuple):
    nodes: frozenset          # one key per row-exchange class: the least
                              # key among the states of a component the
                              # search joined; canonical of a state of it
                              # when exhausted, unless an exchange there
                              # does not exchange back (see canonical)
    psi: frozenset            # Arthur parameters
    states: int               # exact row lists visited
    stop: str                 # "exhausted", or the limit that stopped it:
                              # "states" or "depth"
    max_states: int
    max_depth: int

    @property
    def exhausted(self):
        """True when the search expanded every state it found."""
        return self.stop == "exhausted"


DEFAULT_MAX_STATES = 100000
DEFAULT_MAX_DEPTH = 64


class LimitError(SegmentError):
    """A search stopped at one of its limits, such as a closure at its
    state or depth limit before it exhausted the class; the message names
    the limit and its value."""

    @classmethod
    def of(cls, stop, max_states, max_depth, search="closure"):
        """The error for a search that the limit stop, "states" or
        "depth", stopped, such as a ClosureReport's; the message names
        the search."""
        # str.format, not %: closure.py takes no % at all (see the lint
        # test that keeps the dual parity in ops).
        if stop == "states":
            return cls("{} hit the state limit ({} states)"
                       .format(search, max_states))
        return cls("{} hit the depth limit (depth {})"
                   .format(search, max_depth))


def _row_ok(r):
    """Strict (0 <= 2l <= b) and non-vanishing (B + l >= 0, the row-wise
    condition of check_star)."""
    return row_is_strict(r) and r.B + r.l >= 0


def _valid_state(rows):
    """Strict, (P)-admissible and non-vanishing."""
    return all(map(_row_ok, rows)) and order_admissible(rows)


class _Rows:
    """The row table of one search: an id per distinct row met, and what
    each id and each adjacent pair of ids gives, worked out on first use.

    Every move keeps the parity of the sum of a over the rows (an
    exchange keeps both supports, a T1, T2 or T3 ui keeps a1 + a2, a T3'
    ui and a split change the sum by an even number, and the dual's sum
    of b is the sum of a less twice the sum of B), so each id's dual_flip
    is the same in every state of the search, and the table keeps one
    dual per id, at total, the sum of a over the seed."""

    def __init__(self, seed):
        """The table of a search from the rows seed, whose ids are
        self.seed."""
        self.index = {}     # row -> id
        self.rows = []      # id -> row
        self.ok = []        # id -> _row_ok
        self.text = []      # id -> DSL item, as bytes
        self.A = []         # id -> A, for the splits that keep (P)
        self.B = []         # id -> B, for them and the (P') order
        self.splits = []    # id -> (split_points, {X: split pair ids})
        self.duals = []     # id -> dual id, None until asked for
        self.pairs = []     # id i -> {id j: (exchange ids, ui ids)}, see pair
        self.seed = self.ids(seed)
        self.total = sum(row.a for row in seed)  # dual_flip's total

    def id(self, row):
        """The id of row; a row met for the first time gets the next one."""
        i = self.index.get(row)
        if i is None:
            i = self.index[row] = len(self.rows)
            self.rows.append(row)
            self.ok.append(_row_ok(row))
            self.text.append(render(MultiSegment._of((row,), STRICT)).encode())
            self.A.append(row.A)
            self.B.append(row.B)
            self.splits.append((split_points(row), {}))
            self.duals.append(None)
            self.pairs.append({})
        return i

    def ids(self, rows):
        """The ids of rows, as a tuple."""
        # Built from a list, so that the tuple is made at its size:
        # tuple(map(...)) makes a larger one and shrinks it, and the
        # shrunk tuples pile up in the interpreter's tuple free lists.
        return tuple([self.id(row) for row in rows])

    def pair(self, i, j):
        """(exchange, ui) of the adjacent ids i, j: the ids exchange_pair
        gives when the supports nest and the exchange changes the pair, and
        the ids ui_rows gives when the pair has a union-intersection type;
        each None otherwise."""
        entry = self.pairs[i].get(j)
        if entry is None:
            r1, r2 = self.rows[i], self.rows[j]
            exchanged = None
            if _supports_nest(r1, r2):
                exchanged = self.ids(exchange_pair(r1, r2))
                if exchanged == (i, j):
                    exchanged = None
            tag = pair_ui_type(r1, r2)
            united = None if tag is None else self.ids(ui_rows(r1, r2, tag))
            entry = self.pairs[i][j] = exchanged, united
        return entry

    def split(self, i, X):
        """The ids of split_pair of row i at X, one of its split_points."""
        made = self.splits[i][1]
        if X not in made:
            made[X] = self.ids(split_pair(self.rows[i], X))
        return made[X]

    def dual(self, ids):
        """The ids of dual_rows of (P')-sorted ids of a state of the
        search: each id's dual, read off the table."""
        duals = self.duals
        out = [duals[i] for i in reversed(ids)]
        if None in out:
            for i in ids:
                if duals[i] is None:
                    r = self.rows[i]
                    duals[i] = self.id(dual_row(r, dual_flip(self.total, r.a)))
            out = [duals[i] for i in reversed(ids)]
        return tuple(out)

    def key(self, ids):
        """The serialized row list; canonical keys are the least of these."""
        return b"".join(map(self.text.__getitem__, ids))


def _exchange_moves(table, ids):
    """Every row exchange that changes ids, as (ids, True)."""
    for k in range(len(ids) - 1):
        exchanged = table.pair(ids[k], ids[k + 1])[0]
        if exchanged is not None:
            yield ids[:k] + exchanged + ids[k + 2:], True


def _split_moves(table, ids):
    """Every split that keeps the (P)-admissible rows admissible, as
    (ids, k): the low part at k, the high part at k + 1.
    A row's low bound on X is a running max over the rows before it, and
    its high bound a running min over the rows after it."""
    A, B, splits = table.A, table.B, table.splits
    for k, i in enumerate(ids):
        points = splits[i][0]
        if points:
            # Of the pairs [X, B] and [A, X + 1] form with the other rows
            # only two kinds can break (P): an earlier row with a larger B
            # that ends after X, and a later row with a smaller A that
            # starts at or before X.
            a, b = A[i], B[i]
            low, high = points.start, points.stop
            for j in ids[:k]:
                if B[j] > b and A[j] > low:
                    low = A[j]
            for j in ids[k + 1:]:
                if A[j] < a and B[j] < high:
                    high = B[j]
            for X in range(low, high):
                yield ids[:k] + table.split(i, X) + ids[k + 1:], k


def _high_part_sorted(table, ids, k):
    """The (P')-sorted ids of a split of (P')-sorted ids whose high part
    [A, X + 1], at k, is the one row out of place: the high part exchanged
    right past every row with a smaller B.  Each of them nests with it, so
    the exchange applies: _split_moves keeps (P), so a later row that
    starts at or before X ends at or after A."""
    B, pair = table.B, table.pair
    high = ids[k]
    passed = []
    j = k + 1
    while j < len(ids) and B[high] > B[ids[j]]:
        row, high = pair(high, ids[j])[0]
        passed.append(row)
        j += 1
    return ids[:k] + tuple(passed) + (high,) + ids[j:]


def _moves(table, ids):
    """Every single operator move of the state ids, in search order, as
    (candidate ids, exchange): exchange tells the row exchanges from the
    other moves.

    One pass over the adjacent pairs reads each pair's (exchange, ui)
    entry from table.pairs, calling table.pair only on a miss, and whether
    the pair is in (P') order; it yields the exchanges as it goes and
    keeps the uis for after them.  So exchanges come first, then the ui
    and split moves, then, when the rows are (P')-sorted, the ui and split
    moves of the dual, whose pairs are read the same way, each taken back
    by sorting it with row exchanges and dualizing.  The dual is
    (P')-sorted, and a move of it needs at most one row moved to be sorted
    again:
    - a ui keeps the order as it is: the union [A2, B1] takes the place
      of B1 and the intersection [A1, B2] that of B2, and a T3' union
      leaves out B2;
    - a split keeps its low part [X, B] where B stood, and only its high
      part [A, X + 1] may stand before rows with a smaller B; it is
      exchanged right past them, each of which nests with it (see
      _high_part_sorted), so no dual split is dropped.
    A dual-conjugated candidate is new throughout.
    """
    pairs, B = table.pairs, table.B
    uis = []
    unsorted = False
    for k in range(len(ids) - 1):
        i, j = ids[k], ids[k + 1]
        if B[i] > B[j]:
            unsorted = True
        exchanged, united = pairs[i].get(j) or table.pair(i, j)
        if exchanged is not None:
            yield ids[:k] + exchanged + ids[k + 2:], True
        if united is not None:
            uis.append(ids[:k] + united + ids[k + 2:])
    for cand in uis:
        yield cand, False
    for cand, _ in _split_moves(table, ids):
        yield cand, False
    if unsorted:  # not in (P') order
        return
    dual = table.dual
    flipped = dual(ids)
    for k in range(len(flipped) - 1):
        i, j = flipped[k], flipped[k + 1]
        united = (pairs[i].get(j) or table.pair(i, j))[1]
        if united is not None:
            yield dual(flipped[:k] + united + flipped[k + 2:]), False
    for moved, k in _split_moves(table, flipped):
        yield dual(_high_part_sorted(table, moved, k + 1)), False


def _as_multisegment(table, ids):
    """A move as the operators return it, in the mode of its rows."""
    return _result([table.rows[i] for i in ids])


def exchange_neighbors(ms):
    """Results of every applicable row exchange."""
    table = _Rows(ms.rows)
    return [_as_multisegment(table, cand)
            for cand, _ in _exchange_moves(table, table.seed)]


def neighbors(ms):
    """All single operator moves, filtered to valid strict states."""
    table = _Rows(ms.rows)
    return [_as_multisegment(table, cand)
            for cand, _ in _moves(table, table.seed)
            if _valid_state([table.rows[i] for i in cand])]


def _seed_table(ms):
    """The row table of a search from ms, which must be a valid state."""
    if not _valid_state(ms.rows):
        raise SegmentError("closure seed must be strict, admissible and non-vanishing")
    return _Rows(ms.rows)


def _search(table, moves, max_states, max_depth):
    """Breadth-first search from table.seed over moves(table, ids), one
    level at a time: it yields (states, index, exchange_edges, stop) for
    the seed alone, then after each level it expands.

    Each state is one tuple of ids, both its key in index and its entry in
    states.  A move's candidate is looked up in index before it is
    checked; a miss is checked by the table's ok flags of its ids.  That
    is _valid_state of the candidate, since every state the search expands
    is valid and no move of a valid state breaks (P):
    - an exchange swaps a nesting pair, which (P) allows in either order;
    - a ui's union [A2, B1] and intersection [A1, B2] may stand before
      (after) every row that both old rows could stand before (after);
    - _split_moves yields only the splits that keep (P);
    - a dual-conjugated output is (P')-sorted, as every dual is.
    stop is None until the last yield, which says why the search ended:
    "states" at the first new valid state past max_states, "depth" after
    max_depth levels, or "exhausted".  Each yield hands out the same
    lists, which the search goes on filling.
    exchange_edges[i] lists the index of every state a row exchange of
    states[i] leads to, for each state expanded in full.
    """
    # States are expanded in the order they are found, so states[start:]
    # is the frontier and exchange_edges[i] belongs to states[i].  A state
    # left mid-expansion by the state limit gets no entry.
    seed = table.seed
    states = [seed]
    index = {seed: 0}
    exchange_edges = []
    start = 0
    for _ in range(max_depth):
        yield states, index, exchange_edges, None
        end = len(states)
        for ids in states[start:end]:
            found = []
            for cand, exchange in moves(table, ids):
                j = index.get(cand)
                if j is None:
                    if not all(map(table.ok.__getitem__, cand)):
                        continue
                    if len(states) >= max_states:
                        yield states, index, exchange_edges, "states"
                        return
                    j = len(states)
                    index[cand] = j
                    states.append(cand)
                if exchange:
                    found.append(j)
            exchange_edges.append(found)
        if end == len(states):
            yield states, index, exchange_edges, "exhausted"
            return
        start = end
    yield states, index, exchange_edges, "depth"


def closure(ms, max_states=DEFAULT_MAX_STATES, max_depth=DEFAULT_MAX_DEPTH):
    """Breadth-first closure from a strict, non-vanishing seed, under every
    move, within max_states states and max_depth levels (see _search).

    Each limit must be a plain int (ScopeError otherwise) of at least 0
    (SegmentError otherwise).
    """
    _limit(max_states, "max_states")
    _limit(max_depth, "max_depth")
    table = _seed_table(ms)
    *_, (states, index, exchange_edges, stop) = _search(
        table, _moves, max_states, max_depth)
    keys = _component_keys(table, states, index, exchange_edges)
    # Row exchanges keep the supports, so psi is one per component.
    rows = table.rows
    psi = frozenset(tuple(sorted([rows[i].ab for i in states[r]]))
                    for r in keys)
    return ClosureReport(frozenset(keys.values()), psi, len(states), stop,
                         max_states, max_depth)


def _component_keys(table, states, index, exchange_edges):
    """The least key among the visited states of each row-exchange
    component, as {index of a state of the component: key}.  It is the
    component's canonical key when the search exhausted the class; a
    stopped search may not have visited the state that holds it.

    exchange_edges holds the edges of the states the search expanded in
    full; the edges of the others are looked up here.
    """
    parent = list(range(len(states)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, edges in enumerate(exchange_edges):
        for j in edges:
            parent[find(j)] = find(i)
    for i in range(len(exchange_edges), len(states)):
        for cand, _ in _exchange_moves(table, states[i]):
            j = index.get(cand)
            if j is not None:
                parent[find(j)] = find(i)
    best = {}
    for i, s in enumerate(states):
        root, key = find(i), table.key(s)
        best[root] = min(best.get(root, key), key)
    return best


def canonical(ms):
    """Least serialized row list over the valid states that row exchanges
    reach from ms: the key closure gives the class of ms.  The search
    follows exchanges one way, and closure joins states both ways, so the
    two differ where an exchange does not exchange back:
    a = [5,4;0;+][5,4;1;+] exchanges to b = [5,4;1;+][5,4;0;+], b to no
    valid state, and canonical(b) is b's own key, not the key of a and b
    in closure(a).nodes.  Raises closure's SegmentError when ms is not a
    valid state, and LimitError when the search passes closure's default
    limits, DEFAULT_MAX_STATES states or DEFAULT_MAX_DEPTH levels."""
    table = _seed_table(ms)
    *_, (states, _, _, stop) = _search(table, _exchange_moves,
                                       DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH)
    if stop != "exhausted":
        raise LimitError.of(stop, DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH,
                            "canonical")
    return min(map(table.key, states))


def are_equivalent(ms1, ms2,
                   max_states=DEFAULT_MAX_STATES, max_depth=DEFAULT_MAX_DEPTH):
    """Whether the closure of ms1 visits ms2: one search from ms1 under
    every move, within closure's limits.  True at the first level of the
    search that holds ms2, the seed's when ms2 is ms1, False when ms2 is
    not a valid state or the search exhausts the class without it, and
    LimitError when a limit stops the search before it visits ms2."""
    _limit(max_states, "max_states")
    _limit(max_depth, "max_depth")
    table = _seed_table(ms1)
    if not _valid_state(ms2.rows):
        return False
    target = table.ids(ms2.rows)
    for _, index, _, stop in _search(table, _moves, max_states, max_depth):
        if target in index:
            return True
    if stop != "exhausted":
        raise LimitError.of(stop, max_states, max_depth)
    return False
