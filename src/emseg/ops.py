"""The operator calculus on multi-segments.

Row exchange, union-intersection (all types), the dual involution,
circle-row splitting and the raising composite dual . ui . dual, of which
hat merging is the type-3' case.  The lift family needs no composite of
its own: each of its members is a member of the block with one more
column, which sdata.build makes.

Each operator's formula lives once, in a row-level core that maps plain
rows to plain rows: exchange_pair, pair_ui_type and ui_rows, dual_row
and dual_flip (which dual_rows puts together), split_points and
split_pair.  The operators on multi-segments check their arguments, call
the core and wrap its rows with _result; to_sorted runs exchange_pair,
merge_hats runs dual_ui_dual, and dual_ui_dual runs dual and ui, so no
composite states a formula of its own.  The closure search calls the
cores directly.  exchange_pair reads a nesting pair as its (containing,
contained) rows, whichever comes first, and states the exchange once on
them; ui_rows builds its union and its intersection once for every type.
Every row position an operator takes goes through _rows_at, and
every other integer argument through core._integer, the library's one
plain-int check.

No row goes through make_row again: on checked input rows, every row a
core builds is valid as built, that is A >= B, A + B >= 0, eta = +1 or -1
and weak-normalized, and only strictness (0 <= 2l <= b) may be lost, which
_result reads off for the mode:

- exchange_pair keeps both supports and only trades (l, eta);
- ui_rows builds the union [A2, B1] and, but for T3', the intersection
  [A1, B2]: A2 > A1 >= B1 and B2 > B1 give A + B > A1 + B1 >= 0, and the
  intersection has A1 >= B2 by pair_ui_type's domain;
- dual_row takes [A, B] to [A, -B], where A + B >= 0 gives A >= -B and
  A >= B gives A - B >= 0;
- split_pair takes one of split_points, |B| <= X < A: the low part
  [X, B] has X >= B and X + B >= 0, the high part [A, X + 1] has
  X + 1 <= A and A + X + 1 > 0;
- every eta is the input's times (-1) to a non-negative power, and every
  core but split_pair (whose rows have l = 0) ends in weak_normalize.
"""

from typing import NamedTuple, Optional

from .core import (
    MultiSegment, OrderError, Row, SegmentError, STRICT, RELAXED, _integer,
    _shown, order_admissible, order_sorted, row_is_strict, weak_normalize,
)

T1, T2, T3, T3PRIME = "T1", "T2", "T3", "T3prime"


class OpResult(NamedTuple):
    out: MultiSegment
    applied: bool
    type_tag: Optional[str] = None


class NoExchangeError(SegmentError):
    """Row exchange requested on a pair it is not defined for."""


def _non_nesting(k):
    return NoExchangeError(
        "rows %d,%d have non-nesting supports in an inadmissible order" % (k, k + 1))


def _rows_at(rows, k, span):
    """rows[k:k + span], the row (span 1) or the adjacent pair (span 2) at
    row position k: ScopeError unless k is a plain int, SegmentError
    unless 0 <= k <= len(rows) - span."""
    if not 0 <= _integer(k, "a row position") <= len(rows) - span:
        raise SegmentError("no %s at position %s"
                           % ("row" if span == 1 else "adjacent pair",
                              _shown(k)))
    return rows[k:k + span]


def _supports_nest(r1, r2):
    """True if supp(r1) contains supp(r2) or vice versa (incl. equality)."""
    return (r1.B <= r2.B and r1.A >= r2.A) or (r2.B <= r1.B and r2.A >= r1.A)


def _result(rows):
    """Rows of a checked input and rows its cores built, as a multi-segment:
    strict exactly when every row is strict."""
    mode = STRICT if all(map(row_is_strict, rows)) else RELAXED
    return MultiSegment._of(tuple(rows), mode)


# ---------------------------------------------------------------------------
# Row-level cores: each operator's formula, on plain rows
# ---------------------------------------------------------------------------

def exchange_pair(r1, r2):
    """The new (row k, row k+1) of the nesting pair r1, r2 at k, k+1,
    weak-normalized: the rows swap places and trade (l, eta).

    One formula on the containing row O and the contained row I, where
    equal supports count as r1 containing r2; eps is read from r1, r2 in
    their given order.  I keeps its l and takes eta (-1)^(b_O - 1).  O
    takes b_O - (l_O + c_I) with eta (-1)^(b_I - 1) when eps = 1 and
    c_O < 2c_I, and otherwise l_O + eps c_I with eta (-1)^(b_I), c being
    a row's circles."""
    eps = (-1) ** (r1.A - r1.B) * r1.eta * r2.eta
    outer_first = r1.B <= r2.B and r1.A >= r2.A
    O, I = (r1, r2) if outer_first else (r2, r1)
    c_I = I.circles
    new_I = Row(I.A, I.B, I.l, (-1) ** (O.b - 1) * I.eta)
    if eps == 1 and O.circles < 2 * c_I:
        new_O = Row(O.A, O.B, O.b - (O.l + c_I), (-1) ** (I.b - 1) * O.eta)
    else:
        new_O = Row(O.A, O.B, O.l + eps * c_I, (-1) ** I.b * O.eta)
    new_I, new_O = weak_normalize(new_I), weak_normalize(new_O)
    return (new_I, new_O) if outer_first else (new_O, new_I)


def pair_ui_type(r1, r2):
    """The union-intersection type of the adjacent rows r1, r2, or None."""
    if not (r2.A > r1.A and r2.B > r1.B):
        return None
    eps = (-1) ** (r1.A - r1.B) * r1.eta * r2.eta
    if eps == -1 and r1.l == r2.l == 0 and r2.B == r1.A + 1:
        return T3PRIME
    if r2.B > r1.A:
        return None
    if eps == 1 and r2.A - r2.l == r1.A - r1.l:
        return T1
    if eps == 1 and r2.B + r2.l == r1.B + r1.l:
        return T2
    if eps == -1 and r2.B + r2.l == r1.A - r1.l + 1:
        return T3
    return None


def ui_rows(r1, r2, tag):
    """The row(s) replacing r1, r2 under the union-intersection of type
    tag, weak-normalized: the union [A2, B1], and but for T3' the
    intersection [A1, B2], each built once.

    With d = A2 - A1, the union takes (l1, eta1), but under T2
    (l1 + d, eta1) when r1 has at least d circles and (b1 - l1, -eta1)
    otherwise.  The intersection takes (l2 - d, (-1)^d eta2) under T1,
    (l2, (-1)^d eta2) under T2 and under T3 when l2 <= l1, and
    (l1, (-1)^(d + 1) eta2) under T3 otherwise."""
    d = r2.A - r1.A
    if tag != T2:
        l, eta = r1.l, r1.eta
    elif r1.circles >= d:
        l, eta = r1.l + d, r1.eta
    else:
        l, eta = r1.b - r1.l, -r1.eta
    union = weak_normalize(Row(r2.A, r1.B, l, eta))
    if tag == T3PRIME:
        return (union,)
    l, eta = r2.l, (-1) ** d * r2.eta
    if tag == T1:
        l -= d
    elif tag != T2 and l > r1.l:
        l, eta = r1.l, (-1) ** (d + 1) * r2.eta
    return union, weak_normalize(Row(r1.A, r2.B, l, eta))


def dual_row(row, flip):
    """The dual of one row: [A,B] -> [A,-B], l -> l + B, and eta negated
    when the parity flip is 1; weak-normalized."""
    A, B, l, eta = row
    return weak_normalize(Row(A, -B, l + B, -eta if flip else eta))


def dual_flip(total, a):
    """The parity at which dual_rows takes the dual_row of a row with this
    a among (P')-sorted rows whose a sum to total: that of alpha + beta,
    where alpha sums a over the rows before and beta sums b over the rows
    after.  Since b = a - 2B, it is the parity of the sum of a over the
    other rows, so only the parity of total matters."""
    return (total - a) & 1


def dual_rows(rows):
    """The dual of (P')-sorted rows: reversed, each row's dual_row at its
    dual_flip."""
    total = sum(r.a for r in rows)
    return [dual_row(r, dual_flip(total, r.a)) for r in rows][::-1]


def split_points(r):
    """The X at which row r can split: none unless r is all circles
    (l = 0); the low part [X, B] needs X >= |B|, the high part [A, X + 1]
    needs X < A."""
    return range(abs(r.B), r.A) if r.l == 0 else range(0)


def split_pair(r, X):
    """The (low, high) rows of the all-circles row r split at X; they have
    l = 0, so they are weak-normalized as they stand."""
    return (Row(X, r.B, 0, r.eta),
            Row(r.A, X + 1, 0, -((-1) ** (X - r.B)) * r.eta))


# ---------------------------------------------------------------------------
# The operators on multi-segments
# ---------------------------------------------------------------------------

def row_exchange(ms, k):
    """Swap rows k and k+1 with the compensating (l, eta) changes.

    If the swapped order would be inadmissible the input is returned with
    applied=False.  The output may be a relaxed symbol.
    """
    rows = ms.rows
    r1, r2 = _rows_at(rows, k, 2)
    if not _supports_nest(r1, r2):
        if r2.A > r1.A and r2.B > r1.B:
            return OpResult(ms, False)
        raise _non_nesting(k)
    return OpResult(_result(rows[:k] + exchange_pair(r1, r2) + rows[k + 2:]),
                    True)


def ui_type(ms, k):
    """The union-intersection type of the adjacent pair at position k, or
    None; a position with no pair raises as in row_exchange.

    Domains: T3' joins two circle rows whose supports abut (B_2 = A_1 + 1)
    into one row.  T1, T2 and T3 keep the intersection [B_2, A_1] as row
    k+1, so they need B_2 <= A_1; strict rows satisfying their equations
    always have it, relaxed rows (l < 0) need not.
    """
    return pair_ui_type(*_rows_at(ms.rows, k, 2))


def ui(ms, k):
    """Union-intersection of adjacent rows k, k+1."""
    tag = ui_type(ms, k)
    if tag is None:
        return OpResult(ms, False)
    rows = ms.rows
    return OpResult(
        _result(rows[:k] + ui_rows(rows[k], rows[k + 1], tag) + rows[k + 2:]),
        True, tag)


def dual(ms):
    """The combinatorial involution: rows reversed, [A,B] -> [A,-B]."""
    if not order_sorted(ms.rows):
        raise OrderError("dual requires (P') order; sort via row exchanges first")
    return _result(dual_rows(ms.rows))


def to_sorted(ms):
    """Row-exchange the multi-segment into (P') order (stable bubble pass).

    Raises NoExchangeError at a pair out of order whose supports do not
    nest, which only an inadmissible order has.
    """
    if order_sorted(ms.rows):
        return ms
    rows = list(ms.rows)
    changed = True
    while changed:
        changed = False
        for k in range(len(rows) - 1):
            r1, r2 = rows[k], rows[k + 1]
            if r1.B > r2.B:
                if not _supports_nest(r1, r2):
                    raise _non_nesting(k)
                rows[k], rows[k + 1] = exchange_pair(r1, r2)
                changed = True
    return _result(rows)


def split_circles(ms, k, X):
    """Split the all-circles row k at X; exact inverse of ui type 3'.

    Raises ScopeError when k or X is not a plain int, SegmentError when
    there is no row k, when it has triangles or when X is not one of its
    split_points, and OrderError when the split leaves an inadmissible
    order.
    """
    _integer(X, "a split point")
    r, = _rows_at(ms.rows, k, 1)
    if r.l != 0:
        raise SegmentError("split requires an all-circles row (l = 0)")
    points = split_points(r)
    if X not in points:
        raise SegmentError("split point %s outside [%s,%s)" % tuple(
            map(_shown, (X, points.start, points.stop))))
    rows = ms.rows[:k] + split_pair(r, X) + ms.rows[k + 1:]
    if not order_admissible(rows):
        raise OrderError("split at %s leaves an inadmissible order"
                         % _shown(X))
    return _result(rows)


def merge_hats(ms, k):
    """Merge consecutive hats k, k+1: the composite dual_ui_dual at the
    pair's image in the dual, where the image of r2 sits right before
    the image of r1.

    A hat has B = -l, so its image has l = 0.  On two all-circles rows
    T1 needs A_2 = A_1 and T2 needs B_2 = B_1, which the ui domain
    excludes, and T3 needs B_2 = A_1 + 1 <= A_1, so only the type-3' ui
    can apply: it replaces the two hats by one row, tagged T3'.  Raises
    SegmentError unless rows k, k+1 are two hats, and OrderError unless
    the input is (P')-sorted.
    """
    rows = ms.rows
    r1, r2 = _rows_at(rows, k, 2)
    if not (r1.is_hat and r2.is_hat):
        raise SegmentError("merge requires two hats")
    if not order_sorted(rows):
        raise OrderError("merge requires (P') order")
    return dual_ui_dual(ms, len(rows) - 2 - k)


def dual_ui_dual(ms, k):
    """The raising operator dual . ui_k . dual on a (P')-sorted input.

    Raises OrderError on unsorted input.  The dual of a sorted input is
    sorted, and ui keeps the B of its rows in order (the union [A2, B1]
    at k and the intersection [A1, B2], unless T3' drops it, at k + 1),
    so the ui result is sorted and its dual needs no row exchange.
    """
    res = ui(dual(ms), k)
    if not res.applied:
        return OpResult(ms, False)
    return OpResult(dual(res.out), True, res.type_tag)
