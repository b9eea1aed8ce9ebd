"""Value types for the extended multi-segment calculus.

A row is a triple ([A, B], l, eta): a support segment, a count of triangle
pairs and a sign for the first circle.  A multi-segment is an ordered list of
rows.  This module houses the value types, admissibility checks, parsing and
rendering, and the derived quantities (Arthur parameter, sign product,
non-vanishing condition).  MultiSegment and blocks.BlockTuple are plain
classes on one immutable base, _Value, and the result records of the
library are named tuples: neither needs dataclasses, whose import (with
inspect, ast and dis) would weigh on every start of the command line.

It also holds the boundary rule of the library, once: _integer is the
plain-int check (type(v) is int, so a bool or an int subclass is no
integer) of every integer argument, _limit its check of a search limit or
grid bound, _eta its check of a sign, and _checked the one path by which
Python values become Rows.
"""

import json
import re
from functools import cached_property, partial
from itertools import chain
from typing import NamedTuple

STRICT = "strict"
RELAXED = "relaxed"


class SegmentError(ValueError):
    """Base error for invalid segment data."""


class ParseError(SegmentError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class OrderError(SegmentError):
    """A multi-segment is not in the order an operation requires."""


class ScopeError(SegmentError):
    """Input outside the supported (integral) scope."""


def _shown(value):
    """value as an error message shows it: its repr, or, when repr refuses
    an int in it (past sys.get_int_max_str_digits() digits), an int by its
    size and anything else by its type."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return "<%s>" % type(value).__name__
        return "<%s%d-bit integer>" % ("-" * (value < 0), value.bit_length())


class _Value:
    """The base of the immutable value classes, which name their fields in
    _fields.  A value equals only a value of its own type with equal
    fields, hashes and shows by them, and refuses assignment and deletion
    with AttributeError; its __init__ sets the fields past that refusal,
    in their slots or in its __dict__."""

    __slots__ = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return (self._key() == other._key() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class _RowFields(NamedTuple):
    """The four fields of a Row, as a named tuple."""

    A: int
    B: int
    l: int
    eta: int


class Row(_RowFields):
    """One extended segment ([A, B], l, eta).

    A Row is its 4-tuple: it equals, hashes, shows, copies and pickles as
    the named tuple of its fields.  Having no __slots__, it has a
    __dict__, where ab, its Arthur pair, is kept once worked out, so every
    Arthur parameter that holds a Row shares that one pair.  A Row takes
    80 bytes, and about 230 more once it has given its pair.  Like a
    _Value it refuses assignment and deletion, so nothing else enters
    that __dict__.
    """

    __setattr__ = _Value.__setattr__
    __delattr__ = _Value.__delattr__

    @cached_property
    def ab(self):
        """The Arthur pair (a, b), made on first use and kept."""
        return self.a, self.b

    @property
    def a(self):
        """Length of the segment as a representation datum: A + B + 1."""
        return self.A + self.B + 1

    @property
    def b(self):
        """Number of columns of the row: A - B + 1."""
        return self.A - self.B + 1

    @property
    def circles(self):
        """Number of circles: b - 2l."""
        return self.b - 2 * self.l

    @property
    def is_hat(self):
        """A hat has its triangles reaching column 0, i.e. B = -l."""
        return self.B == -self.l


def _check_mode(mode):
    if mode not in (STRICT, RELAXED):
        raise SegmentError("unknown mode %s" % _shown(mode))


def _integer(value, name):
    """value, when it is a plain int (a bool or an int subclass is not
    one); ScopeError, naming the argument, otherwise."""
    if type(value) is not int:
        raise ScopeError("%s must be an integer, got %s"
                         % (name, _shown(value)))
    return value


def _limit(value, name):
    """value, when it is a plain int of at least 0, such as a search limit
    or a grid bound: ScopeError, naming the argument, when it is not a
    plain int, and SegmentError when it is negative."""
    if _integer(value, name) < 0:
        raise SegmentError("%s must be at least 0, got %s"
                           % (name, _shown(value)))
    return value


def _eta(eta):
    """eta, when it is a plain int of +1 or -1: ScopeError when it is not a
    plain int, and SegmentError when it is another int."""
    if _integer(eta, "eta") not in (1, -1):
        raise SegmentError("eta must be +1 or -1, got %s" % _shown(eta))
    return eta


def weak_normalize(row):
    """Store eta as +1 whenever the row has no circles (2l = b)."""
    if row.eta != 1 and 2 * row.l == row.A - row.B + 1:
        return row._replace(eta=1)
    return row


# Builds a Row from a 4-tuple in C: Row(A, B, l, eta) runs a Python-level
# __new__.
_new_row = partial(tuple.__new__, Row)


def _made_rows(rows, mode, out):
    """Append each (A, B, l, eta) of plain ints in rows to out as a checked,
    weak-normalized Row, and return out.

    This loop holds the row conditions and their messages for every
    boundary.  The first bad row raises, and out then holds the rows
    before it, so a caller knows its index.
    """
    strict = mode == STRICT
    append = out.append
    for A, B, l, eta in rows:
        b = A - B + 1
        if ((eta == 1 or eta == -1) and b > 0 and A + B >= 0
                and (0 <= 2 * l <= b or not strict)):
            # Weak normalization: eta is +1 when the row has no circles.
            if eta == -1 and 2 * l == b:
                eta = 1
            append(_new_row((A, B, l, eta)))
            continue
        _eta(eta)
        support = _shown(A), _shown(B)
        if b <= 0:
            raise SegmentError("need A >= B, got [%s,%s]" % support)
        if A + B < 0:
            raise SegmentError("need A + B >= 0, got [%s,%s]" % support)
        raise SegmentError("need 0 <= 2l <= b in strict mode, got l=%s with "
                           "b=%s" % (_shown(l), _shown(b)))
    return out


def make_row(A, B, l, eta, mode=STRICT):
    """Build a weak-normalized row, checking the invariants for the mode."""
    return _checked(((A, B, l, eta),), mode)[0]


def row_is_strict(row):
    return 0 <= 2 * row.l <= row.b


def _checked(rows, mode):
    """The rows, each a tuple or list (A, B, l, eta) of plain ints, as
    checked Rows under mode: the one path by which values become Rows.

    The mode is checked first, then the rows in order, and the first bad
    one raises: ScopeError for rows that cannot be iterated, a row that is
    not a tuple or list of four entries or an entry that is not a plain
    int, and SegmentError for a row that breaks a condition of _made_rows.

    When every row is a tuple or Row of four plain ints, equal rows are
    alike, and the distinct ones are checked once, in one batch.  Elsewhere
    they need not be: (1,0,0,True), (1,0,0,1.0) and (1,0,0,1) are equal and
    hash alike, so each row is checked on its own.
    """
    _check_mode(mode)
    try:
        it = iter(rows)
    except TypeError:
        raise ScopeError("rows must be iterable, got %s"
                         % _shown(rows)) from None
    rows = tuple(it)
    if (set(map(type, rows)) <= {tuple, Row} and set(map(len, rows)) <= {4}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        distinct = list(dict.fromkeys(rows))
        made = dict(zip(distinct, _made_rows(distinct, mode, [])))
        return tuple(map(made.__getitem__, rows))
    out = []
    for r in rows:
        if not isinstance(r, (tuple, list)) or len(r) != 4:
            raise ScopeError("a row must be a tuple or list of four integers, "
                             "got %s" % _shown(r))
        for name, v in zip(Row._fields, r):
            _integer(v, name)
        _made_rows((r,), mode, out)
    return tuple(out)


class MultiSegment(_Value):
    """An ordered list of rows, either strict or relaxed ("symbol") mode.

    Rows are stored weak-normalized, and each distinct row is checked
    once.  The public constructor checks them in __post_init__, a hook of
    its own that tracing can wrap.  The order is not constrained on
    construction; use validate() to test admissibility.
    """

    __slots__ = _fields = ("rows", "mode")

    def __init__(self, rows, mode=STRICT):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "mode", mode)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "rows", _checked(self.rows, self.mode))

    def __reduce__(self):
        return type(self)._of, (self.rows, self.mode)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @classmethod
    def _of(cls, rows, mode):
        """Wrap a tuple of rows that are valid under mode.

        No row is checked again; internal code whose rows passed _checked
        or are valid by construction (build, the row-level cores of ops)
        uses this in place of the public constructor.
        """
        ms = object.__new__(cls)
        object.__setattr__(ms, "rows", rows)
        object.__setattr__(ms, "mode", mode)
        return ms


def multi_segment(rows, mode=STRICT):
    """Convenience constructor from (A, B, l, eta) tuples: MultiSegment(rows,
    mode)."""
    return MultiSegment(rows, mode)


def order_admissible(rows):
    """Order property (P): A_i > A_j and B_i > B_j forces i after j."""
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i].A > rows[j].A and rows[i].B > rows[j].B:
                return False
    return True


def order_sorted(rows):
    """Order property (P'): B non-decreasing, i.e. the list of B is its own
    sort."""
    Bs = [r.B for r in rows]
    return Bs == sorted(Bs)


def validate(ms):
    """True iff the order satisfies (P).  (P') implies (P), so B-sorted
    rows skip the O(n^2) check; order_sorted(ms.rows) alone tests (P').
    The rows fit the mode by construction: make_row checked each of them
    under it."""
    return order_sorted(ms.rows) or order_admissible(ms.rows)


def arthur_parameter(ms):
    """The multiset of (a, b) = (A+B+1, A-B+1), as a sorted tuple.

    Its pairs are the ab of the rows, each made once per Row and shared:
    the members build makes of one block share their Rows, so their
    parameters share their pairs, and a set of many of them holds each
    pair once, not once per row of every member."""
    if not validate(ms):
        raise SegmentError("multi-segment has an inadmissible order")
    return tuple(sorted([r.ab for r in ms.rows]))


def group_sign(ms):
    """The sign product prod (-1)^(floor(b_i/2) + l_i) * eta_i^(b_i)."""
    if ms.mode != STRICT:
        raise SegmentError("sign undefined on symbols")
    sign = 1
    for r in ms.rows:
        sign *= (-1) ** (r.b // 2 + r.l) * r.eta ** (r.b % 2)
    return sign


def check_star(ms):
    """Non-vanishing necessary condition: B_i + l_i >= 0 for every row."""
    return all(r.B + r.l >= 0 for r in ms.rows)


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

# An integer of the DSL and of the command line: ASCII digits, [0-9] and
# not \d, after an optional "-".  re.ASCII would narrow \s too.
_INTEGER_RE = re.compile(r"-?[0-9]+")
# One item of the DSL up to its closing "]", with the whitespace before it.
_ITEM_RE = re.compile(r"\s*\[\s*({0})\s*,\s*({0})\s*;\s*({0})\s*;\s*([+-])\s*"
                      .format(_INTEGER_RE.pattern))
_EXPECTED_ROW = "expected a row of the form [A,B;l;s]"
# int() and str() refuse integers past sys.get_int_max_str_digits().
_OUT_OF_RANGE = "integer out of range"


def _position(pieces, i):
    """Position in the text of the first non-space character of pieces[i],
    where the text is "]".join(pieces)."""
    piece = pieces[i]
    return sum(map(len, pieces[:i])) + i + len(piece) - len(piece.lstrip())


def parse(text, mode=STRICT):
    """Parse the row DSL: a concatenation of [A,B;l;s] items.

    The text is split at each "]"; every piece but the last must be one
    item, and the last only whitespace.  One pass reads the distinct pieces
    in order of first appearance and stops at the first that is no item or
    has an integer out of range; one _made_rows call then checks the rows
    read before it.  So an error names the first bad item of the text.
    The text must be a str (ScopeError otherwise), and the mode is checked
    before any item.
    """
    if not isinstance(text, str):
        raise ScopeError("text must be a str, got %s" % _shown(text))
    _check_mode(mode)
    pieces = text.split("]")
    items = pieces[:-1]
    distinct = list(dict.fromkeys(items))
    values = []
    error = cause = None
    for item in distinct:
        m = _ITEM_RE.fullmatch(item)
        if m is None:
            error = _EXPECTED_ROW
            break
        A, B, l, s = m.groups()
        try:
            values.append((int(A), int(B), int(l), 1 if s == "+" else -1))
        except ValueError as e:
            error, cause = _OUT_OF_RANGE, e
            break
    checked = []
    try:
        _made_rows(values, mode, checked)
    except SegmentError as e:
        raise ParseError(str(e), _position(
            pieces, items.index(distinct[len(checked)]))) from e
    if error is not None:
        raise ParseError(error, _position(
            pieces, items.index(distinct[len(values)]))) from cause
    if pieces[-1].strip():
        raise ParseError(_EXPECTED_ROW, _position(pieces, len(items)))
    made = dict(zip(distinct, checked))
    return MultiSegment._of(tuple(map(made.__getitem__, items)), mode)


def render(ms):
    """Render to the row DSL; inverse of parse.

    Each distinct row is formatted once.  Equal rows format alike: "%d"
    prints the same digits for equal ints, bools and integral floats, and
    the sign is eta == 1.
    """
    text = {r: "[%d,%d;%d;%s]" % (r.A, r.B, r.l, "+" if r.eta == 1 else "-")
            for r in dict.fromkeys(ms.rows)}
    return "".join(map(text.__getitem__, ms.rows))


def to_json(ms):
    """Serialize to the JSON wire format."""
    return json.dumps(
        {"rows": [{"A": r.A, "B": r.B, "l": r.l, "eta": r.eta}
                  for r in ms.rows]})


def from_json(text, mode=STRICT):
    """Parse the JSON wire format, a str, bytes or bytearray (ScopeError
    otherwise).  The mode is checked next, before the text is read."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ScopeError("text must be a str, bytes or bytearray, got %s"
                         % _shown(text))
    _check_mode(mode)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e.msg, e.pos) from e
    except UnicodeDecodeError as e:
        raise ParseError("invalid JSON: byte 0x%02x is not valid %s"
                         % (e.object[e.start], e.encoding), e.start) from e
    except ValueError as e:
        raise ParseError("invalid JSON: %s" % _OUT_OF_RANGE, 0) from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply", 0) from e
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ParseError('expected an object with a "rows" list', 0)
    rows = []
    for item in data["rows"]:
        try:
            rows.append(make_row(item["A"], item["B"], item["l"],
                                 item["eta"], mode))
        except (KeyError, TypeError) as e:
            raise ParseError("bad row object %s" % _shown(item), 0) from e
        except SegmentError as e:
            raise ParseError(str(e), 0) from e
    return MultiSegment._of(tuple(rows), mode)


def render_grid(ms, unicode_symbols=False):
    """Draw the symbol picture: triangle pairs and alternating circles.

    Each row occupies columns B..A: l left triangles, then the circles
    alternating in sign starting from eta, then l right triangles.  Only
    the columns from the least B to the greatest A are drawn.  A row's
    left triangles start at its B and its right ones end at its A, so
    only the ranges that can reach past those columns are cut to them: a
    relaxed row's circles may reach past its own columns (l < 0), and its
    right triangles are drawn over its left ones (2l > b).
    """
    if not ms.rows:
        return "(empty)"
    lo = min(r.B for r in ms.rows)
    hi = max(r.A for r in ms.rows)
    width = max(len(str(lo)), len(str(hi)))
    header = " ".join(str(c).rjust(width) for c in range(lo, hi + 1))
    lines = [header]
    plus, minus, left, right = (
        sym.rjust(width) for sym in ("⊕⊖◁▷" if unicode_symbols else "+-<>"))
    for r in ms.rows:
        cells = [" " * width] * (hi - lo + 1)
        for c in range(r.B, min(r.B + r.l, hi + 1)):
            cells[c - lo] = left
        for c in range(max(r.A - r.l + 1, lo), r.A + 1):
            cells[c - lo] = right
        # The circle in column c has sign eta when c - (B + l) is even.
        start = r.B + r.l
        signs = (plus, minus) if r.eta == 1 else (minus, plus)
        for c in range(max(start, lo), min(r.A - r.l + 1, hi + 1)):
            cells[c - lo] = signs[(c - start) % 2]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)
