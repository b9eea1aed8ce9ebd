"""Tempered structure: block decomposition and boundaries.

This module only reads tempered symbols.  It makes no row: a tempered
block is the member of its class whose S cuts after every column, so
tempered_block and block_decompose take their rows from sdata._rows,
which holds the odd-alternating sign rule.
"""

from functools import cached_property
from itertools import groupby
from typing import NamedTuple

from .core import (
    STRICT, MultiSegment, ScopeError, SegmentError, _Value, _eta, _integer,
    _shown,
)
from .sdata import _rows, trivial_T


class BlockTuple(_Value):
    """Column multiplicities (m_{c_min}, ..., m_{c_max}) of a block.

    The constructor holds the rule of a block, once: c_min is a plain int
    of at least 0, and mults a tuple of plain ints, each positive and odd.
    A wrong type raises ScopeError and a value out of range SegmentError,
    so every BlockTuple is a block and no function that takes one checks
    it again.
    """

    _fields = ("c_min", "mults")

    def __init__(self, c_min, mults):
        _integer(c_min, "c_min")
        if type(mults) is not tuple or not set(map(type, mults)) <= {int}:
            raise ScopeError("mults must be a tuple of integers, got %s"
                             % _shown(mults))
        if c_min < 0:
            raise SegmentError("c_min must be >= 0")
        # The range checks scan the distinct multiplicities, in C.
        distinct = set(mults)
        if min(distinct, default=1) < 1:
            raise SegmentError("multiplicities must be positive")
        if not all(map((1).__and__, distinct)):
            c, m = next((c, m) for c, m in enumerate(mults, c_min)
                        if not m & 1)
            raise SegmentError("a block has odd multiplicities, got %s at "
                               "column %s" % (_shown(m), _shown(c)))
        vars(self).update(c_min=c_min, mults=mults)

    @property
    def c_max(self):
        return self.c_min + len(self.mults) - 1

    def mult(self, c):
        if self.c_min <= c <= self.c_max:
            return self.mults[c - self.c_min]
        return 0

    @cached_property
    def _row_table(self):
        """sdata's table of the rows it has built for members of this
        block.  Made empty on first use, it lives as long as the block and
        is no field: equality, hash and repr ignore it."""
        return {}

    @cached_property
    def _lift_block(self):
        """The block with one more column, c_max + 1 of multiplicity 1,
        whose members are sdata's lifts of this block's: made once, so
        that every lift of a member of this block shares its rows.  Like
        _row_table it is no field."""
        return BlockTuple(self.c_min, self.mults + (1,))


EMPTY_BLOCK = BlockTuple(0, ())


TYPE1, TYPE2, TYPE3 = "Type1", "Type2", "Type3"


class Boundary(NamedTuple):
    kind: str
    H_col: int
    N_col: int


def is_tempered(ms):
    """All rows single circles, rows in one column sharing a sign."""
    col_sign = {}
    for r in dict.fromkeys(ms.rows):
        if r.A != r.B or r.l != 0:
            return False
        if col_sign.setdefault(r.B, r.eta) != r.eta:
            return False
    return True


def block_tuples(ms):
    """Greedy split of a tempered multi-segment into maximal blocks, as
    (BlockTuple, sign of the first column) pairs in column order.

    A block continues across a column step of +1 with flipped sign; an even
    multiplicity leaves one row behind to start the next block; a gap or a
    repeated sign closes the block.

    The walk keeps one entry (c_min, mults, eta) per block: its first
    column, the list of its multiplicities so far and the sign of its
    first column.  A run that does not continue the last block starts a
    new entry, and a run of even multiplicity m adds m - 1 to the last
    entry and starts the next one at once, (c, [1], sign of the run).
    The BlockTuples are made from the entries at the end.
    """
    if not is_tempered(ms):
        raise SegmentError("block decomposition requires a tempered input")
    # On a tempered input equal rows are equal columns, so each run of
    # equal rows is a column, (row, multiplicity).
    runs = [(r, len(list(g))) for r, g in groupby(ms.rows)]
    if any(r.B > q.B for (r, _), (q, _) in zip(runs, runs[1:])):
        raise SegmentError("tempered input must be sorted by column")
    entries = []
    # The column after the last run and that run's sign: a run continues
    # the last block when it sits there with the other sign.
    nxt = sign = None
    for (_, c, _, s), m in runs:
        if c != nxt or s != -sign:
            entries.append((c, [], s))
        entries[-1][1].append(m if m % 2 else m - 1)
        if not m % 2:
            entries.append((c, [1], s))
        nxt, sign = c + 1, s
    return [(BlockTuple(c_min, tuple(mults)), eta)
            for c_min, mults, eta in entries]


def block_decompose(ms):
    """The blocks of block_tuples as multi-segments in the mode of ms: the
    rows of tempered_block(bt, eta), equal to the single-circle rows of
    ms, which are already checked."""
    return [MultiSegment._of(tempered_block(bt, eta).rows, ms.mode)
            for bt, eta in block_tuples(ms)]


def block_tuple(block):
    """The BlockTuple of a tempered multi-segment that block_tuples splits
    into one block (EMPTY_BLOCK when it has no rows).

    Anything that splits into more blocks raises SegmentError: "block has
    a column gap" when its columns do not run on, and otherwise at an even
    multiplicity or a repeated sign.
    """
    if not is_tempered(block):
        raise SegmentError("block_tuple requires a tempered block")
    blocks = [bt for bt, _ in block_tuples(block)] or [EMPTY_BLOCK]
    if len(blocks) > 1:
        if any(q.c_min > p.c_max + 1 for p, q in zip(blocks, blocks[1:])):
            raise SegmentError("block has a column gap")
        raise SegmentError("the rows split into %d blocks" % len(blocks))
    return blocks[0]


def remove_column(ms, c):
    """Drop every single-circle row in column c (the rc operator); the rows
    left are checked already.  c must be a plain int (ScopeError
    otherwise)."""
    _integer(c, "a column")
    rows = tuple(r for r in ms.rows
                 if not (r.A == r.B == c and r.l == 0))
    return MultiSegment._of(rows, ms.mode)


def classify_boundary(b1, b2):
    """Boundary taxonomy for consecutive blocks: gap, overlap, or abutment.
    An empty block has no boundary column and raises SegmentError."""
    if not (b1.rows and b2.rows):
        raise SegmentError("an empty block has no boundary")
    H_col = max(r.A for r in b1.rows)
    N_col = min(r.B for r in b2.rows)
    if N_col > H_col + 1:
        kind = TYPE1
    elif N_col == H_col:
        kind = TYPE2
    elif N_col == H_col + 1:
        kind = TYPE3
    else:
        raise SegmentError("blocks overlap by more than one column")
    return Boundary(kind, H_col, N_col)


def tempered_block(bt, eta=1):
    """The strict tempered multi-segment with the given multiplicities,
    signs alternating between columns starting from eta, a plain int of +1
    or -1: the member of bt whose S cuts after every column, with the
    trivial T.  Its rows are sdata._rows of those coordinates, which are
    valid for every block, so only eta is checked; they come from bt's row
    table, shared with every member build makes of bt."""
    S1 = tuple((c, c) for c in range(bt.c_min, bt.c_max + 1))
    return MultiSegment._of(_rows(bt, S1, trivial_T(S1), _eta(eta)), STRICT)
