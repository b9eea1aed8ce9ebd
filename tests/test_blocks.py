"""Tempered structure: decomposition into blocks and boundary taxonomy."""

import random
import re

import pytest

from emseg.blocks import (
    BlockTuple, EMPTY_BLOCK, TYPE1, TYPE2, TYPE3, block_decompose, block_tuple,
    classify_boundary, is_tempered, block_tuples, remove_column,
    tempered_block,
)
from emseg.core import (
    RELAXED, Row, ScopeError, SegmentError, multi_segment, parse, render,
)

from conftest import rand_tempered


class TestBlockTuple:
    def test_bounds(self):
        bt = BlockTuple(2, (1, 3, 1))
        assert bt.c_max == 4
        assert bt.mult(3) == 3
        assert bt.mult(7) == 0

    def test_empty(self):
        assert not EMPTY_BLOCK.mults

    def test_rejects_negative_start(self):
        """c_min is checked before the multiplicities are."""
        for mults in ((1,), (2,)):
            with pytest.raises(SegmentError, match=r"^c_min must be >= 0$"):
                BlockTuple(-1, mults)

    def test_rejects_zero_multiplicity(self):
        """Positivity is checked before oddness."""
        for mults in ((1, 0, 1), (2, 0)):
            with pytest.raises(SegmentError,
                               match=r"^multiplicities must be positive$"):
                BlockTuple(0, mults)

    @pytest.mark.parametrize("c_min, mults, got", [
        (0, (2,), "2 at column 0"),
        (0, (2, 1), "2 at column 0"),
        (3, (1, 1, 4, 2), "4 at column 5"),
        (0, (1, 3, 2 * 10 ** 5000), "<16611-bit integer> at column 2"),
        (10 ** 5000, (1, 2), "2 at column <16610-bit integer>"),
    ], ids=["one", "first", "later", "huge-mult", "huge-column"])
    def test_rejects_even_multiplicity(self, c_min, mults, got):
        """A block has odd multiplicities: the first even one raises,
        naming its column, and a huge int is shown by its size."""
        with pytest.raises(SegmentError, match=re.escape(
                "a block has odd multiplicities, got %s" % got) + "$"):
            BlockTuple(c_min, mults)

    @pytest.mark.parametrize("c_min, mults", [
        (1.0, (3, 1)), (True, (1,)), (0, (1.0,)), (0, [1, 3]), (0, "13"),
        (0, (1.5, 3)), (0, (1, True)), (0, None), ("0", (1,))])
    def test_rejects_fields_of_other_types(self, c_min, mults):
        """c_min is a plain int and mults a tuple of plain ints: a float,
        bool, list or string raises ScopeError when the block is made, so
        no build, enumeration or count ever sees it."""
        with pytest.raises(ScopeError):
            BlockTuple(c_min, mults)


class TestPredicates:
    def test_tempered(self):
        assert is_tempered(parse("[0,0;0;+][1,1;0;-]"))
        assert not is_tempered(parse("[1,0;0;+]"))
        assert not is_tempered(parse("[0,0;0;+][0,0;0;-]"))


class TestDecompose:
    def test_same_sign_adjacent_columns_split(self):
        blocks = block_decompose(parse("[0,0;0;+][1,1;0;+]"))
        assert [render(b) for b in blocks] == ["[0,0;0;+]", "[1,1;0;+]"]
        assert classify_boundary(blocks[0], blocks[1]).kind == TYPE3

    def test_even_multiplicity_splits(self):
        blocks = block_decompose(parse("[0,0;0;+][1,1;0;-][1,1;0;-]"))
        assert [render(b) for b in blocks] == ["[0,0;0;+][1,1;0;-]", "[1,1;0;-]"]
        assert classify_boundary(blocks[0], blocks[1]).kind == TYPE2

    def test_gap_splits(self):
        blocks = block_decompose(parse("[0,0;0;+][3,3;0;-]"))
        assert len(blocks) == 2
        assert classify_boundary(blocks[0], blocks[1]).kind == TYPE1

    def test_overlap_of_two_columns_is_no_boundary(self):
        """Consecutive blocks share at most one column."""
        first = tempered_block(BlockTuple(0, (1, 1, 1)))
        for second in (BlockTuple(1, (1,)), BlockTuple(1, (1, 1, 1))):
            with pytest.raises(SegmentError, match=(
                    "^blocks overlap by more than one column$")):
                classify_boundary(first, tempered_block(second, -1))

    def test_an_empty_block_has_no_boundary(self):
        """An empty block on either side is refused with SegmentError, not
        the ValueError of max() or min() of no rows."""
        empty, block = parse(""), parse("[1,1;0;+]")
        for b1, b2 in ((empty, block), (block, empty)):
            with pytest.raises(SegmentError,
                               match="^an empty block has no boundary$"):
                classify_boundary(b1, b2)

    def test_alternating_run_is_one_block(self):
        blocks = block_decompose(parse("[0,0;0;+][1,1;0;-][2,2;0;+]"))
        assert len(blocks) == 1
        assert block_tuple(blocks[0]) == BlockTuple(0, (1, 1, 1))

    def test_rejects_untempered(self):
        with pytest.raises(SegmentError):
            block_decompose(parse("[1,0;0;+]"))

    def test_random_decompositions(self, rng):
        for _ in range(300):
            ms = rand_tempered(rng)
            blocks = block_decompose(ms)
            flat = tuple(r for b in blocks for r in b.rows)
            assert flat == ms.rows
            for b in blocks:
                bt = block_tuple(b)
                assert all(m % 2 == 1 for m in bt.mults)
                columns = sorted(set(b.rows), key=lambda r: r.B)
                assert all(q.eta == -r.eta
                           for r, q in zip(columns, columns[1:]))
            for b1, b2 in zip(blocks, blocks[1:]):
                classify_boundary(b1, b2)


class TestBlockTupleOf:
    def test_round_trip_with_tempered_block(self):
        bt = BlockTuple(1, (3, 1))
        assert block_tuple(tempered_block(bt, -1)) == bt

    def test_empty(self):
        assert block_tuple(parse("")) is EMPTY_BLOCK

    @pytest.mark.parametrize("dsl", [
        "[0,0;0;+][3,3;0;-]",
        "[0,0;0;+][1000000000000,1000000000000;0;-]",
    ])
    def test_gap(self, dsl):
        """A far gap raises as a near one does: block_tuple counts the
        column runs against the span and allocates nothing as wide as the
        span, which ran out of memory on the far gap."""
        with pytest.raises(SegmentError, match="^block has a column gap$"):
            block_tuple(parse(dsl))

    @pytest.mark.parametrize("dsl", [
        "[0,0;0;+][1,1;0;+]", "[0,0;0;+][0,0;0;+]",
        "[0,0;0;+][1,1;0;-][1,1;0;-]",
    ])
    def test_more_than_one_block(self, dsl):
        """A repeated sign or an even multiplicity splits the rows into
        two blocks, as block_tuples finds, so they are no one block."""
        ms = parse(dsl)
        assert len(block_tuples(ms)) == 2
        with pytest.raises(SegmentError,
                           match="^the rows split into 2 blocks$"):
            block_tuple(ms)

    @pytest.mark.parametrize("rows", [
        [(1, 1, 0, 1), (0, 0, 0, -1), (2, 2, 0, -1)],
        [(1, 1, 0, 1), (0, 0, 0, -1)],
    ])
    def test_rejects_unsorted_rows(self, rows):
        """A column below the first row's is neither read at index -1 nor
        an IndexError: block_tuple rejects it as block_tuples does."""
        ms = multi_segment(rows)
        for f in (block_tuple, block_tuples):
            with pytest.raises(SegmentError) as err:
                f(ms)
            assert str(err.value) == "tempered input must be sorted by column"


class TestRemoveColumn:
    def test_drops_single_circles(self):
        ms = parse("[0,0;0;+][1,1;0;-][1,1;0;-]")
        assert render(remove_column(ms, 1)) == "[0,0;0;+]"

    def test_keeps_wide_rows(self):
        ms = parse("[1,0;0;+]")
        assert remove_column(ms, 0).rows == ms.rows


def test_tempered_block_alternates():
    ms = tempered_block(BlockTuple(0, (1, 3, 1)), 1)
    assert render(ms) == ("[0,0;0;+][1,1;0;-][1,1;0;-][1,1;0;-][2,2;0;+]")
    assert is_tempered(ms)
    assert len(block_decompose(ms)) == 1


# The row-by-row versions that block_tuples, block_tuple and is_tempered
# replaced, kept as oracles.

def _reference_is_tempered(ms):
    col_sign = {}
    for r in ms.rows:
        if r.A != r.B or r.l != 0:
            return False
        if col_sign.setdefault(r.B, r.eta) != r.eta:
            return False
    return True


def _reference_column_groups(ms):
    groups = []
    for r in ms.rows:
        if groups and groups[-1][0] == r.B:
            groups[-1][1] += 1
        else:
            groups.append([r.B, 1, r.eta])
    return groups


def _reference_block_tuples(ms):
    if not _reference_is_tempered(ms):
        raise SegmentError("block decomposition requires a tempered input")
    if any(ms.rows[i].B > ms.rows[i + 1].B for i in range(len(ms.rows) - 1)):
        raise SegmentError("tempered input must be sorted by column")
    blocks = []
    mults = []
    c_min = eta = last = None

    def close():
        if mults:
            blocks.append((BlockTuple(c_min, tuple(mults)), eta))
            mults.clear()

    for c, m, s in _reference_column_groups(ms):
        if not (mults and c_min + len(mults) == c and last == -s):
            close()
            c_min, eta = c, s
        mults.append(m if m % 2 == 1 else m - 1)
        if m % 2 == 0:
            close()
            c_min, eta = c, s
            mults.append(1)
        last = s
    close()
    return blocks


def _reference_block_tuple(block):
    if not block.rows:
        return EMPTY_BLOCK
    if not _reference_is_tempered(block):
        raise SegmentError("block_tuple requires a tempered block")
    if any(block.rows[i].B > block.rows[i + 1].B
           for i in range(len(block.rows) - 1)):
        raise SegmentError("tempered input must be sorted by column")
    groups = _reference_column_groups(block)
    c_min = groups[0][0]
    mults = [0] * (groups[-1][0] - c_min + 1)
    for c, m, _ in groups:
        mults[c - c_min] += m
    if any(m == 0 for m in mults):
        raise SegmentError("block has a column gap")
    # One block of the decomposition, or none: an even multiplicity or a
    # repeated sign splits it.
    n = len(_reference_block_tuples(block))
    if n > 1:
        raise SegmentError("the rows split into %d blocks" % n)
    return BlockTuple(c_min, tuple(mults))


def _disturbed_tempered(rng):
    """Tempered rows in sorted columns, then maybe one sign flipped, one
    row of several columns (or with a triangle pair) put in, and the rows
    shuffled or two neighbours swapped."""
    cols = sorted(rng.sample(range(12), rng.randint(0, 6)))
    rows = []
    for c in cols:
        rows += [Row(c, c, 0, rng.choice((1, -1)))] * rng.randint(1, 4)
    k = rng.random()
    if k < 0.2 and rows:
        i = rng.randrange(len(rows))
        rows[i] = rows[i]._replace(eta=-rows[i].eta)
    elif k < 0.35:
        B = rng.randint(0, 5)
        rows.insert(rng.randint(0, len(rows)),
                    Row(B + rng.randint(0, 2), B, rng.choice((0, 0, 1)),
                        rng.choice((1, -1))))
    k = rng.random()
    if k < 0.3:
        rng.shuffle(rows)
    elif k < 0.45 and len(rows) > 1:
        i = rng.randrange(len(rows) - 1)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return multi_segment(rows, RELAXED)


def _outcome(f, ms):
    try:
        return "ok", f(ms)
    except (SegmentError, IndexError) as e:
        return type(e), str(e)


class TestAgainstRowByRow:
    PAIRS = [(is_tempered, _reference_is_tempered),
             (block_tuples, _reference_block_tuples),
             (block_tuple, _reference_block_tuple)]

    def test_random_inputs(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(3000):
            ms = _disturbed_tempered(rng)
            for new, old in self.PAIRS:
                kind, value = _outcome(old, ms)
                assert _outcome(new, ms) == (kind, value), (new, ms.rows)
                if kind is SegmentError or new is is_tempered:
                    seen.add(value)
        assert {True, False,
                "block decomposition requires a tempered input",
                "tempered input must be sorted by column",
                "block_tuple requires a tempered block",
                "block has a column gap",
                "the rows split into 2 blocks"} <= seen

    def test_untempered_wins_over_unsorted(self):
        ms = parse("[1,1;0;+][0,0;0;+][0,0;0;-]")
        for f in (block_tuples, _reference_block_tuples):
            with pytest.raises(SegmentError, match="requires a tempered"):
                f(ms)
        ms = parse("[2,1;0;+][0,0;0;+]")
        for f in (block_tuples, _reference_block_tuples):
            with pytest.raises(SegmentError, match="requires a tempered"):
                f(ms)
