"""Counting: recursions, enumeration, closure oracle, products."""

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import emseg
from emseg import cli, core
from emseg.blocks import (
    BlockTuple, block_decompose, block_tuples, tempered_block,
)
from emseg.closure import closure
from emseg.core import (
    RELAXED, STRICT, MultiSegment, SegmentError, arthur_parameter, from_json,
    make_row, multi_segment, parse, render, to_json,
)
from emseg.count import (
    PacketCount, _count_rec, count_block_closure, count_block_enumerative,
    count_block_recursive, count_multi, count_tempered, iter_grid,
    verify_instance,
)
from emseg.sdata import build, iter_S, iter_ST, validate_S

from conftest import canonical_S, rand_tempered

# The recursion count over which the enumeration property skips a block:
# a cost limit that keeps it near 2 s, since the enumeration builds every
# member.  Lowering it hides blocks, not faults.
ENUMERATION_CAP = 3000


def _canonical_packets(M, eta):
    """(ψ of the canonical members, ψ of every member) of the block M: the
    (S, T) members at c_min 0, the S-only ones past it.  A member is
    canonical when canonical_S holds of its S."""
    members = (iter_ST(M) if M.c_min == 0
               else zip(iter_S(M), itertools.repeat(None)))
    canonical, every = [], set()
    for S, T in members:
        psi = arthur_parameter(build(M, S, T, eta))
        every.add(psi)
        if canonical_S(S):
            canonical.append(psi)
    return canonical, every


class TestRecursive:
    def test_bases(self):
        assert count_block_recursive(BlockTuple(0, ())).value == 1
        assert count_block_recursive(BlockTuple(0, (5,))).value == 1
        assert count_block_recursive(BlockTuple(3, (1,))).value == 1

    def test_powers_of_three_at_zero(self):
        for k in [*range(5), 10 ** 5 - 1]:
            M = BlockTuple(0, (1,) * (k + 1))
            assert count_block_recursive(M).value == 3 ** k

    def test_powers_of_two_past_zero(self):
        for n in [*range(1, 6), 10 ** 5]:
            M = BlockTuple(1, (1,) * n)
            assert count_block_recursive(M).value == 2 ** (n - 1)

    def test_multiplicity_correction(self):
        assert count_block_recursive(BlockTuple(0, (3, 1))).value == 3
        assert count_block_recursive(BlockTuple(1, (3, 1))).value == 2
        assert count_block_recursive(BlockTuple(0, (1, 3, 1))).value == 11
        assert count_block_recursive(BlockTuple(1, (1, 3, 1))).value == 5

    def test_method_tag(self):
        pc = count_block_recursive(BlockTuple(0, (1,)))
        assert isinstance(pc, PacketCount) and pc.method == "recursion"


class TestEnumerative:
    def test_small_blocks(self):
        assert count_block_enumerative(BlockTuple(0, (1, 1))).value == 3
        assert count_block_enumerative(BlockTuple(0, (3, 3))).value == 3
        assert count_block_enumerative(BlockTuple(2, (3,))).value == 1

    def test_sign_independence(self):
        for M in (BlockTuple(0, (1, 3)), BlockTuple(1, (3, 1))):
            assert (count_block_enumerative(M, 1).value
                    == count_block_enumerative(M, -1).value)

    @pytest.mark.parametrize("c_min", [0, 2])
    def test_empty_block_counts_by_all_three_methods(self, c_min):
        """The empty block has one S-tuple, (), and at c_min 0 one (S, T),
        ((), ()); each builds the empty multi-segment, so every method
        counts 1.  () splits no other block."""
        M = BlockTuple(c_min, ())
        assert list(iter_S(M)) == [()]
        if c_min == 0:
            assert list(iter_ST(M)) == [((), ())]
        assert validate_S(M, ())
        assert build(M, ()) == MultiSegment(())
        assert count_block_enumerative(M).value == 1
        assert verify_instance(M) == {
            "c_min": c_min, "mults": [], "recursion": 1, "enumeration": 1,
            "closure": 1, "agree": True}
        assert not validate_S(BlockTuple(0, (1,)), ())

    def test_recursion_equals_enumeration_past_the_grid(self):
        """On blocks of 6-11 columns, c_min 0-2 and multiplicities 1, 3
        and 5, beyond the default grid's 4 columns, the recursion counts
        what the enumeration finds.  Blocks that count over
        ENUMERATION_CAP are skipped for time."""
        checked = []

        @settings(derandomize=True, deadline=None, max_examples=100,
                  database=None)
        @given(st.integers(0, 2),
               st.lists(st.sampled_from((1, 3, 5)), min_size=6,
                        max_size=11).map(tuple))
        def agree(c_min, mults):
            M = BlockTuple(c_min, mults)
            expected = count_block_recursive(M).value
            if expected <= ENUMERATION_CAP:
                assert count_block_enumerative(M).value == expected, M
                checked.append(M)

        agree()
        assert len(checked) >= 60
        assert len({M.c_min for M in checked}) == 3
        assert max(len(M.mults) for M in checked) >= 10


class TestCanonicalMembers:
    """One member per packet: the canonical members have pairwise distinct
    ψ, cover the ψ of all members, and number what the recursion counts."""

    @staticmethod
    def _check(M, eta):
        canonical, every = _canonical_packets(M, eta)
        assert len(set(canonical)) == len(canonical), (M, eta)
        assert set(canonical) == every, (M, eta)
        assert len(canonical) == count_block_recursive(M).value, (M, eta)
        return len(canonical)

    def test_on_the_grid(self):
        blocks = total = 0
        for M in iter_grid(6, 5, 1, 10):
            blocks += 1
            for eta in (1, -1):
                total += self._check(M, eta)
        assert (blocks, total) == (218, 27242)

    def test_past_the_grid(self):
        """Blocks of 7-11 columns at c_min 0-2 with multiplicities 1, 3
        and 5, past the grid's 6 columns; blocks that count over
        ENUMERATION_CAP are skipped for time."""
        checked = []

        @settings(derandomize=True, deadline=None, max_examples=40,
                  database=None)
        @given(st.integers(0, 2),
               st.lists(st.sampled_from((1, 3, 5)), min_size=7,
                        max_size=11).map(tuple),
               st.sampled_from((1, -1)))
        def canonical_members(c_min, mults, eta):
            M = BlockTuple(c_min, mults)
            if count_block_recursive(M).value <= ENUMERATION_CAP:
                self._check(M, eta)
                checked.append(M)

        canonical_members()
        assert len(checked) >= 20
        assert len({M.c_min for M in checked}) == 3
        assert max(len(M.mults) for M in checked) >= 9


class TestClosureCount:
    def test_matches_recursion(self):
        for M in (BlockTuple(0, (1, 1)), BlockTuple(0, (3, 1)),
                  BlockTuple(1, (1, 1, 1))):
            assert (count_block_closure(M).value
                    == count_block_recursive(M).value)

    def test_limit_error(self):
        with pytest.raises(SegmentError):
            count_block_closure(BlockTuple(0, (1, 1, 1)), max_states=2)

    def test_limits_raise_the_one_limit_error(self):
        """The closure's limits and every exit-2 case of the CLI raise
        one class, exported as emseg.LimitError."""
        with pytest.raises(emseg.LimitError, match=(
                r"^closure hit the state limit \(2 states\)$")):
            count_block_closure(BlockTuple(0, (1, 1, 1)), max_states=2)
        assert not [name for name in vars(cli) if name.endswith("LimitError")
                    and getattr(cli, name) is not emseg.LimitError]


class TestBlocksOnly:
    """README's blocks have odd multiplicities; the three methods count
    nothing else, where they used to give three answers.  BlockTuple
    refuses an even multiplicity, so no method is handed one."""

    @pytest.mark.parametrize("count", [
        count_block_recursive, count_block_enumerative, count_block_closure])
    @pytest.mark.parametrize("M, column", [
        ((0, (2, 1)), 0), ((0, (1, 2, 1)), 1), ((3, (1, 1, 4)), 5)])
    def test_even_multiplicities_are_rejected(self, count, M, column):
        c_min, mults = M
        with pytest.raises(SegmentError, match="odd multiplicities, got "
                           "%d at column %d$" % (mults[column - c_min], column)):
            count(BlockTuple(c_min, mults))


class TestTempered:
    def test_single_block(self):
        assert count_tempered(parse("[0,0;0;+][1,1;0;-][2,2;0;+]")).value == 9

    def test_same_sign_neighbors(self):
        assert count_tempered(parse("[0,0;0;+][1,1;0;+]")).value == 1

    def test_even_multiplicity(self):
        assert count_tempered(parse("[0,0;0;+][1,1;0;-][1,1;0;-]")).value == 3

    def test_later_blocks_ignore_column_zero_rule(self):
        two_blocks = parse("[0,0;0;+][2,2;0;+][3,3;0;-]")
        assert count_tempered(two_blocks).value == 1 * 2

    def test_requires_tempered(self):
        with pytest.raises(SegmentError):
            count_tempered(parse("[1,0;0;+]"))


class TestOneCheckPerRow:
    """The count path checks rows only when it parses them, each distinct
    item once, in the one row-check loop core._made_rows."""

    SYMBOL = "[0,0;0;+][1,1;0;-][1,1;0;-][2,2;0;+][4,4;0;+][5,5;0;-]"

    @pytest.fixture
    def make_row_calls(self, monkeypatch):
        calls = []
        real = core.make_row

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "make_row", counted)
        return calls

    @pytest.fixture
    def checked_rows(self, monkeypatch):
        """Each row passed to core._made_rows, with its mode."""
        checked = []
        real = core._made_rows

        def counted(rows, mode, out):
            rows = list(rows)
            checked.extend((*r, mode) for r in rows)
            return real(rows, mode, out)

        monkeypatch.setattr(core, "_made_rows", counted)
        return checked

    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_parse_and_from_json_check_each_row_once(
            self, make_row_calls, checked_rows, mode):
        """parse checks each distinct item once ([1,1;0;-] repeats);
        from_json checks every row."""
        ms = parse(self.SYMBOL, mode)
        assert len(ms) == 6
        assert len(checked_rows) == len(set(checked_rows)) == 5
        assert set(checked_rows) == {(*r, mode) for r in ms}
        assert all(make_row(*r, mode) == r for r in ms)
        make_row_calls.clear()
        assert from_json(to_json(ms), mode) == ms
        assert len(make_row_calls) == 6

    LONG = "".join("[%d,%d;0;%s]" % (c, c, "+-"[c % 2]) * 100
                   for c in range(1000))

    def test_parse_checks_a_long_symbol_once_per_column(self, checked_rows):
        ms = parse(self.LONG)
        assert len(ms) == 10 ** 5
        assert len(checked_rows) <= 1000
        checked_rows.clear()
        count_tempered(ms)
        assert checked_rows == []
        assert render(ms) == self.LONG

    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_constructors_check_a_long_symbol_once_per_column(
            self, checked_rows, mode):
        ms = parse(self.LONG, mode)
        for rows in (ms.rows, [tuple(r) for r in ms.rows]):
            checked_rows.clear()
            assert multi_segment(rows, mode) == ms
            assert len(checked_rows) == 1000
            checked_rows.clear()
            assert MultiSegment(tuple(rows), mode) == ms
            assert len(checked_rows) == 1000

    def test_tempered_block_checks_no_row(self, checked_rows):
        """A BlockTuple is a block, so the rows of tempered_block are
        valid as built."""
        ms = tempered_block(BlockTuple(0, (101,) * 1000))
        assert checked_rows == []
        assert ms == MultiSegment([(c, c, 0, (-1) ** c)
                                   for c in range(1000) for _ in range(101)])

    def test_decompose_and_count_check_no_row(self, checked_rows):
        ms = parse(self.SYMBOL)
        checked_rows.clear()
        assert len(block_decompose(ms)) == 3
        assert count_tempered(ms).value == 3 * 2 * 2
        assert checked_rows == []


class TestMulti:
    def test_product(self):
        x1 = parse("[0,0;0;+][1,1;0;-]")
        assert count_multi([x1, x1]).value == 9

    def test_empty(self):
        assert count_multi([]).value == 1


class TestGrid:
    def test_instances_respect_bounds(self):
        for M in iter_grid(max_len=3, max_mult=3, max_cmin=1, max_rows=5):
            assert len(M.mults) <= 3
            assert all(m in (1, 3) for m in M.mults)
            assert M.c_min in (0, 1)
            assert sum(M.mults) <= 5

    def test_verify_reports_agreement(self):
        for M in iter_grid(max_len=2, max_mult=3, max_cmin=1, max_rows=4):
            record = verify_instance(M)
            assert record["agree"], record

    def test_grid_order_is_the_recursive_walk(self):
        """iter_grid lists the grid of the recursive walk it replaced, in
        its order: each prefix at every c_min, then its extensions."""
        def reference(max_len, max_mult, max_cmin, max_rows):
            out = []

            def rec(prefix):
                if prefix and sum(prefix) <= max_rows:
                    out.extend(BlockTuple(c, tuple(prefix))
                               for c in range(max_cmin + 1))
                if len(prefix) == max_len:
                    return
                for m in range(1, min(max_mult, max_rows) + 1, 2):
                    if sum(prefix) + m <= max_rows:
                        rec(prefix + [m])

            rec([])
            return out

        for bounds in itertools.product((0, 1, 2, 4), (0, 1, 3, 6),
                                        (0, 2), (0, 1, 5, 9)):
            assert list(iter_grid(*bounds)) == reference(*bounds), bounds
        assert len(list(iter_grid())) == 86

    def test_grid_streams(self):
        """Taking the first instances of a grid of 10^24 makes only them."""
        huge = 10 ** 12
        first = list(itertools.islice(iter_grid(huge, 5, huge, huge), 3))
        assert first == [BlockTuple(0, (1,)), BlockTuple(1, (1,)),
                         BlockTuple(2, (1,))]


def _poly(terms):
    """The coefficients of Σ k·y^shift·p(y) over the (k, shift, p) terms,
    lowest power first, p a coefficient list."""
    out = [0] * max(shift + len(p) for _, shift, p in terms)
    for k, shift, p in terms:
        for i, a in enumerate(p):
            out[shift + i] += k * a
    return out


def _graded_rec(c_min, mults):
    """Reference graded loop of ROADMAP item 18: the coefficients of
    G(y) = Σ_ψ y^(N − |ψ|) of a block of N rows, lowest power first.
    With f = 3 at c_min 0 and 2 otherwise, each m in mults[:-1] gives
    G ← (f − 1 + y)·G when m = 1 and G ← (f − 1 + 2y)·G − y·G₂ when
    m > 1, from G = G₂ = 1."""
    f = 3 if c_min == 0 else 2
    prev2, prev = [1], [1]
    for m in mults[:-1]:
        if m == 1:
            terms = [(f - 1, 0, prev), (1, 1, prev)]
        else:
            terms = [(f - 1, 0, prev), (2, 1, prev), (-1, 1, prev2)]
        prev2, prev = prev, _poly(terms)
    return prev


def _graded(psis, n_rows):
    """{N − |ψ|: how many ψ} over the parameters psis of N rows, the
    coefficients of G(y) as a dict."""
    return Counter(n_rows - len(psi) for psi in psis)


def _nonzero(coefficients):
    return {k: a for k, a in enumerate(coefficients) if a}


class TestGradedCount:
    """ROADMAP item 18, test first: the count graded by the number of rows
    of each ψ obeys the two-term law of _graded_rec, which is _count_rec
    at y = 1, against the enumeration, the closure and the product rule."""

    def test_golden_and_value_at_one(self):
        assert _graded_rec(0, (1, 3, 1, 3, 1, 3, 1)) == [
            64, 240, 396, 365, 198, 60, 8]
        assert _graded_rec(0, (1,) * 5) == [16, 32, 24, 8, 1]
        assert _graded_rec(2, (1,) * 5) == [1, 4, 6, 4, 1]
        blocks = 0
        for M in iter_grid(8, 7, 3, 16):
            assert sum(_graded_rec(M.c_min, M.mults)) == _count_rec(
                0 if M.c_min == 0 else 1, M.mults), M
            blocks += 1
        assert blocks == 6704

    def test_matches_the_enumeration(self):
        start = time.perf_counter()
        cases = 0
        for M in iter_grid(6, 5, 2, 11):
            want = _nonzero(_graded_rec(M.c_min, M.mults))
            for eta in (1, -1):
                _, psis = _canonical_packets(M, eta)
                assert _graded(psis, sum(M.mults)) == want, (M, eta)
                cases += 1
        assert cases == 870
        assert time.perf_counter() - start < 3.0

    def test_matches_the_closure(self):
        start = time.perf_counter()
        cases = 0
        for M in iter_grid(5, 5, 1, 9):
            want = _nonzero(_graded_rec(M.c_min, M.mults))
            for eta in (1, -1):
                report = closure(tempered_block(M, eta))
                assert report.exhausted
                assert _graded(report.psi, sum(M.mults)) == want, (M, eta)
                cases += 1
        assert cases == 256
        assert time.perf_counter() - start < 3.0

    def test_product_of_blocks_matches_the_closure(self):
        """On multi-block tempered symbols of at most 9 rows, G is the
        product of the blocks' G, f picked as count_tempered picks it:
        only a first block at c_min 0 takes f = 3, so a later block at
        c_min 0, left by an even multiplicity of column 0, takes f = 2."""
        rng = random.Random(20261020)
        start = time.perf_counter()
        checked = later_at_zero = 0
        while checked < 300:
            ms = rand_tempered(rng)
            blocks = block_tuples(ms)
            if len(ms.rows) > 9 or len(blocks) < 2:
                continue
            product = [1]
            for i, (bt, _) in enumerate(blocks):
                block = _graded_rec(0 if i == bt.c_min == 0 else 1,
                                    bt.mults)
                product = _poly([(a, k, block)
                                 for k, a in enumerate(product)])
            psis = closure(ms).psi
            assert _graded(psis, len(ms.rows)) == _nonzero(product), (
                render(ms))
            later_at_zero += any(bt.c_min == 0 for bt, _ in blocks[1:])
            checked += 1
        assert later_at_zero == 43
        assert time.perf_counter() - start < 4.0
