"""The operator calculus: exchanges, merges, duals, splits, composites."""

import random
import re
import time
from collections import Counter
from itertools import islice

from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import emseg
from emseg.core import (
    RELAXED, STRICT, MultiSegment, OrderError, Row, ScopeError, SegmentError,
    arthur_parameter, check_star, from_json, group_sign, make_row,
    multi_segment, parse, render, row_is_strict, to_json,
    weak_normalize,
)
from emseg.blocks import BlockTuple, remove_column, tempered_block
from emseg.closure import are_equivalent, closure, neighbors
from emseg.count import (
    count_block_closure, count_block_enumerative, count_block_recursive,
    iter_grid,
)
from emseg.ops import (
    NoExchangeError, OpResult, T1, T2, T3, T3PRIME, dual, dual_ui_dual,
    merge_hats, row_exchange, split_circles, to_sorted, ui, ui_type,
)

from emseg.sdata import (
    build, iter_ST, theta1, theta_family, theta2_matches_theta4, validate_S,
    validate_T,
)

from conftest import rand_mode_ms, rand_nested_pair, rand_row, rand_sorted_ms


# One hand-checked exchange per branch of exchange_pair, (input, output):
# the containing row O first, then second, each at eps = 1 with
# c_O < 2c_I, eps = 1 with c_O >= 2c_I, and eps = -1 on either side of
# that bound.  O = [2,0] has 3 circles; I = [2,1] has 2 and I = [1,1] one.
EXCHANGE_GOLDENS = [
    ("[2,0;0;+][2,1;0;+]", "[2,1;0;+][2,0;1;-]"),
    ("[2,0;0;+][1,1;0;+]", "[1,1;0;+][2,0;1;-]"),
    ("[2,0;0;+][2,1;0;-]", "[2,1;0;-][2,0;-2;+]"),
    ("[2,0;0;+][1,1;0;-]", "[1,1;0;-][2,0;-1;-]"),
    ("[2,1;0;+][2,0;0;-]", "[2,0;1;+][2,1;0;+]"),
    ("[1,1;0;+][2,0;0;+]", "[2,0;1;-][1,1;0;+]"),
    ("[2,1;0;+][2,0;0;+]", "[2,0;-2;+][2,1;0;+]"),
    ("[1,1;0;+][2,0;0;-]", "[2,0;-1;+][1,1;0;+]"),
]

# One hand-checked union-intersection per branch of ui_rows, (input, tag,
# output): T1; T2 with r1 holding at least d = A2 - A1 circles and fewer;
# T3 with l2 <= l1 and l2 > l1.  T3' has test_type3prime_merges_circle_rows.
UI_GOLDENS = [
    ("[1,0;0;-][2,1;1;+]", T1, "[2,0;0;-][1,1;0;-]"),
    ("[2,-1;1;+][3,0;0;-]", T2, "[3,-1;2;+][2,0;0;+]"),
    ("[2,-1;1;+][5,0;0;-]", T2, "[5,-1;3;-][2,0;0;+]"),
    ("[2,0;1;+][3,2;0;-]", T3, "[3,0;1;+][2,2;0;+]"),
    ("[2,1;0;+][3,2;1;+]", T3, "[3,1;0;+][2,2;0;+]"),
]


class TestRowExchange:
    @pytest.mark.parametrize("text, out", EXCHANGE_GOLDENS)
    def test_each_branch_golden(self, text, out):
        res = row_exchange(parse(text), 0)
        assert res.applied and render(res.out) == out

    def test_nested_flip_golden(self):
        res = row_exchange(parse("[1,-1;1;+][1,1;0;-]"), 0)
        assert res.applied
        assert render(res.out) == "[1,1;0;-][1,-1;0;-]"

    def test_identical_rows_fixed_point(self):
        ms = parse("[1,1;0;+][1,1;0;+]")
        res = row_exchange(ms, 0)
        assert res.applied
        assert res.out.rows == ms.rows

    def test_increasing_pair_not_applicable(self):
        ms = parse("[0,0;0;+][1,1;0;-]")
        res = row_exchange(ms, 0)
        assert not res.applied
        assert res.out is ms

    def test_non_nesting_wrong_order_raises(self):
        ms = multi_segment([(3, 1, 0, 1), (2, 0, 0, 1)])
        with pytest.raises(NoExchangeError):
            row_exchange(ms, 0)

    def test_bad_position(self):
        with pytest.raises(SegmentError):
            row_exchange(parse("[1,0;0;+]"), 3)

    def test_involution_on_strictly_nested(self, rng):
        checked = 0
        while checked < 300:
            outer, inner = rand_nested_pair(rng)
            if (outer.A, outer.B) == (inner.A, inner.B):
                continue
            ms = MultiSegment((outer, inner), "relaxed")
            once = row_exchange(ms, 0)
            if not once.applied:
                continue
            twice = row_exchange(once.out, 0)
            assert twice.applied and twice.out.rows == ms.rows
            checked += 1

    def test_identical_hats_fixed_point(self):
        ms = parse("[1,-1;1;+][1,-1;1;+]")
        res = row_exchange(ms, 0)
        assert res.applied and res.out.rows == ms.rows

    def test_preserves_arthur_parameter(self, rng):
        for _ in range(300):
            ms = rand_sorted_ms(rng)
            k = rng.randrange(max(len(ms.rows) - 1, 1))
            if k >= len(ms.rows) - 1:
                continue
            try:
                res = row_exchange(ms, k)
            except NoExchangeError:
                continue
            if res.applied:
                assert (sorted((r.a, r.b) for r in res.out.rows)
                        == sorted((r.a, r.b) for r in ms.rows))


class TestUnionIntersection:
    @pytest.mark.parametrize("text, tag, out", UI_GOLDENS)
    def test_each_branch_golden(self, text, tag, out):
        res = ui(parse(text), 0)
        assert res.applied and res.type_tag == tag
        assert render(res.out) == out

    def test_type3prime_merges_circle_rows(self):
        res = ui(parse("[0,0;0;+][1,1;0;-]"), 0)
        assert res.applied and res.type_tag == T3PRIME
        assert render(res.out) == "[1,0;0;+]"

    def test_not_applicable_same_ends(self):
        assert not ui(parse("[0,0;0;+][1,1;0;+]"), 0).applied

    def test_not_applicable_nested(self):
        assert not ui(parse("[2,-1;0;+][1,0;0;-]"), 0).applied

    def test_type1(self):
        ms = multi_segment([(1, 0, 0, -1), (2, 1, 1, 1)])
        assert ui_type(ms, 0) == T1
        res = ui(ms, 0)
        assert res.applied
        assert res.out.rows[0].A == 2 and res.out.rows[0].B == 0
        assert res.out.rows[1].A == 1 and res.out.rows[1].B == 1

    def test_relaxed_pair_with_empty_intersection_not_applicable(self):
        ms = parse("[2,2;-1;-][4,3;-2;-]", RELAXED)
        assert ui_type(ms, 0) is None
        res = ui(ms, 0)
        assert not res.applied and res.out is ms

    def test_applied_outputs_are_valid_rows(self, rng):
        """On strict and relaxed inputs, every applied ui builds rows that
        make_row accepts in the output's mode."""
        applied = {STRICT: 0, RELAXED: 0}
        for i in range(3000):
            ms = rand_mode_ms(rng, (STRICT, RELAXED)[i % 2])
            for k in range(len(ms.rows) - 1):
                res = ui(ms, k)
                if res.applied:
                    applied[ms.mode] += 1
                    out = res.out
                    assert all(make_row(*r, mode=out.mode) == r
                               for r in out.rows), (render(ms), k)
        assert min(applied.values()) > 50

    def test_supports_cross_after_merge(self, rng):
        for _ in range(300):
            ms = rand_sorted_ms(rng)
            for k in range(len(ms.rows) - 1):
                res = ui(ms, k)
                if not res.applied or res.type_tag == T3PRIME:
                    continue
                r1, r2 = ms.rows[k], ms.rows[k + 1]
                n1, n2 = res.out.rows[k], res.out.rows[k + 1]
                assert (n1.A, n1.B) == (r2.A, r1.B)
                assert (n2.A, n2.B) == (r1.A, r2.B)


class TestDual:
    def test_golden_pair(self):
        assert render(dual(parse("[0,0;0;+][1,1;0;-]"))) == "[1,-1;1;+][0,0;0;-]"

    def test_single_circle_self_dual(self):
        ms = parse("[0,0;0;+]")
        assert dual(ms).rows == ms.rows

    def test_requires_sorted_order(self):
        with pytest.raises(OrderError):
            dual(multi_segment([(2, 1, 0, 1), (1, 0, 0, 1)]))

    def test_involution(self, rng):
        for _ in range(300):
            ms = rand_sorted_ms(rng, require_star=True)
            assert dual(dual(ms)).rows == ms.rows

    def test_sign_law(self, rng):
        total = 0
        for _ in range(300):
            ms = rand_sorted_ms(rng, require_star=True)
            C = sum(r.circles for r in ms.rows)
            d = dual(ms)
            n = len(ms.rows)
            for i, r in enumerate(ms.rows):
                image = d.rows[n - 1 - i]
                assert image.circles == r.circles
                if r.circles > 0:
                    assert image.eta == (-1) ** (C - r.circles) * r.eta
                    total += 1
        assert total > 100


class TestSort:
    def test_already_sorted(self):
        ms = parse("[0,0;0;+][1,1;0;-]")
        assert to_sorted(ms).rows == ms.rows

    def test_sorts_nested_pair(self):
        ms = multi_segment([(2, -1, 1, 1), (1, 0, 0, 1)])
        out = to_sorted(ms)
        assert [r.B for r in out.rows] == [-1, 0]
        assert sorted((r.a, r.b) for r in out.rows) == sorted(
            (r.a, r.b) for r in ms.rows)


class TestSplit:
    def test_split_is_ui_inverse(self):
        merged = parse("[1,0;0;+]")
        split = split_circles(merged, 0, 0)
        assert render(split) == "[0,0;0;+][1,1;0;-]"
        back = ui(split, 0)
        assert back.applied and back.out.rows == merged.rows

    def test_split_sign_alternation(self):
        split = split_circles(parse("[3,0;0;+]"), 0, 1)
        assert render(split) == "[1,0;0;+][3,2;0;+]"

    def test_rejects_triangles(self):
        with pytest.raises(SegmentError):
            split_circles(parse("[2,0;1;+]"), 0, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(SegmentError):
            split_circles(parse("[1,0;0;+]"), 0, 1)

    def test_mode_is_read_off_the_rows(self):
        """Like every operator, split_circles tags its result strict
        exactly when every row is strict, whatever the input's tag: a
        relaxed symbol of strict rows splits into a strict one, which ui
        merges back, and a symbol with a non-strict row stays relaxed.
        Checked also on every split of 3000 relaxed rand_mode_ms draws."""
        split = split_circles(parse("[2,0;0;+]", RELAXED), 0, 0)
        assert (render(split), split.mode) == ("[0,0;0;+][2,1;0;-]", STRICT)
        assert ui(split, 0).out == parse("[2,0;0;+]")
        kept = split_circles(parse("[2,0;0;+][3,3;-1;+]", RELAXED), 0, 0)
        assert kept.mode == RELAXED
        rng = random.Random(52)
        modes = Counter()
        for _ in range(3000):
            ms = rand_mode_ms(rng, RELAXED)
            for k, r in enumerate(ms.rows):
                for X in range(abs(r.B), r.A) if r.l == 0 else ():
                    try:
                        out = split_circles(ms, k, X)
                    except OrderError:
                        continue
                    strict = all(map(row_is_strict, out.rows))
                    assert out.mode == (STRICT if strict else RELAXED)
                    modes[out.mode] += 1
        assert min(modes[STRICT], modes[RELAXED]) >= 100, modes


class TestRowPositions:
    """split_circles raises SegmentError for a row position outside
    0 <= k < len(rows), as row_exchange does.  A negative position used to
    read a row from the end, and one past the rows raised IndexError."""

    def test_split_reads_no_row_from_the_end(self):
        ms = parse("[0,0;0;+][3,1;0;-]")
        assert render(split_circles(ms, 1, 2)) == "[0,0;0;+][2,1;0;-][3,3;0;-]"
        for k in (-1, -2, 2, 5):
            with pytest.raises(SegmentError,
                               match="^no row at position %d$" % k):
                split_circles(ms, k, 2)


# An int with more digits than str() and repr() convert.
HUGE = 10 ** 5000


class _E(IntEnum):
    """An int subclass: no integer argument of the library takes it."""

    ONE = 1


# The sample block of the calls on a BlockTuple, and its one S-tuple and
# T-refinement with a hat.
_M, _S, _T = BlockTuple(0, (1, 3)), ((0, 1),), (((0, 0), (1, 1)),)

# The kinds of argument whose rule is the plain-int rule: a value of
# another type raises ScopeError, "... must be an integer, got ...".
_INT_KINDS = {"pair", "row", "point", "limit", "bound", "int", "sign"}

# The kinds of text argument and the types each takes: a value of another
# type raises ScopeError, "text must be a ..., got ...".
_TEXT_KINDS = {"text": (str,), "json": (str, bytes, bytearray)}


def _may_act_on(kind, value):
    """Whether a call may return on a value of this kind: a plain int (a
    sign +1 or -1), a text of a type it takes, a mode it knows, a tuple of plain ints for mults, and anything for the (S, T)
    coordinates, which the validators answer False for."""
    if kind in _INT_KINDS:
        return type(value) is int and (kind != "sign" or value in (1, -1))
    if kind in _TEXT_KINDS:
        return isinstance(value, _TEXT_KINDS[kind])
    if kind == "mode":
        return value in (STRICT, RELAXED)
    if kind == "mults":
        return type(value) is tuple and set(map(type, value)) <= {int}
    if kind == "rows":
        return isinstance(value, (tuple, list)) and all(
            isinstance(r, (tuple, list)) and len(r) == 4
            and set(map(type, r)) <= {int} for r in value)
    return kind == "coords"


def _plain_rows(result):
    """The rows of a MultiSegment or Row result hold plain ints only."""
    rows = ((result,) if isinstance(result, Row)
            else getattr(result, "rows", ()))
    return all(type(r) is Row and set(map(type, r)) <= {int} for r in rows)


class TestLibraryBoundaryFuzz:
    """Every integer, sign, row, text and mode argument of the
    public callables of emseg (and of ui_type, dual_ui_dual and
    iter_grid), drawn valid or wrong: each call returns, or raises a
    SegmentError with a message, and no argument that breaks its rule is
    ever acted on."""

    # Valid states on which each operator below applies at some position.
    SEEDS = ("[0,0;0;+][1,1;0;-][1,1;0;-]", "[2,-2;2;+][1,-1;1;-]",
             "[1,-1;1;-][0,0;0;+]", "[2,-1;1;-][0,0;0;-]", "[3,0;0;+]",
             "[1,-1;1;+][0,0;0;-]", "[0,0;0;+][3,1;0;-]")

    # Wrong arguments: wrong-typed, negative or past every symbol.  repr()
    # refuses HUGE, its negative and the list that holds it.
    WRONG = (True, False, 0.0, 1.5, float("nan"), -1, -4, 10 ** 30,
             HUGE, -HUGE, "0", "1", None, [0], [1, 2], [HUGE], _E.ONE)

    # Wrong rows arguments: not iterable, rows of another shape, entries
    # that are no plain int, and a bad row after a good one.
    WRONG_ROWS = (None, 5, "1001", [None], [5], ["1001"], [(1, 0, 0)],
                  [(1, 0, 0, 1, 0)], [{"A": 1, "B": 0, "l": 0, "eta": 1}],
                  [(1, 0, 0, True)], [(1.0, 0, 0, 1)], [(_E.ONE, 0, 0, 1)],
                  [[1, 0, 0, _E.ONE]], [(HUGE, 0, 0, 1.0)],
                  [(0, 0, 0, 1), (1, 0, 0, None)], [(1, 0, 0, 1), [1, 0, 0]])

    # Each call and the kinds of its arguments after the symbol.
    CALLS = {
        "MultiSegment": (lambda ms, rows, mode: MultiSegment(rows, mode),
                         ("rows", "mode")),
        "multi_segment": (lambda ms, rows, mode: multi_segment(rows, mode),
                          ("rows", "mode")),
        "make_row": (lambda ms, *args: make_row(*args),
                     ("int", "int", "int", "sign", "mode")),
        "parse": (lambda ms, text, mode: parse(text, mode), ("text", "mode")),
        "from_json": (lambda ms, text, mode: from_json(text, mode),
                      ("json", "mode")),
        "row_exchange": (row_exchange, ("pair",)),
        "ui_type": (ui_type, ("pair",)),
        "ui": (ui, ("pair",)),
        "dual_ui_dual": (dual_ui_dual, ("pair",)),
        "merge_hats": (merge_hats, ("pair",)),
        "split_circles": (split_circles, ("row", "point")),
        "BlockTuple": (lambda ms, *args: BlockTuple(*args),
                       ("int", "mults")),
        "remove_column": (remove_column, ("int",)),
        "tempered_block": (lambda ms, eta: tempered_block(_M, eta),
                           ("sign",)),
        "validate_S": (lambda ms, S: validate_S(_M, S), ("coords",)),
        "validate_T": (lambda ms, T: validate_T(_M, _S, T), ("coords",)),
        "theta2_matches_theta4": (
            lambda ms, S: theta2_matches_theta4(_M, S), ("coords",)),
        "build": (lambda ms, eta: build(_M, _S, _T, eta), ("sign",)),
        "theta_family": (lambda ms, eta: theta_family(_M, _S, _T, eta),
                         ("sign",)),
        "count_block_enumerative": (
            lambda ms, eta: count_block_enumerative(_M, eta), ("sign",)),
        "closure": (closure, ("limit", "limit")),
        "are_equivalent": (lambda ms, *limits: are_equivalent(ms, ms, *limits),
                           ("limit", "limit")),
        "count_block_closure": (
            lambda ms, eta, states, depth: count_block_closure(
                BlockTuple(0, (1, 3, 1)), eta, max_states=states,
                max_depth=depth),
            ("sign", "limit", "limit")),
        # A grid of huge bounds is endless, so only its start is taken.
        "iter_grid": (lambda ms, *bounds: list(islice(iter_grid(*bounds), 40)),
                      ("bound",) * 4),
    }

    # The public callables of emseg that take none of these arguments,
    # each with the reason.
    OUT_OF_SCOPE = {
        # Only multi-segments or block-tuples, which are duck-typed, or a
        # parts list of multi-segments.
        "arthur_parameter": "a MultiSegment",
        "validate": "a MultiSegment",
        "check_star": "a MultiSegment",
        "group_sign": "a MultiSegment",
        "render": "a MultiSegment",
        "to_json": "a MultiSegment",
        "dual": "a MultiSegment",
        "to_sorted": "a MultiSegment",
        "block_decompose": "a MultiSegment",
        "block_tuple": "a MultiSegment",
        "is_tempered": "a MultiSegment",
        "classify_boundary": "two MultiSegments",
        "count_tempered": "a MultiSegment",
        "count_multi": "MultiSegments",
        "theta1": "a MultiSegment",
        "canonical": "a MultiSegment",
        "count_block_recursive": "a BlockTuple",
        "enumerate_S": "a BlockTuple",
        "enumerate_ST": "a BlockTuple",
        "render_grid": "a MultiSegment and a bool flag",
        # Value and result records: the constructors check rows, and the
        # library builds the records.
        "Row": "the unchecked value type of a row",
        "OpResult": "a result record",
        "Boundary": "a result record",
        "PacketCount": "a result record",
        "ClosureReport": "a result record",
    }

    # Valid texts of each text kind: the seeds and a malformed DSL text,
    # and for JSON their wire format as a str, bytes and bytearray.
    TEXTS = SEEDS + ("[0,0;0;+][oops",)
    JSON_TEXTS = tuple(to_json(parse(t)) for t in SEEDS) + ('{"rows": 5}',)
    JSON_TEXTS += tuple(t.encode() for t in JSON_TEXTS) + (
        bytearray(JSON_TEXTS[0].encode()),)

    @classmethod
    def _valid(cls, kind, n):
        """The valid arguments of a kind on a symbol of n rows."""
        if kind == "pair":
            return st.integers(0, n - 2) if n > 1 else st.nothing()
        entry = st.integers(-2, 4)
        return {"row": st.integers(0, n - 1), "point": st.integers(-1, 4),
                "limit": st.integers(0, 6),
                "bound": st.integers(0, 4), "int": entry,
                "sign": st.sampled_from((1, -1)),
                "mode": st.sampled_from((STRICT, RELAXED)),
                "mults": st.lists(st.integers(1, 5), max_size=3).map(tuple),
                "rows": st.lists(st.tuples(entry, entry, entry, entry),
                                 max_size=4),
                "coords": st.sampled_from((_S, _T, ((0, 0), (1, 1)))),
                "text": st.sampled_from(cls.TEXTS),
                "json": st.sampled_from(cls.JSON_TEXTS)}[kind]

    def _wrong(self, kind):
        """The wrong arguments of a kind."""
        if kind == "rows":
            return st.sampled_from(self.WRONG_ROWS)
        if kind == "mults":
            return st.sampled_from(self.WRONG).map(lambda v: (v,))
        extra = {"mode": ("loose", "STRICT", ""),
                 "sign": (0, 2), "text": (b"[0,0;0;+]", ["[0,0;0;+]"]),
                 "json": (["{}"], memoryview(b"{}"))}.get(kind, ())
        return st.sampled_from(self.WRONG + extra)

    def test_every_public_callable_is_fuzzed_or_out_of_scope(self):
        public = {name for name in dir(emseg) if not name.startswith("_")
                  and callable(value := getattr(emseg, name))
                  and not (isinstance(value, type)
                           and issubclass(value, Exception))}
        assert not set(self.CALLS) & set(self.OUT_OF_SCOPE)
        assert public <= set(self.CALLS) | set(self.OUT_OF_SCOPE)
        assert set(self.OUT_OF_SCOPE) <= public

    @pytest.mark.parametrize("name", sorted(CALLS))
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_returns_or_raises_a_segment_error(self, name, data):
        call, kinds = self.CALLS[name]
        ms = parse(data.draw(st.sampled_from(self.SEEDS), "symbol"))
        drawn = [data.draw(st.one_of(
            self._valid(kind, len(ms)).map(lambda v: (v, True)),
            self._wrong(kind).map(lambda v: (v, False))), kind)
            for kind in kinds]
        args = [v for v, _ in drawn]
        refused = [(kind, v) for kind, v in zip(kinds, args)
                   if not _may_act_on(kind, v)]
        try:
            result = call(ms, *args)
        except SegmentError as e:
            assert str(e)
            wrong = [(kind, v) for kind, (v, valid) in zip(kinds, drawn)
                     if not valid]
            if len(wrong) == 1:
                kind, value = wrong[0]
                if kind in _INT_KINDS and type(value) is not int:
                    assert type(e) is ScopeError, (name, args, e)
                    shown = "<list>" if value == [HUGE] else repr(value)
                    assert str(e).endswith("must be an integer, got " + shown)
                if kind in _TEXT_KINDS and not _may_act_on(kind, value):
                    assert type(e) is ScopeError, (name, args, e)
                    assert str(e).startswith("text must be a str"), e
            return
        assert not refused, (name, render(ms), args)
        assert _plain_rows(result), (name, args, result)

    @pytest.mark.parametrize("call, args", [
        (row_exchange, (10 ** 5000,)), (ui, (10 ** 5000,)),
        (split_circles, (0, 10 ** 5000)), (closure, (-10 ** 5000,)),
    ])
    def test_huge_integers_raise_a_segment_error(self, call, args):
        """An int past the digits str() converts is shown by its size, so
        the call raises its SegmentError, not str()'s ValueError."""
        with pytest.raises(SegmentError, match="16610-bit integer"):
            call(parse("[3,0;0;+][1,1;0;-]"), *args)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: make_row(HUGE, HUGE + 1, 0, 1), SegmentError,
         "need A >= B, got [<16610-bit integer>,<16610-bit integer>]"),
        (lambda: count_block_recursive(BlockTuple(0, (2 * HUGE,))),
         SegmentError, "a block has odd multiplicities, got <16611-bit "
                       "integer> at column 0"),
        (lambda: BlockTuple(0, [HUGE]), ScopeError,
         "mults must be a tuple of integers, got <list>"),
        (lambda: build(BlockTuple(HUGE, (1,)), ((0, 0),)), SegmentError,
         "invalid S-tuple for <BlockTuple>"),
        (lambda: build(BlockTuple(0, (1,)), ((0, 0),), None, HUGE),
         SegmentError, "eta must be +1 or -1, got <16610-bit integer>"),
        (lambda: MultiSegment(((0, 0, 0, 1),), HUGE), SegmentError,
         "unknown mode <16610-bit integer>"),
        (lambda: parse("[0,0;0;+]", HUGE), SegmentError,
         "unknown mode <16610-bit integer>"),
        (lambda: tempered_block(BlockTuple(0, (1,)), HUGE), SegmentError,
         "eta must be +1 or -1, got <16610-bit integer>"),
        (lambda: row_exchange(parse("[3,0;0;+][1,1;0;-]"), [HUGE]),
         ScopeError, "a row position must be an integer, got <list>"),
        (lambda: closure(parse("[3,0;0;+]"), max_states=[HUGE]), ScopeError,
         "max_states must be an integer, got <list>"),
        (lambda: closure(parse("[3,0;0;+]"), -HUGE), SegmentError,
         "max_states must be at least 0, got <-16610-bit integer>"),
    ])
    def test_values_holding_huge_integers_are_shown(self, call, error,
                                                    message):
        """Every library message shows a huge int by its size, and a value
        that holds one by its type, so each of these calls raises its
        documented error with that message, not repr()'s ValueError."""
        with pytest.raises(SegmentError) as caught:
            call()
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("bounds, error", [
        ({"max_len": 1.5}, ScopeError), ({"max_len": True}, ScopeError),
        ({"max_rows": 2.5}, ScopeError), ({"max_mult": "5"}, ScopeError),
        ({"max_cmin": -1}, SegmentError),
        ({"max_rows": -10 ** 5000}, SegmentError),
    ])
    def test_grid_bounds_are_checked(self, bounds, error):
        """Each grid bound is a plain int of at least 0; the first bad one
        raises before iter_grid yields any instance."""
        name = next(iter(bounds))
        with pytest.raises(error, match=name) as caught:
            next(iter_grid(**bounds))
        assert type(caught.value) is error


def merge_condition(r1, r2):
    """Two consecutive hats can merge iff the upper support abuts the lower
    triangle block (A_2 = B_1 - 1) and the signs alternate."""
    return (r1.is_hat and r2.is_hat and r2.A == r1.l - 1
            and r2.eta == (-1) ** r1.circles * r1.eta)


def merged_rows(rows, k):
    """The closed form of a merge: the hats at k, k+1 replaced by
    ([A_1, -B_2], B_2, eta_1), as (rows, mode)."""
    r1, r2 = rows[k], rows[k + 1]
    out = (rows[:k] + (weak_normalize(Row(r1.A, -r2.l, r2.l, r1.eta)),)
           + rows[k + 2:])
    return out, STRICT if all(map(row_is_strict, out)) else RELAXED


class TestMergeHats:
    def test_golden(self):
        ms = parse("[2,-2;2;+][1,-1;1;-]")
        res = merge_hats(ms, 0)
        assert res.applied
        assert render(res.out) == "[2,-1;1;+]"

    def test_condition_requires_abutment(self):
        """[3,-3;3;+][1,-1;1;-] are two hats, but the upper support ends
        at 1, not at B_1 - 1 = 2, so they do not merge; nor do
        [2,-1;1;+][1,-1;1;-], which would need A_2 = 0."""
        assert not merge_hats(parse("[3,-3;3;+][1,-1;1;-]"), 0).applied
        assert not merge_hats(parse("[2,-1;1;+][1,-1;1;-]"), 0).applied

    def test_condition_requires_two_hats(self):
        """[2,-2;2;+][1,-1;1;-] merges; with its second row no hat, the
        merge raises before the abutment is read."""
        assert merge_hats(parse("[2,-2;2;+][1,-1;1;-]"), 0).applied
        with pytest.raises(SegmentError, match="merge requires two hats"):
            merge_hats(parse("[2,-2;2;+][1,1;0;-]"), 0)

    def test_not_applicable_same_signs(self):
        ms = parse("[2,-2;2;+][1,-1;1;+]")
        assert not merge_hats(ms, 0).applied

    def test_requires_hats(self):
        with pytest.raises(SegmentError):
            merge_hats(parse("[1,0;0;+][2,2;0;-]"), 0)

    @staticmethod
    def _hat_pairs(rng):
        """Sorted symbols of two to four rows in either mode, each with a
        pair of hats at some k, as (symbol, k): half the pairs are built to
        meet merge_condition."""
        while True:
            mode = rng.choice((STRICT, RELAXED))
            lo = 0 if mode == STRICT else -3
            l1 = rng.randint(max(lo, 1), 5)
            A1 = rng.randint(l1, l1 + 3)
            r1 = Row(A1, -l1, l1, rng.choice((1, -1)))
            if rng.random() < 0.5:
                l2 = rng.randint(lo, l1 - 1)
                r2 = Row(l1 - 1, -l2, l2, (-1) ** r1.circles * r1.eta)
            else:
                l2 = rng.randint(lo, 5)
                r2 = Row(rng.randint(max(l2, -l2), max(l2, -l2) + 3), -l2, l2,
                         rng.choice((1, -1)))
            rows = [r1, r2] + [rand_row(rng) for _ in range(rng.randint(0, 2))]
            rows.sort(key=lambda r: (r.B, r.A))
            try:
                ms = multi_segment([tuple(r) for r in rows], mode)
            except SegmentError:
                continue
            hats = [k for k in range(len(rows) - 1)
                    if ms.rows[k].is_hat and ms.rows[k + 1].is_hat]
            if hats:
                return ms, rng.choice(hats)

    def test_closed_form_is_the_dual_ui_dual_composite(self):
        """merge_hats, the composite dual . ui . dual at the pair's image
        in the dual, gives the closed form merged_rows, in rows and mode,
        tagged T3', wherever merge_condition holds, and the input
        unapplied elsewhere: on every hat pair of the closure states of
        the grid's lifts, and on random symbols of either mode."""
        rng = random.Random(20261020)
        start = time.perf_counter()
        inputs = []
        for M in iter_grid(max_len=4):
            if M.c_min == 0:
                report = closure(theta1(tempered_block(M, 1)))
                for key in report.nodes:
                    ms = parse(key.decode())
                    inputs += [(ms, k) for k in range(len(ms.rows) - 1)
                               if ms.rows[k].is_hat and ms.rows[k + 1].is_hat]
        inputs += [self._hat_pairs(rng) for _ in range(3000)]
        merged = 0
        for ms, k in inputs:
            try:
                got = merge_hats(ms, k)
            except OrderError:
                continue
            if merge_condition(ms.rows[k], ms.rows[k + 1]):
                assert (got.out.rows, got.out.mode, got.applied, got.type_tag) \
                    == (*merged_rows(ms.rows, k), True, T3PRIME), render(ms)
                merged += 1
            else:
                assert got == OpResult(ms, False)
        assert merged == 3033
        assert time.perf_counter() - start < 2.0


class TestComposites:
    def test_unfold_then_merge_golden(self):
        """The dual unfolds the hat of theta1 of the one-column member
        into a circles row, and the type-3' ui merges it: the result is
        the family's theta2."""
        ms = parse("[1,-1;1;-][0,0;0;+]")
        res = dual_ui_dual(ms, 0)
        assert res.applied and res.type_tag == T3PRIME
        assert render(res.out) == "[1,0;0;-]"
        family = dict(theta_family(BlockTuple(0, (1,)), ((0, 0),)))
        assert (family["theta1"], family["theta2"]) == (ms, res.out)

    def test_separate_splits_last_circles(self):
        ms = parse("[2,0;0;+]")
        assert render(split_circles(ms, 0, 1)) == "[1,0;0;+][2,2;0;+]"

    def test_unhook_from_hat(self):
        """theta3 unhooks one circle from theta2's merged hat into a row of
        the new top column."""
        family = dict(theta_family(BlockTuple(0, (1, 1)), ((0, 1),),
                                   (((0, 0), (1, 1)),)))
        assert render(family["theta2"]) == "[2,-1;1;-][0,0;0;-]"
        assert arthur_parameter(family["theta3"]) == ((1, 1), (1, 3), (5, 1))

    def test_dual_ui_dual_round(self):
        ms = parse("[1,-1;1;+][0,0;0;-]")
        res = dual_ui_dual(ms, 0)
        assert res.applied and res.type_tag == T3PRIME
        assert render(res.out) == "[1,0;0;+]"

    def test_dual_ui_dual_where_the_ui_of_the_dual_does_not_apply(self):
        """The dual of [0,0;0;+][1,1;0;+] has no ui at 0, so the input
        comes back unapplied."""
        ms = parse("[0,0;0;+][1,1;0;+]")
        assert ui_type(dual(ms), 0) is None
        assert dual_ui_dual(ms, 0) == OpResult(ms, False)

    def test_ui_keeps_the_B_order_of_a_sorted_dual(self, rng):
        """Every applied ui keeps the B of its input in order, the union
        taking B_1 and the intersection B_2, which T3' drops: on the duals
        of sorted symbols of either mode, and of hat pairs, whose duals
        hold the T3' pairs a merge takes.  So the ui of a sorted dual is
        sorted, and dual_ui_dual dualizes it back with no row exchange."""
        inputs = [rand_mode_ms(rng, (STRICT, RELAXED)[i % 2])
                  for i in range(5000)]
        inputs += [TestMergeHats._hat_pairs(rng)[0] for _ in range(1000)]
        applied = Counter()
        for ms in inputs:
            d = dual(ms)
            Bs = [r.B for r in d.rows]
            for k in range(len(Bs) - 1):
                res = ui(d, k)
                if not res.applied:
                    continue
                want = (Bs[:k + 1] + Bs[k + 2:] if res.type_tag == T3PRIME
                        else Bs)
                assert [r.B for r in res.out.rows] == want, (render(d), k)
                applied[d.mode, res.type_tag] += 1
        assert set(applied) == {(mode, tag) for mode in (STRICT, RELAXED)
                                for tag in (T1, T2, T3, T3PRIME)}, applied
        assert min(applied.values()) >= 10, applied

    def test_ui_first_pair_of_three_rows(self):
        ms = parse("[0,0;0;+][1,1;0;-][1,1;0;-]")
        res = ui(ms, 0)
        assert res.applied and res.type_tag == T3PRIME
        assert render(res.out) == "[1,0;0;+][1,1;0;-]"


def _rand_hat(rng):
    l = rng.randint(1, 4)
    return make_row(rng.randint(l, l + 4), -l, l, rng.choice([1, -1]))


def _rand_circles_row(rng):
    B = rng.randint(-2, 4)
    A = rng.randint(abs(B), abs(B) + 4)
    return make_row(A, B, 0, rng.choice([1, -1]))


def test_braid_relation_sample(rng):
    checked = 0
    while checked < 200:
        inner = rand_row(rng)
        A2 = inner.A + rng.randint(0, 2)
        B2 = inner.B - rng.randint(0, 2)
        A1 = A2 + rng.randint(0, 2)
        B1 = B2 - rng.randint(0, 2)
        if A1 + B1 < 0 or A2 + B2 < 0:
            continue
        mid = make_row(A2, B2, rng.randint(0, (A2 - B2 + 1) // 2),
                       rng.choice([1, -1]))
        outer = make_row(A1, B1, rng.randint(0, (A1 - B1 + 1) // 2),
                         rng.choice([1, -1]))
        ms = MultiSegment((outer, mid, inner), "relaxed")
        lhs = rhs = ms
        ok = True
        for k in (0, 1, 0):
            r = row_exchange(lhs, k)
            ok = ok and r.applied
            lhs = r.out
        for k in (1, 0, 1):
            r = row_exchange(rhs, k)
            ok = ok and r.applied
            rhs = r.out
        if not ok:
            continue
        assert lhs.rows == rhs.rows
        checked += 1


def _operator_outputs(ms):
    """(operator, result) for every applied result the operators, theta1
    and remove_column give on ms."""
    calls = list(_operator_calls(ms))
    calls += [(ui, (k,)) for k in range(len(ms.rows) - 1)]
    calls += [(theta1, ())]
    calls += [(remove_column, (r.B,)) for r in ms.rows if r.A == r.B]
    outs = []
    for op, args in calls:
        try:
            res = op(ms, *args)
        except SegmentError:
            continue
        if isinstance(res, OpResult):
            if not res.applied:
                continue
            res = res.out
        outs.append((op, res))
    return outs


def test_results_equal_checked_construction(rng):
    """Operators check no row their cores build; what they return must be
    exactly what the public constructor builds from the same rows, in
    Rows of plain ints, on strict and relaxed inputs, sorted or not, and
    on the members of the lift family."""
    states = []
    for i in range(120):
        ms = rand_sorted_ms(rng, require_star=True)
        states += [ms] + neighbors(ms)
        states.append(rand_mode_ms(rng, (STRICT, RELAXED)[i % 2],
                                   sort=i % 4 < 2))
    for M in (BlockTuple(0, (1, 3, 1)), BlockTuple(0, (3, 1, 3))):
        for S, T in iter_ST(M):
            states += [out for _, out in theta_family(M, S, T)]
    applied = Counter()
    for state in states:
        outs = _operator_outputs(state)
        outs += [(neighbors, out) for out in neighbors(state)]
        for op, out in outs:
            assert all(type(r) is Row and set(map(type, r)) == {int}
                       for r in out.rows), (op.__name__, render(state))
            assert out == MultiSegment(out.rows, out.mode), (
                op.__name__, render(state))
            applied[op] += 1
    assert set(applied) == set(DOCUMENTED) | {ui, theta1, remove_column,
                                              neighbors}
    assert min(applied.values()) >= 50, applied


NON_NESTING = (NoExchangeError, r"rows \d+,\d+ have non-nesting supports")
# The errors each operator documents, as (exact type, message pattern).
DOCUMENTED = {
    row_exchange: [NON_NESTING, (SegmentError, "no adjacent pair")],
    dual: [(OrderError, "dual requires")],
    to_sorted: [NON_NESTING],
    split_circles: [(SegmentError, "split (requires|point)"),
                    (OrderError, "split at")],
    dual_ui_dual: [(OrderError, "dual requires")],
    merge_hats: [(SegmentError, "merge requires two hats"),
                 (OrderError, r"merge requires \(P'\)")],
}


def _operator_calls(ms):
    """(operator, arguments) for every position each operator takes."""
    n = len(ms.rows)
    yield to_sorted, ()
    yield dual, ()
    for k in range(n - 1):
        yield row_exchange, (k,)
        yield dual_ui_dual, (k,)
        yield merge_hats, (k,)
    for k, r in enumerate(ms.rows):
        for X in range(r.B - 1, r.A + 1):
            yield split_circles, (k, X)


def test_operators_never_build_invalid_rows(rng):
    """On random strict and relaxed inputs, sorted or not, every operator
    answers applied=False, raises an error it documents, or returns rows
    that make_row accepts in the output's mode."""
    start = time.perf_counter()
    makers = (rand_row, _rand_hat, _rand_circles_row)
    applied = Counter()
    for i in range(1500):
        if i % 3 == 0:
            # A hat, a circles row ending one short of its triangle reach,
            # and more rows.
            hat = _rand_hat(rng)
            A = hat.l - 1
            rows = [hat, make_row(A, rng.randint(-A, A), 0, rng.choice((1, -1)))]
            rows += [rng.choice(makers)(rng) for _ in range(rng.randint(0, 2))]
            ms = MultiSegment(tuple(sorted(rows, key=lambda r: (r.B, r.A))))
        else:
            ms = rand_mode_ms(rng, (STRICT, RELAXED)[i % 2], sort=i % 4 < 2)
        for op, args in _operator_calls(ms):
            try:
                res = op(ms, *args)
            except SegmentError as e:
                assert any(type(e) is cls and re.match(pattern, str(e))
                           for cls, pattern in DOCUMENTED[op]), (
                    op.__name__, render(ms), args, str(e))
                continue
            if isinstance(res, OpResult):
                if not res.applied:
                    continue
                res = res.out
            assert all(make_row(*r, mode=res.mode) == r for r in res.rows), (
                op.__name__, render(ms), args)
            applied[op] += 1
    assert set(applied) == set(DOCUMENTED)
    assert min(applied.values()) >= 50, applied
    assert time.perf_counter() - start < 1.5
