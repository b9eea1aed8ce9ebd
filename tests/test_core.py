"""Value types, parsing, rendering and derived quantities."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from emseg.core import (
    MultiSegment, ParseError, Row, ScopeError, SegmentError, arthur_parameter,
    check_star, circle_count, from_json, group_sign, make_row, multi_segment,
    parse, render, render_grid, shift, to_json, validate, weak_normalize,
)

THREE_ROW = "[4,-1;2;+][3,2;1;+][4,4;0;-]"


class TestRow:
    def test_derived_quantities(self):
        r = Row(4, -1, 2, 1)
        assert r.a == 4 and r.b == 6 and r.circles == 2

    def test_hat_detection(self):
        assert Row(3, -2, 2, 1).is_hat
        assert not Row(3, -1, 2, 1).is_hat

    def test_weak_normalize_sets_plus(self):
        assert weak_normalize(Row(1, 0, 1, -1)).eta == 1
        assert weak_normalize(Row(1, 0, 0, -1)).eta == -1


class TestMakeRow:
    def test_rejects_non_integer(self):
        with pytest.raises(ScopeError):
            make_row(1.5, 0, 0, 1)
        with pytest.raises(ScopeError):
            make_row(True, 0, 0, 1)
        for eta in (True, 1.0, -1.0):
            with pytest.raises(ScopeError, match="eta must be an integer"):
                make_row(1, 0, 0, eta)

    def test_rejects_reversed_support(self):
        with pytest.raises(SegmentError):
            make_row(0, 1, 0, 1)

    def test_rejects_negative_center(self):
        with pytest.raises(SegmentError):
            make_row(1, -3, 0, 1)

    def test_strict_triangle_bound(self):
        with pytest.raises(SegmentError):
            make_row(1, 0, 2, 1)
        assert make_row(1, 0, 2, 1, mode="relaxed").l == 2

    def test_rejects_bad_sign(self):
        with pytest.raises(SegmentError):
            make_row(1, 0, 0, 0)


class TestOrders:
    def test_sorted_order_is_admissible(self):
        ms = parse(THREE_ROW)
        assert validate(ms, "P")
        assert validate(ms, "Pprime")

    def test_nested_pair_any_order(self):
        ms = multi_segment([(1, 1, 0, 1), (2, 0, 0, 1)])
        assert validate(ms, "P")
        assert not validate(ms, "Pprime")

    def test_increasing_pair_must_stay_increasing(self):
        bad = multi_segment([(2, 1, 0, 1), (1, 0, 0, 1)])
        assert not validate(bad, "P")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            validate(parse(THREE_ROW), "Q")


class TestDerived:
    def test_arthur_parameter_golden(self):
        assert arthur_parameter(parse(THREE_ROW)) == ((4, 6), (6, 2), (9, 1))

    def test_group_sign_golden(self):
        assert group_sign(parse(THREE_ROW)) == 1

    def test_group_sign_empty(self):
        assert group_sign(parse("")) == 1

    def test_check_star(self):
        assert check_star(parse(THREE_ROW))
        assert not check_star(multi_segment([(2, -2, 1, 1)]))

    def test_circle_count(self):
        assert circle_count(parse(THREE_ROW)) == 3

    def test_shift(self):
        ms = shift(parse("[1,0;0;+]"), 2)
        assert ms.rows[0] == Row(3, 2, 0, 1)
        with pytest.raises(SegmentError):
            shift(parse("[1,0;0;+]"), -2)


class TestParseRender:
    def test_round_trip_golden(self):
        assert render(parse(THREE_ROW)) == THREE_ROW

    def test_whitespace_tolerated(self):
        assert render(parse(" [1,0;0;+]\n[2,2;0;-] ")) == "[1,0;0;+][2,2;0;-]"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("[1,0;0;+]oops")
        assert exc.value.position == 9

    def test_json_round_trip(self):
        ms = parse(THREE_ROW)
        assert from_json(to_json(ms)) == ms
        data = json.loads(to_json(ms))
        assert data["rows"][0] == {"A": 4, "B": -1, "l": 2, "eta": 1}

    def test_json_errors(self):
        with pytest.raises(ParseError):
            from_json("not json")
        for text in ('{"cols": []}', '{"rows": 5}', '{"rows": "x"}',
                     '[{"A": 1, "B": 0, "l": 0, "eta": 1}]'):
            with pytest.raises(ParseError):
                from_json(text)
        for eta in ("true", "1.0"):
            with pytest.raises(ScopeError, match="eta must be an integer"):
                from_json('{"rows": [{"A": 1, "B": 0, "l": 0, "eta": %s}]}'
                          % eta)


rows_strategy = st.builds(
    lambda B, extra, l_frac, eta: _row_from(B, extra, l_frac, eta),
    st.integers(-4, 6), st.integers(0, 6), st.floats(0, 1),
    st.sampled_from([1, -1]))


def _row_from(B, extra, l_frac, eta):
    A = max(B, -B) + extra
    b = A - B + 1
    return make_row(A, B, int(l_frac * (b // 2)), eta)


@given(st.lists(rows_strategy, min_size=0, max_size=6))
def test_parse_render_inverse(rows):
    ms = MultiSegment(tuple(sorted(rows, key=lambda r: (r.B, r.A))))
    assert parse(render(ms)) == ms
    assert from_json(to_json(ms)) == ms


class TestGrid:
    def test_ascii_grid(self):
        grid = render_grid(parse(THREE_ROW))
        lines = grid.splitlines()
        assert lines[0].split() == ["-1", "0", "1", "2", "3", "4"]
        assert lines[1].split() == ["<", "<", "+", "-", ">", ">"]
        assert lines[2].split() == ["<", ">"]
        assert lines[3].split() == ["-"]

    def test_unicode_grid(self):
        grid = render_grid(parse(THREE_ROW), unicode_symbols=True)
        assert grid.splitlines()[1].split() == ["◁", "◁", "⊕", "⊖", "▷", "▷"]

    def test_empty_grid(self):
        assert render_grid(parse("")) == "(empty)"


def test_arthur_parameter_needs_admissible_order():
    bad = multi_segment([(2, 1, 0, 1), (1, 0, 0, 1)])
    with pytest.raises(SegmentError):
        arthur_parameter(bad)
