"""Value types, parsing, rendering and derived quantities."""

import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from emseg.core import (
    RELAXED, STRICT, MultiSegment, ParseError, Row, ScopeError, SegmentError,
    _check_mode, arthur_parameter, check_star, circle_count, from_json,
    group_sign, make_row, multi_segment, parse, render, render_grid, shift,
    to_json, validate, weak_normalize,
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
            with pytest.raises(ParseError, match="eta must be an integer"):
                from_json('{"rows": [{"A": 1, "B": 0, "l": 0, "eta": %s}]}'
                          % eta)

    def test_signs_equal_to_one_are_still_rejected(self):
        """1 == True == 1.0 and they hash alike, so no constructor may
        reuse a row checked for one of them for another."""
        for eta in (True, 1.0):
            with pytest.raises(ScopeError, match="eta must be an integer"):
                multi_segment([(1, 0, 0, 1), (1, 0, 0, eta)])
            with pytest.raises(ScopeError, match="eta must be an integer"):
                MultiSegment((Row(1, 0, 0, 1), Row(1, 0, 0, eta)))
            with pytest.raises(ParseError, match="eta must be an integer"):
                from_json(json.dumps({"rows": [
                    {"A": 1, "B": 0, "l": 0, "eta": 1},
                    {"A": 1, "B": 0, "l": 0, "eta": eta}]}))


_ROW_RE = re.compile(
    r"\[\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*(-?\d+)\s*;\s*([+-])\s*\]")


def _reference_parse(text, mode=STRICT):
    """The loop parser parse replaced: one regex match and one make_row per
    row, in text order."""
    rows = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _ROW_RE.match(text, pos)
        if not m:
            raise ParseError("expected a row of the form [A,B;l;s]", pos)
        A, B, l = int(m.group(1)), int(m.group(2)), int(m.group(3))
        eta = 1 if m.group(4) == "+" else -1
        try:
            rows.append(make_row(A, B, l, eta, mode))
        except SegmentError as e:
            raise ParseError(str(e), pos) from e
        pos = m.end()
    _check_mode(mode)
    return MultiSegment._of(tuple(rows), mode)


def _outcome(parser, text, mode):
    try:
        ms = parser(text, mode)
    except SegmentError as e:
        return type(e), str(e), getattr(e, "position", None)
    return ms.rows, ms.mode


_SPACES = [" ", "\n", "\t", "\xa0", "\x1c", ""]
_NOISE = "[],;+-0123456789 x\xa0\x1c\u0663"


def _random_item(rng):
    def ws():
        return rng.choice(_SPACES) if rng.random() < 0.3 else ""
    B = rng.randint(-4, 6)
    A, l = B + rng.randint(-1, 6), rng.randint(-1, 4)
    return "%s[%s%d%s,%s%d%s;%s%d%s;%s%s%s]" % (
        ws(), ws(), A, ws(), ws(), B, ws(), ws(), l, ws(), ws(),
        rng.choice("+-"), ws())


def _random_text(rng):
    """Items drawn from a small pool, so they repeat, then a few edits."""
    pool = [_random_item(rng) for _ in range(rng.randint(1, 4))]
    text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 8)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        k = rng.randint(0, len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:k] + rng.choice(_NOISE) + text[k:]
        elif edit == 1:
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + text[k:].replace("]", "", 1)
    if rng.random() < 0.2:
        text += rng.choice(_SPACES)
    if rng.random() < 0.1:
        text += text[:rng.randint(0, len(text))]
    return text


class TestParseAgainstReference:
    MODES = (STRICT, RELAXED, "loose")

    def test_random_and_mutated_texts(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(3000):
            text = _random_text(rng)
            for mode in self.MODES:
                expected = _outcome(_reference_parse, text, mode)
                assert _outcome(parse, text, mode) == expected, (text, mode)
                kinds.add(expected[0] if len(expected) == 3 else "rows")
        assert kinds == {"rows", ParseError, SegmentError}

    @pytest.mark.parametrize("text", [
        "",
        " \n\xa0\x1c",
        "[1,0;0;+]" * 5,
        "[1,0;0;+] [1,0;0;+]\xa0[1,0;0;+]\x1c[2,2;0;-]",
        "[ 1 , 0 ; 0 ; + ]\n[1,0;0;+]",
        "[1,0;0;+][0,1;0;+][0,1;0;+]",
        "[1,0;0;+][1,0;2;-][1,0;0;+][1,0;2;-]",
        "[1,0;0;+]x[1,0;0;+]",
        "[1,0;0;+][1,0;0;+",
        "[1,0;0;+]]",
        "[\u0663,1;0;-]",
    ])
    @pytest.mark.parametrize("mode", MODES)
    def test_fixed_texts(self, text, mode):
        assert _outcome(parse, text, mode) == _outcome(
            _reference_parse, text, mode)

    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_repeated_unterminated_tail(self, mode):
        """The tail equals an earlier item but has no "]": it is reported
        at its own position, not at its twin's."""
        with pytest.raises(ParseError) as exc:
            parse("[5,4;0;-]\n[4,0;1;-]\n[4,0;1;-", mode)
        assert exc.value.position == 20

    def test_unknown_mode_is_checked_after_the_rows(self):
        with pytest.raises(ParseError):
            parse("[1,0;2;+]x", "loose")
        with pytest.raises(SegmentError, match="unknown mode"):
            parse("[1,0;2;+]", "loose")


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
