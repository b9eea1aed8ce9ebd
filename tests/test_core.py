"""Value types, parsing, rendering and derived quantities."""

import copy
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from emseg.core import (
    RELAXED, STRICT, MultiSegment, ParseError, Row, ScopeError, SegmentError,
    _check_mode, arthur_parameter, check_star, from_json, group_sign,
    make_row, multi_segment, order_sorted, parse, render, render_grid,
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

    def test_ab_is_made_once(self):
        """ab is (a, b), worked out on the first read and the same object
        on every later one."""
        r = Row(4, -1, 2, 1)
        assert "ab" not in vars(r)
        assert r.ab == (r.a, r.b) == (4, 6)
        assert r.ab is r.ab and vars(r) == {"ab": (4, 6)}

    def test_a_row_is_its_named_tuple(self):
        """The cached pair changes nothing of the tuple a Row is: its
        fields, equality and hash with plain 4-tuples, repr, _replace,
        _make, copies and pickles, before and after ab is read."""
        assert Row._fields == ("A", "B", "l", "eta")
        for read in (False, True):
            r = Row(3, 1, 0, -1)
            if read:
                r.ab
            assert r == (3, 1, 0, -1) and (3, 1, 0, -1) == r
            assert hash(r) == hash((3, 1, 0, -1))
            assert {r: 1}[(3, 1, 0, -1)] == 1 and (3, 1, 0, -1) in {r}
            assert repr(r) == "Row(A=3, B=1, l=0, eta=-1)"
            for made in (r._replace(l=1), Row._make((3, 1, 1, -1))):
                assert type(made) is Row and made == (3, 1, 1, -1)
            copies = [copy.copy(r), copy.deepcopy(r)] + [
                pickle.loads(pickle.dumps(r, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for back in copies:
                assert type(back) is Row and back == r
                assert back.ab == (5, 3)

    def test_a_row_refuses_assignment(self):
        """A Row takes no attribute, and its pair cannot be replaced."""
        r = Row(3, 1, 0, -1)
        r.ab
        for name in ("A", "ab", "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, (0, 0))
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert r.ab == (5, 3) and vars(r) == {"ab": (5, 3)}


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

    def test_checks_the_mode_first(self):
        with pytest.raises(SegmentError, match="^unknown mode 'loose'$"):
            make_row(1, 0, 5, 1, "loose")
        with pytest.raises(SegmentError, match="^unknown mode 'loose'$"):
            make_row(1.5, 0, 0, 1, "loose")

    @pytest.mark.parametrize("rows, message", [
        (5, "rows must be iterable, got 5"),
        (None, "rows must be iterable, got None"),
        ([(1, 0, 0)], "a row must be a tuple or list of four integers, "
                      "got (1, 0, 0)"),
        ([(1, 0, 0, 1, 0)], "a row must be a tuple or list of four "
                            "integers, got (1, 0, 0, 1, 0)"),
        ([(1, 0, 0, 1), 7], "a row must be a tuple or list of four "
                            "integers, got 7"),
        (["1001"], "a row must be a tuple or list of four integers, "
                   "got '1001'"),
    ])
    def test_rows_of_the_wrong_shape(self, rows, message):
        """Rows that are not a tuple or list of four entries, and rows
        that cannot be iterated, raise ScopeError in both constructors."""
        for f in (MultiSegment, multi_segment):
            with pytest.raises(ScopeError) as caught:
                f(rows)
            assert str(caught.value) == message


class TestOrders:
    def test_sorted_order_is_admissible(self):
        ms = parse(THREE_ROW)
        assert validate(ms)
        assert order_sorted(ms.rows)

    def test_nested_pair_any_order(self):
        ms = multi_segment([(1, 1, 0, 1), (2, 0, 0, 1)])
        assert validate(ms)
        assert not order_sorted(ms.rows)

    def test_increasing_pair_must_stay_increasing(self):
        bad = multi_segment([(2, 1, 0, 1), (1, 0, 0, 1)])
        assert not validate(bad)

    def test_unknown_criterion(self):
        """validate checks (P) and takes no criterion; order_sorted is the
        (P') check."""
        with pytest.raises(TypeError):
            validate(parse(THREE_ROW), "P")


class TestDerived:
    def test_arthur_parameter_golden(self):
        assert arthur_parameter(parse(THREE_ROW)) == ((4, 6), (6, 2), (9, 1))

    def test_group_sign_golden(self):
        assert group_sign(parse(THREE_ROW)) == 1

    def test_group_sign_empty(self):
        assert group_sign(parse("")) == 1

    def test_group_sign_refuses_a_symbol(self):
        """The sign is taken in strict mode only, even of rows that are
        strict."""
        for text in ("[1,0;2;+]", THREE_ROW):
            with pytest.raises(SegmentError,
                               match="^sign undefined on symbols$"):
                group_sign(parse(text, RELAXED))

    def test_check_star(self):
        assert check_star(parse(THREE_ROW))
        assert not check_star(multi_segment([(2, -2, 1, 1)]))


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

    @pytest.mark.parametrize("digit", ["\uff11", "\u0661"])
    def test_integers_are_ascii_digits(self, digit):
        """A fullwidth or Arabic-Indic 1 would render as an ASCII 1, so
        render(parse(text)) could not give the text back."""
        for text in ("[%s,1;0;+]" % digit, "[1,1;0;+][%s,1;0;+]" % digit):
            with pytest.raises(ParseError, match="expected a row") as exc:
                parse(text)
            assert exc.value.position == text.index("[" + digit)

    def test_out_of_range_integers_are_parse_errors(self):
        """int() refuses more than sys.get_int_max_str_digits() digits; the
        DSL names the item, and JSON, which has no item positions, 0."""
        huge = "1" + "0" * 5000
        text = "[1,0;0;+] [2,0;0;+][%s,0;0;+]" % huge
        with pytest.raises(ParseError, match="integer out of range") as exc:
            parse(text)
        assert exc.value.position == text.index("[" + huge) == 19
        payload = '{"rows": [{"A": %s, "B": 0, "l": 0, "eta": 1}]}' % huge
        with pytest.raises(ParseError, match="integer out of range") as exc:
            from_json(payload)
        assert exc.value.position == 0

    @pytest.mark.parametrize("text", [5, None, b"[1,0;0;+]", ["[1,0;0;+]"]])
    def test_parse_takes_a_str(self, text):
        with pytest.raises(ScopeError) as exc:
            parse(text)
        assert str(exc.value) == "text must be a str, got %r" % (text,)

    @pytest.mark.parametrize("text", [5, None, ['{"rows": []}'],
                                      memoryview(b'{"rows": []}')])
    def test_from_json_takes_a_str_or_bytes(self, text):
        with pytest.raises(ScopeError, match="^text must be a str, bytes or "
                                             "bytearray, got "):
            from_json(text)
        payload = '{"rows": [{"A": 1, "B": 0, "l": 0, "eta": 1}]}'
        for text in (payload, payload.encode(), bytearray(payload.encode())):
            assert from_json(text) == parse("[1,0;0;+]")

    @pytest.mark.parametrize("payload, message", [
        (b"\x80", "invalid JSON: byte 0x80 is not valid utf-8 "
                   "(at position 0)"),
        (b'{"rows": [\xff]}', "invalid JSON: byte 0xff is not valid utf-8 "
                              "(at position 10)"),
    ], ids=["lone-byte", "in-a-row-list"])
    def test_bytes_that_are_not_utf8_are_named(self, payload, message):
        """json.loads' UnicodeDecodeError is a ValueError too; it names
        the byte and its position, not an integer out of range."""
        for text in (payload, bytearray(payload)):
            with pytest.raises(ParseError) as exc:
                from_json(text)
            assert str(exc.value) == message

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            from_json("[" * 100000)

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


def _reference_make_row(A, B, l, eta, mode=STRICT):
    """The row-by-row make_row that the shared check loop, core._made_rows,
    replaced: the conditions as an if-chain, kept as an oracle.  An entry
    must be a plain int."""
    for name, v in (("A", A), ("B", B), ("l", l), ("eta", eta)):
        if type(v) is not int:
            raise ScopeError("%s must be an integer, got %r" % (name, v))
    if eta not in (1, -1):
        raise SegmentError("eta must be +1 or -1, got %r" % (eta,))
    if A < B:
        raise SegmentError("need A >= B, got [%d,%d]" % (A, B))
    if A + B < 0:
        raise SegmentError("need A + B >= 0, got [%d,%d]" % (A, B))
    b = A - B + 1
    if mode == STRICT and not (0 <= 2 * l <= b):
        raise SegmentError(
            "need 0 <= 2l <= b in strict mode, got l=%d with b=%d" % (l, b))
    return weak_normalize(Row(A, B, l, eta))


_ROW_RE = re.compile(
    r"\[\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*;\s*(-?[0-9]+)\s*;\s*([+-])\s*\]")


def _reference_parse(text, mode=STRICT):
    """The loop parser parse replaced: one regex match and one
    _reference_make_row per row, in text order.  Its integers are ASCII
    digits, as parse's are.  It checks the mode first, as parse now
    does."""
    _check_mode(mode)
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
            rows.append(_reference_make_row(A, B, l, eta, mode))
        except SegmentError as e:
            raise ParseError(str(e), pos) from e
        pos = m.end()
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

    def test_unknown_mode_is_checked_first(self):
        """A bad mode raises before any item is read or checked, as in
        _checked and from_json, where a bad item used to raise its
        ParseError first and the rows were checked as if relaxed."""
        for text in ("[1,0;2;+]x", "[1,0;2;+]", "[0,1;0;+]", "[1,0;0;+]", ""):
            with pytest.raises(SegmentError, match="^unknown mode 'loose'$"):
                parse(text, "loose")
        for text in ("nope", '{"rows": 5}', '{"rows": [{"A": 1}]}'):
            with pytest.raises(SegmentError, match="^unknown mode 'loose'$"):
                from_json(text, "loose")


# The row-by-row constructors and render that MultiSegment, multi_segment
# and render replaced, kept as oracles.

def _reference_multisegment(rows, mode=STRICT):
    """Each row through _reference_make_row, in order.  A row that is not
    a tuple or list of four entries raises ScopeError when it is reached.
    multi_segment is MultiSegment, so this is the oracle of both."""
    _check_mode(mode)
    out = []
    for r in rows:
        if not isinstance(r, (tuple, list)) or len(r) != 4:
            raise ScopeError("a row must be a tuple or list of four "
                             "integers, got %r" % (r,))
        out.append(_reference_make_row(*r, mode=mode))
    return MultiSegment._of(tuple(out), mode)


def _reference_render(ms):
    return "".join(
        "[%d,%d;%d;%s]" % (r.A, r.B, r.l, "+" if r.eta == 1 else "-")
        for r in ms.rows)


class _Int(int):
    """An int subclass: no constructor takes it as an integer."""


# Each converts a plain int to an equal value of another type.
_CONVERTERS = [bool, float, _Int]


def _random_row(rng):
    """A row drawn from a small range, so rows repeat; most are valid."""
    B = rng.randint(-2, 3)
    A = B + rng.choice([0, 0, 1, 2, 3, -1])
    l = rng.choice([0, 0, 0, 1, 2, -1])
    eta = rng.choice([1, 1, -1, -1, 0, 2])
    return (A, B, l, eta)


def _random_rows(rng):
    """Rows drawn from a small pool, as Row or tuple, with some of them
    changed: an entry converted to a bool, float or int subclass (equal to
    it where it can be) next to the unconverted row, a list row, a wrong
    arity."""
    pool = [_random_row(rng) for _ in range(rng.randint(1, 4))]
    rows = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
    for _ in range(rng.choice([0, 0, 1, 2])):
        if not rows:
            break
        k = rng.randrange(len(rows))
        row = list(rows[k])
        edit = rng.randrange(4)
        if edit == 0 and row:
            i = rng.randrange(len(row))
            row[i] = rng.choice(_CONVERTERS)(row[i])
            pair = [tuple(rows[k]), tuple(row)]
            rng.shuffle(pair)
            rows[k:k + 1] = pair
        elif edit == 1:
            rows[k] = row
        elif edit == 2:
            rows[k] = tuple(row[:rng.choice([0, 3])] + row[4:])
        else:
            rows[k] = tuple(row) + (1,)
    return [Row(*r) if type(r) is tuple and len(r) == 4 and rng.random() < 0.5
            else r for r in rows]


def _made(f, rows, mode):
    """Rows and entry types of f(rows, mode), or its exception."""
    try:
        ms = f(rows, mode)
    except (TypeError, SegmentError) as e:
        return type(e), str(e)
    return "rows", ms.mode, [(type(r), r, tuple(map(type, r)))
                             for r in ms.rows]


def _rendered(f, rows):
    """f of the 4-entry rows as Rows, wrapped unchecked, so that bool,
    float and int subclass entries reach it."""
    return f(MultiSegment._of(
        tuple(Row(*r) for r in rows if len(r) == 4), STRICT))


class TestConstructorsAgainstReference:
    # "loose" is no mode: MultiSegment and multi_segment refuse it before
    # any row.
    MODES = (STRICT, RELAXED, "loose")

    def test_random_rows(self):
        rng = random.Random(20261019)
        kinds = set()
        for _ in range(3000):
            rows = _random_rows(rng)
            for mode in self.MODES:
                expected = _made(_reference_multisegment, rows, mode)
                assert _made(MultiSegment, rows, mode) == expected, (
                    rows, mode)
                assert _made(multi_segment, rows, mode) == expected, (
                    rows, mode)
                kinds.add(expected[0])
            assert _rendered(render, rows) == _rendered(
                _reference_render, rows), rows
        assert kinds == {"rows", ScopeError, SegmentError}

    @pytest.mark.parametrize("rows", [
        [],
        [(1, 0, 0, 1)] * 3,
        [(1, 0, 0, 1), (1, 0, 0, True)],
        [(1, 0, 0, 1.0), (1, 0, 0, 1)],
        [(1, 0, 0, 1), (1, 0, 0, _Int(1))],
        [(1, 0, 0, _Int(1)), (1, 0, 0, 1)],
        [Row(1, 0, 0, 1), (1, 0, 0, 1), [1, 0, 0, 1]],
        [(1, 0, 0, 1), (1, 0, 0)],
        [(1, 0, 2, 1), (1, 0, 0, 1, 0)],
        [(0, 1, 0, 1), (1, 0, 0, 0)],
    ])
    @pytest.mark.parametrize("mode", MODES)
    def test_fixed_rows(self, rows, mode):
        expected = _made(_reference_multisegment, rows, mode)
        assert _made(MultiSegment, rows, mode) == expected
        assert _made(multi_segment, rows, mode) == expected


def _row_made(f, row, mode):
    """f(*row, mode) with its entry types, or its exception."""
    try:
        r = f(*row, mode)
    except SegmentError as e:
        return type(e), str(e)
    return "row", type(r), r, tuple(map(type, r))


def _dsl(rows):
    return "".join("[%d,%d;%d;%s]" % (A, B, l, "+" if eta == 1 else "-")
                   for A, B, l, eta in rows)


class TestSharedCheckAgainstReference:
    """make_row, the constructors and parse share one row-check loop,
    core._made_rows; each is held against _reference_make_row, the if-chain
    that loop replaced, on valid and invalid rows."""

    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_random_rows(self, mode):
        rng = random.Random(20261020)
        kinds, normalized, refused = set(), 0, 0
        for _ in range(2000):
            rows = [_random_row(rng) for _ in range(rng.randint(0, 6))]
            if rows and rng.random() < 0.3:
                k, i = rng.randrange(len(rows)), rng.randrange(4)
                row = list(rows[k])
                row[i] = rng.choice([_Int, _Int, bool])(row[i])
                rows[k] = tuple(row)
            for row in rows:
                expected = _row_made(_reference_make_row, row, mode)
                assert _row_made(make_row, row, mode) == expected, (row, mode)
                kinds.add(expected[0])
                if expected[0] == "row":
                    normalized += row[3] == -1 and expected[2].eta == 1
                refused += expected[0] is ScopeError and _Int in map(type, row)
            expected = _made(_reference_multisegment, rows, mode)
            assert _made(MultiSegment, rows, mode) == expected, (rows, mode)
            assert _made(multi_segment, rows, mode) == expected, (rows, mode)
            text = _dsl(r for r in rows if r[3] in (1, -1))
            assert _outcome(parse, text, mode) == _outcome(
                _reference_parse, text, mode), (text, mode)
        assert kinds == {"row", ScopeError, SegmentError}
        assert normalized and refused

    @pytest.mark.parametrize("row", [
        (1, 0, 1, _Int(1)), (1, 0, 1, _Int(-1)), (1, 0, 1, -1),
        (_Int(3), _Int(0), _Int(2), -1), (0, -1, 0, _Int(2)),
    ])
    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_fixed_rows(self, row, mode):
        """Weak normalization at 2l = b, and int-subclass entries."""
        expected = _row_made(_reference_make_row, row, mode)
        assert _row_made(make_row, row, mode) == expected
        rows = [row, (1, 0, 0, 1), row]
        expected = _made(_reference_multisegment, rows, mode)
        for f in (MultiSegment, multi_segment):
            assert _made(f, rows, mode) == expected

    @pytest.mark.parametrize("text, message", [
        ("[1,2;0;+][x]", "need A >= B, got [1,2]"),
        ("[x][1,2;0;+]", "expected a row of the form [A,B;l;s]"),
    ])
    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_first_bad_item_wins(self, text, message, mode):
        """A row error before a syntax error wins, and the other way round."""
        with pytest.raises(ParseError) as exc:
            parse(text, mode)
        assert (str(exc.value), exc.value.position) == (
            "%s (at position 0)" % message, 0)


rows_strategy = st.builds(
    lambda B, extra, l_frac, eta: _row_from(B, extra, l_frac, eta),
    st.integers(-4, 6), st.integers(0, 6), st.floats(0, 1),
    st.sampled_from([1, -1]))


def _row_from(B, extra, l_frac, eta):
    A = max(B, -B) + extra
    b = A - B + 1
    return make_row(A, B, int(l_frac * (b // 2)), eta)


@settings(derandomize=True)
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

    @pytest.mark.parametrize("mode", [STRICT, RELAXED])
    def test_random_symbols_against_reference(self, mode):
        """The same lines as the column-by-column walk it replaced, on
        strict symbols and on relaxed ones whose rows reach past their own
        columns (l < 0) or draw their triangles over each other (2l > b)."""
        rng = random.Random(1729)
        for _ in range(800):
            rows = []
            for _ in range(rng.randint(1, 4)):
                B = rng.randint(-4, 6)
                A = rng.randint(max(B, -B), max(B, -B) + 6)
                b = A - B + 1
                l = (rng.randint(0, b // 2) if mode == STRICT
                     else rng.randint(-b - 3, b + 3))
                rows.append(Row(A, B, l, rng.choice((1, -1))))
            ms = MultiSegment(tuple(rows), mode)
            for unicode_symbols in (False, True):
                assert (render_grid(ms, unicode_symbols)
                        == _reference_render_grid(ms, unicode_symbols)), (
                    render(ms))

    def test_far_triangles_are_cut_to_the_drawn_columns(self):
        """A relaxed row of huge l draws only the columns of the symbol."""
        ms = parse("[1,0;%d;+]" % 10 ** 100, RELAXED)
        assert render_grid(ms) == "0 1\n> >"


def _reference_render_grid(ms, unicode_symbols=False):
    """The render_grid that walked every column of every range, kept as
    an oracle."""
    if not ms.rows:
        return "(empty)"
    lo = min(r.B for r in ms.rows)
    hi = max(r.A for r in ms.rows)
    if unicode_symbols:
        sym = {"+": "⊕", "-": "⊖", "<": "◁", ">": "▷"}
    else:
        sym = {"+": "+", "-": "-", "<": "<", ">": ">"}
    width = max(len(str(c)) for c in range(lo, hi + 1))
    header = " ".join(str(c).rjust(width) for c in range(lo, hi + 1))
    lines = [header]
    for r in ms.rows:
        cells = {}
        for c in range(r.B, r.B + r.l):
            cells[c] = sym["<"]
        for c in range(r.A - r.l + 1, r.A + 1):
            cells[c] = sym[">"]
        s = r.eta
        for c in range(r.B + r.l, r.A - r.l + 1):
            cells[c] = sym["+" if s == 1 else "-"]
            s = -s
        lines.append(" ".join(
            cells.get(c, "").rjust(width) if c in cells else " " * width
            for c in range(lo, hi + 1)).rstrip())
    return "\n".join(lines)


def test_arthur_parameter_needs_admissible_order():
    bad = multi_segment([(2, 1, 0, 1), (1, 0, 0, 1)])
    with pytest.raises(SegmentError):
        arthur_parameter(bad)
