"""Shared random instance generators for the test suite."""

import random

import pytest

from emseg.core import STRICT, MultiSegment, Row, check_star, make_row


def rand_row(rng, lo=-3, hi=5):
    """A random strict row with support inside [lo, hi]."""
    B = rng.randint(lo, hi)
    A = rng.randint(max(B, -B), max(B, -B) + 4)
    b = A - B + 1
    l = rng.randint(0, b // 2)
    eta = rng.choice([1, -1])
    return make_row(A, B, l, eta)


def rand_sorted_ms(rng, max_rows=5, require_star=False):
    """A random strict multi-segment sorted by B (hence admissible)."""
    while True:
        n = rng.randint(1, max_rows)
        rows = sorted((rand_row(rng) for _ in range(n)),
                      key=lambda r: (r.B, r.A))
        ms = MultiSegment(tuple(rows))
        if not require_star or check_star(ms):
            return ms


def rand_mode_ms(rng, mode, sort=True, require_star=False):
    """A random multi-segment of 2-4 rows in the given mode, sorted by B
    unless sort is False; relaxed rows take l anywhere in [-b, b]."""
    while True:
        rows = []
        for _ in range(rng.randint(2, 4)):
            B = rng.randint(-3, 4)
            A = rng.randint(max(B, -B), max(B, -B) + 4)
            b = A - B + 1
            l = (rng.randint(0, b // 2) if mode == STRICT
                 else rng.randint(-b, b))
            rows.append(Row(A, B, l, rng.choice((1, -1))))
        if sort:
            rows.sort(key=lambda r: (r.B, r.A))
        ms = MultiSegment(tuple(rows), mode)
        if not require_star or check_star(ms):
            return ms


def rand_nested_pair(rng, alternating=None):
    """Adjacent rows with supp(first) containing supp(second)."""
    inner = rand_row(rng)
    B = inner.B - rng.randint(0, 2)
    A = inner.A + rng.randint(0, 2)
    if A + B < 0:
        A = -B
    b = A - B + 1
    l = rng.randint(0, b // 2)
    eta = rng.choice([1, -1])
    outer = make_row(A, B, l, eta)
    if alternating is not None:
        want = (-1) ** outer.circles * outer.eta
        if alternating:
            inner = inner._replace(eta=want)
        else:
            inner = inner._replace(eta=-want)
    return outer, inner


def rand_tempered(rng, max_cols=5, max_mult=5):
    """A random tempered multi-segment: single circles sorted by column,
    one sign per column."""
    c0 = rng.randint(0, 2)
    ncols = rng.randint(1, max_cols)
    rows = []
    for c in range(c0, c0 + ncols):
        m = rng.randint(1, max_mult)
        s = rng.choice([1, -1])
        rows.extend([Row(c, c, 0, s)] * m)
    return MultiSegment(tuple(rows))


def canonical_S(S):
    """Whether a member with the S-tuple S is canonical: no one-column
    interval (c, c) of S is followed by an interval that starts at c, the
    overlap the recursion's "- prev2" term takes away."""
    return not any(a == b == c for (a, b), (c, _) in zip(S, S[1:]))


@pytest.fixture
def rng():
    return random.Random(20240824)
