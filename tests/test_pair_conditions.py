"""Atobe's conditions on adjacent rows, as a test oracle for the closure.

The engine calls a state valid when it is strict, (P)-ordered and passes
the row-wise B + l >= 0.  Atobe's non-vanishing criterion for extended
multi-segments ("Construction of local A-packets", 2022) adds conditions
on adjacent pairs of rows.  pair_conditions_hold states them as they are
recalled from that paper, whose text is not in this repository: they are
a hypothesis backed by the measurements pinned below, not the theorem.
No engine code reads them.
"""

import random

from emseg.blocks import tempered_block
from emseg.closure import (
    DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, _moves, _search, _seed_table,
)
from emseg.core import SegmentError, parse
from emseg.count import iter_grid
from emseg.ops import _supports_nest, exchange_pair
from emseg.sdata import theta1

from conftest import rand_sorted_ms


def pair_conditions_hold(rows):
    """Whether every adjacent pair r, s of rows meets the recalled pair
    conditions.  The pair is "same" when eta_s = (-1)^(A_r - B_r) eta_r,
    the eps = 1 of exchange_pair.

    - s inside r (equal supports included): same needs
      0 <= l_r - l_s <= b_r - b_s, otherwise l_r + l_s >= b_s;
    - r inside s: same needs 0 <= l_s - l_r <= b_s - b_r, otherwise
      l_r + l_s >= b_r;
    - A_s > A_r and B_s > B_r: same needs B_r + l_r <= B_s + l_s and
      A_r - l_r <= A_s - l_s, otherwise A_r - l_r < B_s + l_s.

    The one order left, s to the left of r in both ends, is not
    admissible, and the conditions say nothing of it.
    """
    for r, s in zip(rows, rows[1:]):
        same = s.eta == (-1) ** (r.A - r.B) * r.eta
        if r.B <= s.B and s.A <= r.A:
            ok = (0 <= r.l - s.l <= r.b - s.b if same
                  else r.l + s.l >= s.b)
        elif s.B <= r.B and r.A <= s.A:
            ok = (0 <= s.l - r.l <= s.b - r.b if same
                  else r.l + s.l >= r.b)
        elif s.A > r.A and s.B > r.B:
            ok = (r.B + r.l <= s.B + s.l and r.A - r.l <= s.A - s.l
                  if same else r.A - r.l < s.B + s.l)
        else:
            ok = True
        if not ok:
            return False
    return True


def _states(seed, max_states):
    """The row tuples of the states the closure search from seed visits
    within max_states states."""
    table = _seed_table(seed)
    *_, (states, _, _, _) = _search(table, _moves, max_states,
                                    DEFAULT_MAX_DEPTH)
    return [tuple(table.rows[i] for i in ids) for ids in states]


def _exchanges_back(rows):
    """Whether every row exchange of rows, applied twice, gives rows back."""
    return all(exchange_pair(*exchange_pair(r, s)) == (r, s)
               for r, s in zip(rows, rows[1:]) if _supports_nest(r, s))


def test_every_state_of_the_grid_closures_passes():
    """Every state of the closures of the 258 grid seeds passes: the
    default grid's tempered blocks with both signs, and the theta1 lifts
    of its c_min = 0 blocks with both signs."""
    seeds = [tempered_block(M, eta) for M in iter_grid() for eta in (1, -1)]
    seeds += [theta1(tempered_block(M, eta))
              for M in iter_grid() if M.c_min == 0 for eta in (1, -1)]
    assert len(seeds) == 258
    states = [rows for seed in seeds
              for rows in _states(seed, DEFAULT_MAX_STATES)]
    assert len(states) == 17592
    assert all(map(pair_conditions_hold, states))


def test_the_pair_that_does_not_exchange_back_fails():
    """[5,4;0;+][5,4;1;+] exchanges to its reverse, which exchanges to no
    valid pair; both orders fail the conditions."""
    for text in ("[5,4;0;+][5,4;1;+]", "[5,4;1;+][5,4;0;+]"):
        assert not pair_conditions_hold(parse(text).rows), text
    assert not _exchanges_back(parse("[5,4;1;+][5,4;0;+]").rows)


def test_every_closure_that_fails_to_exchange_back_holds_a_failing_state():
    """Over 600 draws of rand_sorted_ms (seed 777, at most 5 rows), each
    searched to 2000 states: 369 are valid seeds, 103 of their closures
    hold an exchange that does not exchange back, and each of those 103
    holds a state that fails the conditions."""
    rng = random.Random(777)
    valid, broken = 0, []
    for _ in range(600):
        seed = rand_sorted_ms(rng, max_rows=5)
        try:
            states = _states(seed, 2000)
        except SegmentError:
            continue
        valid += 1
        if not all(map(_exchanges_back, states)):
            broken.append(states)
    assert (valid, len(broken)) == (369, 103)
    assert all(not all(map(pair_conditions_hold, states))
               for states in broken)
