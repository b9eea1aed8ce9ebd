"""Acceptance suite: nine end-to-end criteria with stated budgets.

Each test prints a per-criterion pass line; budgets are asserted with
time.monotonic around the substantive work.
"""

import random
import time

import pytest

from emseg.blocks import (
    BlockTuple, block_decompose, block_tuple, classify_boundary, is_tempered,
    tempered_block,
)
from emseg.closure import closure, neighbors
from emseg.core import (
    MultiSegment, Row, arthur_parameter, check_star, group_sign, make_row,
    parse, render, validate,
)
from emseg.count import (
    count_block_closure, count_block_enumerative, count_block_recursive,
    count_tempered, iter_grid,
)
from emseg.ops import NoExchangeError, dual, row_exchange
from emseg.sdata import (
    enumerate_ST, theta1, theta_family, theta2_matches_theta4,
)

from conftest import rand_nested_pair, rand_sorted_ms, rand_tempered


def report(name, elapsed, budget):
    assert elapsed < budget, "%s took %.2fs (budget %.2fs)" % (
        name, elapsed, budget)
    print("PASS %s (%.3fs / budget %.1fs)" % (name, elapsed, budget))


def test_criterion_1_golden_symbol():
    text = "[4,-1;2;+][3,2;1;+][4,4;0;-]"
    start = time.monotonic()
    for _ in range(100):
        ms = parse(text)
        assert [(r.A, r.B) for r in ms.rows] == [(4, -1), (3, 2), (4, 4)]
        assert [(r.l, r.eta) for r in ms.rows] == [(2, 1), (1, 1), (0, -1)]
        assert arthur_parameter(ms) == ((4, 6), (6, 2), (9, 1))
        assert group_sign(ms) == 1
        assert render(ms) == text
    elapsed = (time.monotonic() - start) / 100
    report("criterion 1: golden symbol", elapsed, 0.001)


def test_criterion_2_golden_construction():
    from emseg.sdata import build
    M = BlockTuple(0, (1, 1, 3, 1, 1, 3, 1, 1, 3, 1))
    S = ((0, 2), (2, 4), (5, 5), (5, 7), (8, 9))
    T = (((0, 0), (1, 2)), ((2, 3), (4, 4)), ((5, 5),), ((5, 7),), ((8, 9),))
    start = time.monotonic()
    for _ in range(100):
        ms = build(M, S, T, 1)
        assert render(ms) == (
            "[4,-4;4;+][2,-1;1;-][0,0;0;-][2,2;0;-][3,2;0;-]"
            "[5,5;0;-][5,5;0;-][7,5;0;-][9,8;0;+][8,8;0;-][8,8;0;-]")
        zc = build(BlockTuple(0, (1, 3, 1, 1)), ((0, 1), (1, 3)), None, 1)
        assert render(zc) == "[1,0;0;+][1,1;0;-][3,1;0;-]"
    elapsed = (time.monotonic() - start) / 100
    report("criterion 2: golden construction", elapsed, 0.001)


def test_criterion_3_smallest_block_closure():
    start = time.monotonic()
    rep = closure(parse("[0,0;0;+][1,1;0;-]"))
    assert rep.exhausted
    assert set(rep.psi) == {((1, 1), (3, 1)), ((1, 1), (1, 3)), ((2, 2),)}
    report("criterion 3: smallest block closure",
           time.monotonic() - start, 1.0)


def test_criterion_4_three_way_agreement():
    start = time.monotonic()
    instances = list(iter_grid(max_len=4, max_mult=5, max_cmin=1, max_rows=9))
    assert len(instances) >= 80
    for M in instances:
        r = count_block_recursive(M).value
        e = count_block_enumerative(M).value
        c = count_block_closure(M).value
        assert r == e == c, (M, r, e, c)
    report("criterion 4: three-way agreement on %d instances"
           % len(instances), time.monotonic() - start, 300.0)


def test_criterion_5_scaling_laws():
    start = time.monotonic()
    for k in range(5):
        M = BlockTuple(0, (1,) * (k + 1))
        assert count_block_recursive(M).value == 3 ** k
        assert count_block_enumerative(M).value == 3 ** k
    for n in range(1, 6):
        M = BlockTuple(1, (1,) * n)
        assert count_block_recursive(M).value == 2 ** (n - 1)
        assert count_block_enumerative(M).value == 2 ** (n - 1)
    report("criterion 5: scaling laws", time.monotonic() - start, 60.0)


MULTI_BLOCK_CONFIGS = [
    "[0,0;0;+][1,1;0;+]",
    "[0,0;0;+][1,1;0;-][2,2;0;-]",
    "[0,0;0;+][1,1;0;-][2,2;0;-][3,3;0;+]",
    "[1,1;0;+][2,2;0;+][3,3;0;-]",
    "[0,0;0;+][0,0;0;+][0,0;0;+][1,1;0;+]",
    "[2,2;0;-][3,3;0;-]",
    "[0,0;0;+][1,1;0;-][1,1;0;-]",
    "[0,0;0;+][1,1;0;-][1,1;0;-][2,2;0;+]",
    "[1,1;0;+][2,2;0;-][2,2;0;-][3,3;0;+]",
    "[0,0;0;+][0,0;0;+][1,1;0;-]",
    "[0,0;0;+][1,1;0;-][1,1;0;-][1,1;0;-][1,1;0;-]",
    "[2,2;0;+][3,3;0;-][3,3;0;-]",
    "[0,0;0;+][2,2;0;-]",
    "[0,0;0;+][1,1;0;-][3,3;0;+]",
    "[0,0;0;+][3,3;0;-][4,4;0;+]",
    "[1,1;0;-][4,4;0;+][5,5;0;-]",
    "[0,0;0;+][0,0;0;+][0,0;0;+][4,4;0;-]",
    "[2,2;0;+][5,5;0;+]",
    "[0,0;0;+][1,1;0;+][3,3;0;-]",
    "[0,0;0;+][1,1;0;-][1,1;0;-][4,4;0;+]",
    "[0,0;0;+][2,2;0;-][2,2;0;-][2,2;0;-][4,4;0;+]",
    "[1,1;0;+][2,2;0;+][2,2;0;+][3,3;0;-]",
    "[0,0;0;+][1,1;0;-][2,2;0;+][2,2;0;+][3,3;0;-]",
    "[0,0;0;+][1,1;0;-][2,2;0;-][3,3;0;+][3,3;0;+]",
]


def test_criterion_6_multi_block_product():
    start = time.monotonic()
    kinds = set()
    assert len(MULTI_BLOCK_CONFIGS) >= 20
    for dsl in MULTI_BLOCK_CONFIGS:
        ms = parse(dsl)
        assert len(ms.rows) <= 8
        blocks = block_decompose(ms)
        assert 2 <= len(blocks) <= 3
        for a, b in zip(blocks, blocks[1:]):
            kinds.add(classify_boundary(a, b).kind)
        rep = closure(ms)
        assert rep.exhausted
        assert len(rep.psi) == count_tempered(ms).value, dsl
    assert kinds == {"Type1", "Type2", "Type3"}
    report("criterion 6: multi-block product on %d configurations"
           % len(MULTI_BLOCK_CONFIGS), time.monotonic() - start, 300.0)


def _blocks_at_zero(max_rows):
    out = []

    def rec(prefix):
        if prefix:
            out.append(BlockTuple(0, tuple(prefix)))
        for m in (1, 3, 5):
            if sum(prefix) + m <= max_rows:
                rec(prefix + [m])

    rec([])
    return out


def test_criterion_7_lift_family():
    start = time.monotonic()
    for M in _blocks_at_zero(5):
        lifted = theta1(tempered_block(M, 1))
        rep = closure(lifted)
        assert rep.exhausted
        family_psis = set()
        for S, T in enumerate_ST(M):
            fam = theta_family(M, S, T, 1)
            for _, ms in fam:
                family_psis.add(arthur_parameter(ms))
            if M.mult(M.c_max) == 1:
                assert len(fam) == 3
                assert len({arthur_parameter(ms) for _, ms in fam}) == 3
            else:
                d = dict(fam)
                coincide = (arthur_parameter(d["theta2"])
                            == arthur_parameter(d["theta4"]))
                assert coincide == theta2_matches_theta4(M, S), (M, S)
        assert family_psis == set(rep.psi), M
    report("criterion 7: lift family vs closure",
           time.monotonic() - start, 120.0)


class TestCriterion8OperatorProperties:
    N = 1000

    def test_dual_involution(self):
        rng = random.Random(81)
        start = time.monotonic()
        for _ in range(self.N):
            ms = rand_sorted_ms(rng, require_star=True)
            assert dual(dual(ms)).rows == ms.rows
        report("criterion 8a: dual involution", time.monotonic() - start, 60)

    def test_dual_sign_law(self):
        rng = random.Random(82)
        start = time.monotonic()
        for _ in range(self.N):
            ms = rand_sorted_ms(rng, require_star=True)
            C = sum(r.circles for r in ms.rows)
            d = dual(ms)
            n = len(ms.rows)
            for i, r in enumerate(ms.rows):
                if r.circles > 0:
                    assert (d.rows[n - 1 - i].eta
                            == (-1) ** (C - r.circles) * r.eta)
        report("criterion 8b: dual sign law", time.monotonic() - start, 60)

    def test_braid_relation(self):
        rng = random.Random(83)
        start = time.monotonic()
        checked = 0
        while checked < self.N:
            B3 = rng.randint(-3, 3)
            lo = max(B3, -B3)
            A3 = rng.randint(lo, lo + 4)
            B2, A2 = B3 - rng.randint(0, 2), A3 + rng.randint(0, 2)
            B1, A1 = B2 - rng.randint(0, 2), A2 + rng.randint(0, 2)
            if A1 + B1 < 0 or A2 + B2 < 0:
                continue
            rows = tuple(
                make_row(A, B, rng.randint(0, (A - B + 1) // 2),
                         rng.choice([1, -1]))
                for A, B in ((A1, B1), (A2, B2), (A3, B3)))
            ms = MultiSegment(rows, "relaxed")
            lhs = rhs = ms
            ok = True
            try:
                for k in (0, 1, 0):
                    res = row_exchange(lhs, k)
                    ok = ok and res.applied
                    lhs = res.out
                for k in (1, 0, 1):
                    res = row_exchange(rhs, k)
                    ok = ok and res.applied
                    rhs = res.out
            except NoExchangeError:
                continue
            if not ok:
                continue
            assert lhs.rows == rhs.rows
            checked += 1
        report("criterion 8c: braid relation", time.monotonic() - start, 60)

    def test_swap_closed_forms(self):
        rng = random.Random(84)
        start = time.monotonic()
        down = up = 0
        while down < self.N or up < self.N:
            outer, inner = rand_nested_pair(rng, alternating=True)
            if inner.circles > 0 and down < self.N:
                ms = MultiSegment((outer, inner), "relaxed")
                res = row_exchange(ms, 0)
                assert res.applied
                new_inner, new_outer = res.out.rows
                assert new_outer.l == outer.l - inner.circles
                assert new_outer.eta == (-1) ** inner.circles * outer.eta
                assert new_inner.l == inner.l
                if new_inner.circles > 0:
                    assert (new_inner.eta
                            == (-1) ** (outer.circles + 1) * inner.eta)
                    assert (new_outer.eta
                            != (-1) ** new_inner.circles * new_inner.eta)
                down += 1
            outer, inner = rand_nested_pair(rng)
            if (up < self.N and inner.circles > 0
                    and outer.circles >= 2 * inner.circles
                    and (outer.A, outer.B) != (inner.A, inner.B)
                    and outer.eta != (-1) ** inner.circles * inner.eta):
                ms = MultiSegment((inner, outer), "relaxed")
                res = row_exchange(ms, 0)
                assert res.applied
                new_outer, new_inner = res.out.rows
                assert new_inner.l == inner.l
                if new_inner.circles > 0:
                    assert (new_inner.eta
                            == (-1) ** (outer.circles + 1) * inner.eta)
                assert new_outer.l == outer.l + inner.circles
                if new_outer.circles > 0:
                    assert new_outer.eta == (-1) ** inner.circles * outer.eta
                    if new_inner.circles > 0:
                        assert (new_inner.eta
                                == (-1) ** new_outer.circles * new_outer.eta)
                up += 1
        report("criterion 8d: swap closed forms", time.monotonic() - start, 60)

    def test_multiplicity_cancellation(self):
        rng = random.Random(85)
        start = time.monotonic()
        done = 0
        while done < self.N:
            c = rng.randint(0, 3)
            s = rng.choice([1, -1])
            single = Row(c, c, 0, s)
            B = c - rng.randint(0, 3)
            A = c + rng.randint(0, 3)
            if A + B < 0:
                continue
            b = A - B + 1
            l = rng.randint(0, b // 2)
            h = make_row(A, B, l, rng.choice([1, -1]))
            if h.circles < 2:
                continue
            ms = MultiSegment((h, single, single), "relaxed")
            step1 = row_exchange(ms, 0)
            step2 = row_exchange(step1.out, 1)
            assert step1.applied and step2.applied
            r1, r2, h2 = step2.out.rows
            assert h2 == h
            assert r1.l == 0 and r2.l == 0
            assert r1.eta == r2.eta == (-1) ** (h.circles + 1) * s
            ms_up = MultiSegment((single, single, h), "relaxed")
            up1 = row_exchange(ms_up, 1)
            up2 = row_exchange(up1.out, 0)
            assert up1.applied and up2.applied
            h3, q1, q2 = up2.out.rows
            assert h3 == h
            assert q1.eta == q2.eta == (-1) ** (h.circles + 1) * s
            done += 1
        report("criterion 8e: multiplicity cancellation",
               time.monotonic() - start, 60)

    def test_inverse_pairs(self):
        rng = random.Random(86)
        start = time.monotonic()
        seeds = [theta1(tempered_block(M, rng.choice([1, -1])))
                 for M in _blocks_at_zero(5)]
        seeds += [parse(dsl) for dsl in MULTI_BLOCK_CONFIGS]
        seeds += [rand_tempered(rng, max_cols=4, max_mult=3)
                  for _ in range(30)]
        pairs = 0
        for seed in seeds:
            rep = closure(seed, max_states=300)
            states = [parse(k.decode()) for k in rep.nodes]
            for x in states:
                for y in neighbors(x):
                    back = {n.rows for n in neighbors(y)}
                    assert x.rows in back, (render(x), render(y))
                    pairs += 1
            if pairs >= self.N:
                break
        assert pairs >= self.N
        report("criterion 8f: inverse pairs (%d)" % pairs,
               time.monotonic() - start, 60)

    def test_exchange_invariance(self):
        rng = random.Random(87)
        start = time.monotonic()
        done = 0
        while done < self.N:
            ms = rand_sorted_ms(rng)
            if len(ms.rows) < 2:
                continue
            k = rng.randrange(len(ms.rows) - 1)
            try:
                res = row_exchange(ms, k)
            except NoExchangeError:
                continue
            if not res.applied:
                continue
            assert (sorted((r.a, r.b) for r in res.out.rows)
                    == sorted((r.a, r.b) for r in ms.rows))
            if res.out.mode == "strict":
                assert group_sign(res.out) == group_sign(ms)
            done += 1
        report("criterion 8g: exchange invariance",
               time.monotonic() - start, 60)


def test_criterion_9_block_decomposition():
    rng = random.Random(9)
    start = time.monotonic()
    for _ in range(1000):
        ms = rand_tempered(rng, max_cols=6, max_mult=6)
        blocks = block_decompose(ms)
        flat = tuple(r for b in blocks for r in b.rows)
        assert flat == ms.rows
        prev = None
        for b in blocks:
            bt = block_tuple(b)
            assert all(m % 2 == 1 for m in bt.mults)
            cols = sorted({r.B for r in b.rows})
            assert cols == list(range(cols[0], cols[-1] + 1))
            sign_of = {}
            for r in b.rows:
                assert sign_of.setdefault(r.B, r.eta) == r.eta
            for c in cols[:-1]:
                assert sign_of[c + 1] == -sign_of[c]
            if prev is not None:
                bd = classify_boundary(prev, b)
                assert bd.N_col >= prev.rows[0].B
            prev = b
    report("criterion 9: block decomposition", time.monotonic() - start, 10)
