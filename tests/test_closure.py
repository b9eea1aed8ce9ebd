"""Breadth-first class exploration and canonical forms."""

import random
import time

import pytest

from emseg.blocks import BlockTuple, tempered_block
from emseg.closure import (
    _other_neighbors, _valid_state, are_equivalent, canonical, closure,
    exchange_neighbors, neighbors,
)
from emseg.core import (
    RELAXED, STRICT, SegmentError, arthur_parameter, check_star, group_sign,
    parse, render, row_is_strict,
)
from emseg.count import count_tempered
from emseg.sdata import theta1

from conftest import rand_sorted_ms, rand_tempered

X1 = "[0,0;0;+][1,1;0;-]"
X1_PSIS = {((1, 1), (3, 1)), ((1, 1), (1, 3)), ((2, 2),)}


class TestClosure:
    def test_two_column_class(self):
        report = closure(parse(X1))
        assert set(report.psi) == X1_PSIS
        assert report.exhausted
        assert report.states <= 10

    def test_single_circle(self):
        report = closure(parse("[0,0;0;+]"))
        assert set(report.psi) == {((1, 1),)}
        assert report.states == 1

    def test_seed_independence(self):
        base = closure(parse(X1))
        for seed in ("[1,0;0;+]", "[1,-1;1;+][0,0;0;-]"):
            other = closure(parse(seed))
            assert other.psi == base.psi
            assert other.nodes == base.nodes

    def test_every_state_nonvanishing(self):
        report = closure(tempered_block(BlockTuple(0, (1, 3, 1)), 1))
        assert report.exhausted
        assert all(check_star(parse(key.decode())) for key in report.nodes)

    def test_group_sign_constant(self):
        seed = tempered_block(BlockTuple(0, (1, 1, 1)), 1)
        expect = group_sign(seed)
        report = closure(seed)
        assert all(group_sign(parse(k.decode())) == expect
                   for k in report.nodes)

    def test_limits_reported(self):
        report = closure(parse(X1), max_states=2)
        assert not report.exhausted

    def test_rejects_vanishing_seed(self):
        with pytest.raises(SegmentError):
            closure(parse("[2,-2;1;+]"))


def _reference_closure(seed, max_states, max_depth):
    """The closure search written plainly: neighbors() per state, then one
    union-find over exchange_neighbors() of every visited state."""
    seen = {seed.rows: seed}
    frontier = [seed]
    exhausted = True
    for depth in range(max_depth + 1):
        if not frontier:
            break
        if depth == max_depth:
            exhausted = False
            break
        nxt = []
        for state in frontier:
            for cand in neighbors(state):
                if cand.rows in seen:
                    continue
                if len(seen) >= max_states:
                    exhausted = False
                    break
                seen[cand.rows] = cand
                nxt.append(cand)
            if not exhausted:
                break
        if not exhausted:
            break
        frontier = nxt
    parent = {rows: rows for rows in seen}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rows, state in seen.items():
        for nb in exchange_neighbors(state):
            if nb.rows in seen:
                parent[find(nb.rows)] = find(rows)
    best = {}
    for rows, state in seen.items():
        root, key = find(rows), render(state).encode()
        best[root] = min(best.get(root, key), key)
    psi = frozenset(arthur_parameter(s) for s in seen.values())
    return frozenset(best.values()), psi, len(seen), exhausted


class TestAgainstReference:
    # 46 states in 11 exchange classes, 66 in 33, 81 in 81.
    SEEDS = [
        tempered_block(BlockTuple(0, (3, 3, 3)), 1),
        tempered_block(BlockTuple(0, (1, 3, 1, 1)), -1),
        theta1(tempered_block(BlockTuple(0, (1, 1, 1, 1)), 1)),
    ]

    @pytest.mark.parametrize("limits", [
        (100000, 64), (1, 64), (10, 64), (30, 64), (100000, 1), (100000, 2),
        (25, 3),
    ])
    def test_truncated_and_exhausted_runs(self, limits):
        for seed in self.SEEDS:
            report = closure(seed, *limits)
            assert (report.nodes, report.psi, report.states,
                    report.exhausted) == _reference_closure(seed, *limits)

    def test_count_matches_closure_on_random_tempered(self):
        rng = random.Random(20261018)
        start = time.perf_counter()
        checked = 0
        while checked < 300:
            ms = rand_tempered(rng, max_cols=5, max_mult=5)
            if len(ms.rows) > 9:
                continue
            assert count_tempered(ms).value == len(closure(ms).psi), ms
            checked += 1
        assert time.perf_counter() - start < 2.0


class TestNeighbors:
    def test_symmetry(self):
        for seed in (X1, "[1,0;0;+]", "[1,-1;1;+][0,0;0;-]"):
            ms = parse(seed)
            for nb in neighbors(ms):
                back = {n.rows for n in neighbors(nb)} | {nb.rows}
                assert ms.rows in back or any(
                    canonical(n) == canonical(ms) for n in neighbors(nb))

    def test_contains_merge_and_hat_form(self):
        outs = {render(n) for n in neighbors(parse(X1))}
        assert "[1,0;0;+]" in outs
        assert any(parse(o).rows[0].is_hat for o in outs)

    def test_single_circle_has_no_neighbors(self):
        assert neighbors(parse("[0,0;0;+]")) == []


class TestCandidateModes:
    @staticmethod
    def _check(cand):
        assert (cand.mode == STRICT) == all(
            row_is_strict(r) for r in cand.rows), render(cand)

    def test_strict_mode_exactly_when_rows_are_strict(self):
        """The moves set the mode themselves, so the search needs no
        re-tagging of its candidates."""
        seeds = [parse(X1), tempered_block(BlockTuple(0, (1, 3, 1)), 1),
                 theta1(tempered_block(BlockTuple(0, (1, 1, 1, 1)), 1))]
        for seed in seeds:
            seen = {seed.rows}
            frontier = [seed]
            while frontier:
                nxt = []
                for state in frontier:
                    for cand in exchange_neighbors(state) + _other_neighbors(state):
                        self._check(cand)
                        if cand.rows not in seen and _valid_state(cand):
                            seen.add(cand.rows)
                            nxt.append(cand)
                frontier = nxt
            assert len(seen) == closure(seed).states

    def test_relaxed_candidates_are_tagged_relaxed(self, rng):
        modes = set()
        for _ in range(300):
            ms = rand_sorted_ms(rng, require_star=True)
            for cand in exchange_neighbors(ms) + _other_neighbors(ms):
                self._check(cand)
                modes.add(cand.mode)
        assert modes == {STRICT, RELAXED}

class TestCanonical:
    def test_order_invariance(self):
        a = parse("[1,1;0;+][2,0;0;+]")
        b_res = parse("[1,1;0;+][2,0;0;+]")
        assert canonical(a) == canonical(b_res)

    def test_equivalence_check(self):
        assert are_equivalent(parse(X1), parse("[1,0;0;+]"))
        assert not are_equivalent(parse(X1), parse("[0,0;0;+]"))
