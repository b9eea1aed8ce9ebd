"""Class coordinates for blocks: interval data, construction, lift family."""

import functools
import gc
import itertools
import operator
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from emseg import core, sdata
from emseg.blocks import BlockTuple, tempered_block
from emseg.closure import (
    DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, _moves, _search, _seed_table,
    canonical, closure,
)
from emseg.core import (
    MultiSegment, Row, ScopeError, SegmentError, arthur_parameter, check_star,
    make_row, parse, render, validate, weak_normalize,
)
from emseg.count import iter_grid
from emseg.sdata import (
    _partitions_of, build, enumerate_S, enumerate_ST, iter_S, iter_ST,
    theta1, theta_family, theta2_matches_theta4, trivial_T, validate_S,
    validate_T,
)

from conftest import canonical_S

ELEVEN_ROW_M = BlockTuple(0, (1, 1, 3, 1, 1, 3, 1, 1, 3, 1))
ELEVEN_ROW_S = ((0, 2), (2, 4), (5, 5), (5, 7), (8, 9))
ELEVEN_ROW_T = (((0, 0), (1, 2)), ((2, 3), (4, 4)), ((5, 5),), ((5, 7),),
                ((8, 9),))


class TestValidateS:
    def test_simple_partitions(self):
        M = BlockTuple(0, (1, 1))
        assert validate_S(M, ((0, 0), (1, 1)))
        assert validate_S(M, ((0, 1),))
        assert not validate_S(M, ((1, 1), (0, 0)))

    def test_overlap_needs_width_and_multiplicity(self):
        assert not validate_S(BlockTuple(0, (1, 3)), ((0, 0), (1, 1), (1, 1)))
        assert validate_S(BlockTuple(2, (3, 1)), ((2, 2), (2, 3)))
        assert not validate_S(BlockTuple(2, (1, 1)), ((2, 2), (2, 3)))

    def test_coverage_required(self):
        assert not validate_S(BlockTuple(0, (1, 1, 1)), ((0, 0), (2, 2)))
        assert not validate_S(BlockTuple(0, (1, 1)), ())

    def test_eleven_row_data_is_valid(self):
        assert validate_S(ELEVEN_ROW_M, ELEVEN_ROW_S)
        assert validate_T(ELEVEN_ROW_M, ELEVEN_ROW_S, ELEVEN_ROW_T)


class TestValidateT:
    def test_trivial_is_valid(self):
        M = BlockTuple(0, (1, 1))
        S = ((0, 1),)
        assert validate_T(M, S, trivial_T(S))

    def test_overlap_chain_needs_two_columns(self):
        M = BlockTuple(0, (3, 1, 1))
        S = ((0, 0), (0, 2))
        assert validate_T(M, S, (((0, 0),), ((0, 1), (2, 2))))
        assert not validate_T(M, S, (((0, 0),), ((0, 0), (1, 2))))

    def test_positive_start_forbids_refinement(self):
        M = BlockTuple(1, (1, 1))
        S = ((1, 2),)
        assert validate_T(M, S, trivial_T(S))
        assert not validate_T(M, S, (((1, 1), (2, 2)),))


class TestEnumerate:
    def test_two_columns(self):
        assert enumerate_S(BlockTuple(0, (1, 1))) == [((0, 0), (1, 1)),
                                                      ((0, 1),)]
        assert len(enumerate_ST(BlockTuple(0, (1, 1)))) == 3

    def test_singleton(self):
        assert enumerate_S(BlockTuple(3, (5,))) == [((3, 3),)]

    def test_two_columns_with_multiplicity(self):
        assert len(enumerate_ST(BlockTuple(0, (3, 1)))) == 4

    def test_refinement_needs_zero_start(self):
        with pytest.raises(SegmentError):
            enumerate_ST(BlockTuple(1, (1, 1)))

    def test_all_emitted_tuples_validate(self):
        M = BlockTuple(0, (1, 3, 1))
        for S, T in enumerate_ST(M):
            assert validate_S(M, S)
            assert validate_T(M, S, T)


class TestBuild:
    def test_eleven_row_golden(self):
        ms = build(ELEVEN_ROW_M, ELEVEN_ROW_S, ELEVEN_ROW_T, 1)
        assert render(ms) == (
            "[4,-4;4;+][2,-1;1;-][0,0;0;-][2,2;0;-][3,2;0;-]"
            "[5,5;0;-][5,5;0;-][7,5;0;-][9,8;0;+][8,8;0;-][8,8;0;-]")

    def test_overlapping_chain_golden(self):
        ms = build(BlockTuple(0, (1, 3, 1, 1)), ((0, 1), (1, 3)), None, 1)
        assert render(ms) == "[1,0;0;+][1,1;0;-][3,1;0;-]"

    def test_hat_refinement_golden(self):
        ms = build(BlockTuple(0, (1, 1)), ((0, 1),), (((0, 0), (1, 1)),), 1)
        assert render(ms) == "[1,-1;1;+][0,0;0;-]"

    def test_invalid_data_rejected(self):
        with pytest.raises(SegmentError):
            build(BlockTuple(0, (1, 1)), ((1, 1), (0, 0)))
        with pytest.raises(SegmentError):
            build(BlockTuple(1, (1, 1)), ((1, 2),), (((1, 1), (2, 2)),))

    def test_outputs_are_admissible_and_nonvanishing(self):
        for M in (BlockTuple(0, (1, 3, 1)), BlockTuple(1, (3, 3)),
                  BlockTuple(0, (5, 1, 1))):
            if M.c_min == 0:
                for S, T in enumerate_ST(M):
                    ms = build(M, S, T, 1)
                    assert validate(ms) and check_star(ms)
            else:
                for S in enumerate_S(M):
                    ms = build(M, S, None, 1)
                    assert validate(ms) and check_star(ms)

    def test_row_facts_the_lift_family_reads(self):
        """theta_family reads the kind of a row off the row: on every
        member of the default grid's blocks, with both signs, a row is a
        hat exactly when its l > 0, and when mult(c_max) > 1 the last row
        ending at c_max is a multiple, and so has B = c_max."""
        _, labels = _reference_build_labeled(BlockTuple(0, (1, 3, 1, 1)),
                                             ((0, 1), (1, 3)), None, 1)
        assert [kind for kind, _ in labels] == [CHAIN, MULTIPLE, ZCHAIN]
        tops = 0
        for M in iter_grid():
            for S, T in _members(M):
                for eta in (1, -1):
                    ms, labels = _reference_build_labeled(M, S, T, eta)
                    for r, (kind, _) in zip(ms.rows, labels):
                        assert (kind == HAT) == (r.l > 0), (M, S, T)
                    if M.mult(M.c_max) > 1:
                        last = max(i for i, r in enumerate(ms.rows)
                                   if r.A == M.c_max)
                        assert labels[last][0] == MULTIPLE, (M, S, T)
                        assert ms.rows[last].B == M.c_max
                        tops += 1
        assert tops > 500

    def test_a_z_chain_follows_a_multiple_of_its_column(self):
        """build's one sign rule rests on this law: in every member, the
        row of each z-chain (an interval of S that starts on the column c
        where the one before ends) comes right after a multiple [c, c] of
        its own column, with the same sign.  Its overlap column has
        multiplicity at least 3, and the two intervals take only two of
        its rows.  On iter_grid(6, 7, 2, 11) with both signs."""
        start = time.perf_counter()
        members = z_chains = 0
        for M in iter_grid(6, 7, 2, 11):
            for S, T in _members(M):
                T = T or trivial_T(S)
                for eta in (1, -1):
                    rows = build(M, S, T, eta).rows
                    members += 1
                    for prev, iv, parts in zip(S, S[1:], T[1:]):
                        c = iv[0]
                        if prev[1] != c:
                            continue
                        k = max(k for k, r in enumerate(rows) if r.B == c)
                        z, before = rows[k], rows[k - 1]
                        assert (z.A, z.B, z.l) == (parts[0][1], c, 0)
                        assert before == Row(c, c, 0, z.eta), (M, S, T)
                        assert M.mult(c) - 2 >= 1
                        z_chains += 1
        assert (members, z_chains) == (53818, 22144)
        assert time.perf_counter() - start < 3.0

    def test_parameter_collisions_are_exchange_equivalent(self):
        from emseg.closure import canonical
        M = BlockTuple(0, (3, 3))
        seen = {}
        collisions = 0
        for S, T in enumerate_ST(M):
            ms = build(M, S, T, 1)
            key = arthur_parameter(ms)
            if key in seen:
                assert canonical(ms) == seen[key]
                collisions += 1
            seen.setdefault(key, canonical(ms))
        assert collisions == 1


class TestTheta:
    def test_lift_prepends_wide_hat(self):
        out = theta1(build(BlockTuple(0, (1,)), ((0, 0),)))
        assert render(out) == "[1,-1;1;-][0,0;0;+]"

    def test_lift_of_the_empty_multi_segment_is_undefined(self):
        with pytest.raises(SegmentError, match=(
                "^lift of the empty multi-segment is undefined$")):
            theta1(parse(""))

    def test_family_needs_a_block_at_column_zero(self):
        with pytest.raises(SegmentError, match=(
                "^the lift family applies to blocks starting at 0$")):
            theta_family(BlockTuple(1, (1,)), ((1, 1),))
        with pytest.raises(SegmentError, match=(
                "^the lift family applies to blocks starting at 0$")):
            theta2_matches_theta4(BlockTuple(1, (1, 3)), ((1, 1), (2, 2)))

    def test_lift_flips_leading_sign(self):
        ms = build(BlockTuple(0, (1, 1)), ((0, 0), (1, 1)), None, -1)
        assert theta1(ms).rows[0].eta == 1

    def test_family_single_circle(self):
        fam = dict(theta_family(BlockTuple(0, (1,)), ((0, 0),)))
        assert set(fam) == {"theta1", "theta2", "theta3"}
        assert arthur_parameter(fam["theta2"]) == ((2, 2),)
        assert arthur_parameter(fam["theta3"]) == ((1, 1), (3, 1))
        psis = {arthur_parameter(v) for v in fam.values()}
        assert len(psis) == 3

    def test_family_covers_closure_of_lift(self):
        M = BlockTuple(0, (1,))
        lifted = theta1(tempered_block(M, 1))
        report = closure(lifted)
        family_psis = set()
        for S, T in enumerate_ST(M):
            for _, ms in theta_family(M, S, T, 1):
                family_psis.add(arthur_parameter(ms))
        assert family_psis == set(report.psi)

    def test_families_of_one_block_share_their_rows(self):
        """The lifts are members of one block with one more column, made
        once per block: two families of one member hold the same Row
        objects, and families of all the members draw on one row table."""
        M = BlockTuple(0, (1, 3, 1))
        for S, T in enumerate_ST(M):
            first, again = theta_family(M, S, T, -1), theta_family(M, S, T, -1)
            assert [tag for tag, _ in first] == [tag for tag, _ in again]
            for (_, ms), (_, ms2) in zip(first, again):
                assert len(ms.rows) == len(ms2.rows)
                assert all(map(operator.is_, ms.rows, ms2.rows))
        M1 = M._lift_block
        assert M1 is M._lift_block and M1 == BlockTuple(0, (1, 3, 1, 1))
        assert all(M1._row_table[r] is r
                   for S, T in enumerate_ST(M)
                   for _, ms in theta_family(M, S, T, 1) for r in ms.rows)

    def test_top_multiplicity_gives_fourth_member(self):
        M = BlockTuple(0, (1, 3))
        fam = dict(theta_family(M, ((0, 0), (1, 1))))
        assert set(fam) == {"theta1", "theta2", "theta3", "theta4"}

    def test_family_rejects_even_multiplicities(self, monkeypatch):
        """Each of these blocks used to fail inside a different lift step;
        now BlockTuple refuses each with one error naming the domain,
        before the member or any lift is built."""
        def unreachable(*args, **kwargs):
            raise AssertionError("built a member of an even block")

        monkeypatch.setattr(sdata, "_rows", unreachable)
        for mults in ((2,), (1, 2), (2, 1), (2, 1, 2)):
            S = ((0, len(mults) - 1),)
            with pytest.raises(SegmentError, match="odd multiplicities"):
                theta_family(BlockTuple(0, mults), S, trivial_T(S))

    def test_second_fourth_coincidence_detector(self):
        M = BlockTuple(0, (1, 3))
        assert theta2_matches_theta4(M, ((0, 0), (1, 1)))
        assert not theta2_matches_theta4(M, ((0, 1),))

    @pytest.mark.parametrize("S", [5, None, ((0, 9),), ((0, 0),), ()])
    def test_coincidence_detector_checks_its_S_tuple(self, S):
        """An S that validate_S refuses raises build's error."""
        M = BlockTuple(0, (1, 3))
        with pytest.raises(SegmentError) as exc:
            theta2_matches_theta4(M, S)
        assert type(exc.value) is SegmentError
        assert str(exc.value) == "invalid S-tuple for " + repr(M)
        with pytest.raises(SegmentError, match="^invalid S-tuple for "):
            build(M, S)

    def test_coincidence_detector_reads_lists_as_tuples(self):
        """An S of lists answers as the same S of tuples, on which
        theta_family gives theta2 and theta4 the same psi; the empty
        block, which has no top column, answers False."""
        M = BlockTuple(0, (1, 3))
        for S in (((0, 0), (1, 1)), [[0, 0], [1, 1]], [(0, 0), [1, 1]]):
            assert theta2_matches_theta4(M, S), S
            family = dict(theta_family(M, S))
            assert arthur_parameter(family["theta2"]) == arthur_parameter(
                family["theta4"]), S
        assert not theta2_matches_theta4(M, [[0, 1]])
        assert not theta2_matches_theta4(BlockTuple(0, ()), ())

    def test_coincidence_detector_refuses_non_int_endpoints(self):
        """Float endpoints that validate_S accepts raise build's and
        theta_family's ScopeError, not an answer."""
        M = BlockTuple(0, (1, 3))
        S = ((0.0, 0.0), (1.0, 1.0))
        assert validate_S(M, S)
        for call in (theta2_matches_theta4, build, theta_family):
            with pytest.raises(ScopeError, match=(
                    "^S and T endpoints must be integers, got 0.0$")):
                call(M, S)

    def test_every_lift_step_applies_at_the_row_it_reads(self):
        """On every member of iter_grid(5, 5, 0, 9) with both signs, the
        coordinate maps give the rows an operator step would read: theta1
        is theta1 of the member, with the top column added to T's last
        split; its first top-column row is a hat exactly when that split
        has two or more parts, and is then row 1, the hat theta2 merges;
        otherwise theta2, which widens the last part, has exactly one
        all-circles row reaching c_max + 1; and when mult(c_max) > 1, the
        last top-column row of theta1 is its last row, the multiple that
        theta4's overlap takes up."""
        cases, calls = set(), 0
        for M in iter_grid(5, 5, 0, 9):
            c_max = M.c_max
            for S, T in enumerate_ST(M):
                for eta in (1, -1):
                    t1 = theta1(build(M, S, T, eta))
                    family = theta_family(M, S, T, eta)
                    assert family[0] == ("theta1", t1)
                    ends = [i for i, r in enumerate(t1.rows) if r.A == c_max]
                    hat = t1.rows[ends[0]].l > 0
                    assert hat == (len(T[-1]) > 1), (M, S, T, eta)
                    if hat:
                        assert ends[0] == 1, (M, S, T, eta)
                    else:
                        t2 = family[1][1]
                        assert sum(r.A == c_max + 1 and r.l == 0
                                   for r in t2.rows) == 1, (M, S, T, eta)
                    if M.mult(c_max) > 1:
                        assert ends[-1] == len(t1.rows) - 1, (M, S, T, eta)
                    cases.add((hat, len(family)))
                    calls += 1
        assert calls == 6390
        assert cases == {(False, 3), (False, 4), (True, 3), (True, 4)}

    def test_every_lift_is_a_state_of_the_closure_of_the_lift(self):
        """The lift family arises through the operators: on
        iter_grid(6, 5, 0, 7) with both signs, every member of every family
        is a state that the closure search of theta1(tempered_block(M,
        eta)) visits, one search per block and sign."""
        members = 0
        for M in iter_grid(6, 5, 0, 7):
            for eta in (1, -1):
                table = _seed_table(theta1(tempered_block(M, eta)))
                *_, (states, _, _, stop) = _search(
                    table, _moves, DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH)
                assert stop == "exhausted"
                visited = {tuple(table.rows[i] for i in s) for s in states}
                for S, T in iter_ST(M):
                    for tag, ms in theta_family(M, S, T, eta):
                        assert ms.rows in visited, (M, S, T, eta, tag)
                        members += 1
        assert members == 7152

    def test_every_lift_is_a_member_of_the_wider_block(self, monkeypatch):
        """theta_family checks (S, T, eta) once, against M, and makes each
        lift from its mapped coordinates with no second check.  On
        iter_grid(5, 5, 0, 7) with both signs, every lift is the build of
        some valid (S, T) of M1 = M plus a column of multiplicity 1, at
        -eta, and each call runs _checked exactly once."""
        calls = []
        checked = sdata._checked

        def counted(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(sdata, "_checked", counted)
        lifts = 0
        for M in iter_grid(5, 5, 0, 7):
            M1 = BlockTuple(0, M.mults + (1,))
            for eta in (1, -1):
                wider = {build(M1, S, T, -eta) for S, T in iter_ST(M1)}
                for S, T in iter_ST(M):
                    del calls[:]
                    for tag, ms in theta_family(M, S, T, eta):
                        assert ms in wider, (M, S, T, eta, tag)
                        lifts += 1
                    assert len(calls) == 1, (M, S, T, eta)
        assert lifts == 5694

    def test_lists_build_the_family_tuples_do(self):
        """S and T given as lists of lists, which build accepts, give the
        family of the tuples, and T omitted is the trivial T."""
        M = BlockTuple(0, (1, 3))
        family = theta_family(M, [[0, 0], [1, 1]], [[[0, 0]], [[1, 1]]], -1)
        assert [(tag, render(ms)) for tag, ms in family] == [
            ("theta1", "[2,-2;2;+][0,0;0;-][1,1;0;+][1,1;0;+][1,1;0;+]"),
            ("theta2", "[0,0;0;+][2,1;0;-][1,1;0;+][1,1;0;+]"),
            ("theta3", "[0,0;0;+][1,1;0;-][1,1;0;-][1,1;0;-][2,2;0;+]"),
            ("theta4", "[0,0;0;+][1,1;0;-][1,1;0;-][2,1;0;-]")]
        assert family == theta_family(M, ((0, 0), (1, 1)),
                                      (((0, 0),), ((1, 1),)), -1)
        family = theta_family(M, [[0, 1]], [[[0, 0], [1, 1]]])
        assert [(tag, render(ms)) for tag, ms in family] == [
            ("theta1", "[2,-2;2;-][1,-1;1;+][0,0;0;-][1,1;0;-][1,1;0;-]"),
            ("theta2", "[2,-1;1;-][0,0;0;-][1,1;0;-][1,1;0;-]"),
            ("theta3", "[1,-1;1;-][0,0;0;+][1,1;0;+][1,1;0;+][2,2;0;-]"),
            ("theta4", "[1,-1;1;-][0,0;0;+][1,1;0;+][2,1;0;+]")]
        for S in (((0, 1),), [[0, 1]]):
            assert theta_family(M, S) == theta_family(M, S, trivial_T(S))

    @pytest.mark.parametrize("M, args, error, message", [
        (BlockTuple(0, ()), ((),), SegmentError,
         "lift of the empty multi-segment is undefined"),
        (BlockTuple(0, ()), ((), ()), SegmentError,
         "lift of the empty multi-segment is undefined"),
        (BlockTuple(0, ()), ([], None, -1), SegmentError,
         "lift of the empty multi-segment is undefined"),
        (BlockTuple(0, ()), (((0, 0),),), SegmentError,
         "invalid S-tuple for BlockTuple(c_min=0, mults=())"),
        (BlockTuple(0, ()), ((), (), 0), SegmentError,
         "eta must be +1 or -1, got 0"),
        (BlockTuple(0, (1, 3)), (((0, 1),), 5, 0), SegmentError,
         "invalid T-refinement"),
        (BlockTuple(0, (1, 3)), (((0, 1.0),), None, 0), ScopeError,
         "S and T endpoints must be integers, got 1.0"),
        (BlockTuple(0, (1, 3)), (((0, 1),), None, True), ScopeError,
         "eta must be an integer, got True"),
    ])
    def test_family_checks_in_builds_order(self, M, args, error, message):
        """(S, T, eta) get build's checks, in build's order, and only then
        does the empty block raise that it has no lift."""
        with pytest.raises(SegmentError) as caught:
            theta_family(M, *args)
        assert (type(caught.value), str(caught.value)) == (error, message)

    @pytest.mark.parametrize("M, args", [
        (BlockTuple(1, (1,)), (None, 5, 0)), (BlockTuple(2, ()), ((),)),
        (BlockTuple(1, (1, 3)), (((1, 1), (2, 2)),))])
    def test_a_block_past_column_zero_is_refused_before_any_build(
            self, monkeypatch, M, args):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a lift of a block past column 0")

        monkeypatch.setattr(sdata, "_rows", unreachable)
        monkeypatch.setattr(sdata, "_checked", unreachable)
        with pytest.raises(SegmentError) as caught:
            theta_family(M, *args)
        assert type(caught.value) is SegmentError
        assert str(caught.value) == (
            "the lift family applies to blocks starting at 0")


class TestMembersInTheClosure:
    """Every member of a block is a state of the closure of its tempered
    member, and the canonical members name its classes one each; so do
    the members of the block with one more column for the closure of the
    lift of the tempered member."""

    def test_the_tempered_member_has_one_column_intervals(self):
        """tempered_block(M, eta) is the member whose S cuts after every
        column, on iter_grid(6, 7, 3, 14) with both signs."""
        pairs = 0
        for M in iter_grid(6, 7, 3, 14):
            S = tuple((c, c) for c in range(M.c_min, M.c_max + 1))
            for eta in (1, -1):
                assert tempered_block(M, eta) == build(M, S, None, eta), (
                    M, eta)
                pairs += 1
        assert pairs == 3960

    @staticmethod
    def _members_name_the_classes(seed, M, eta):
        """Check that every build member of M at eta ((S, T) at c_min 0, S
        alone past it) is a state the closure search of seed visits, and
        that the canonical members (canonical_S) have distinct canonical
        keys, which are exactly the nodes of closure(seed); return the
        number of members."""
        coords = list(iter_ST(M) if M.c_min == 0
                      else zip(iter_S(M), itertools.repeat(None)))
        table = _seed_table(seed)
        *_, (states, _, _, stop) = _search(
            table, _moves, DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH)
        assert stop == "exhausted"
        visited = {tuple(table.rows[i] for i in s) for s in states}
        keys = []
        for S, T in coords:
            ms = build(M, S, T, eta)
            assert ms.rows in visited, (M, S, T, eta)
            if canonical_S(S):
                keys.append(canonical(ms))
        assert len(set(keys)) == len(keys), (M, eta)
        assert set(keys) == closure(seed).nodes, (M, eta)
        return len(coords)

    def test_every_member_is_a_state_and_names_one_class(self):
        """On iter_grid(5, 5, 1, 9) with both signs, the members of M at
        eta against the closure of tempered_block(M, eta)."""
        closures = members = 0
        for M in iter_grid(5, 5, 1, 9):
            for eta in (1, -1):
                members += self._members_name_the_classes(
                    tempered_block(M, eta), M, eta)
                closures += 1
        assert (closures, members) == (256, 8130)

    def test_the_wider_block_names_the_classes_of_the_lift(self):
        """On iter_grid(5, 5, 0, 8) with both signs, the members of
        M1 = M plus a column of multiplicity 1 at -eta against the closure
        of theta1(tempered_block(M, eta))."""
        closures = members = 0
        for M in iter_grid(5, 5, 0, 8):
            M1 = BlockTuple(0, M.mults + (1,))
            for eta in (1, -1):
                members += self._members_name_the_classes(
                    theta1(tempered_block(M, eta)), M1, -eta)
                closures += 1
        assert (closures, members) == (84, 8350)


def _small_blocks(max_cols, c_min):
    """Every block at c_min of at most max_cols columns with multiplicities
    in {1, 3, 5}."""
    for n in range(1, max_cols + 1):
        for mults in itertools.product((1, 3, 5), repeat=n):
            yield BlockTuple(c_min, mults)


def _all_pairs_validate_S(M, S):
    """The rule validate_S implemented before it became one pass over
    adjacent pairs: every interval in range, full coverage, and every pair
    of intervals weakly increasing, touching only when adjacent, with the
    later one wider and the column multiplicity above one."""
    if not S:
        return False
    lo, hi = M.c_min, M.c_max
    if any(not lo <= a <= b <= hi for a, b in S):
        return False
    covered = set()
    for a, b in S:
        covered.update(range(a, b + 1))
    if covered != set(range(lo, hi + 1)):
        return False
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            if S[i][1] > S[j][0]:
                return False
            if S[i][1] == S[j][0]:
                c = S[j][0]
                if j - i != 1 or S[j][1] == S[j][0] or M.mult(c) <= 1:
                    return False
    return True


def _filtered_S(M):
    """S-tuples from a generator that ignores the multiplicity condition on
    overlap starts, filtered by validate_S."""
    lo, hi = M.c_min, M.c_max
    out = []

    def extend(prefix, nxt):
        if nxt > hi:
            if validate_S(M, tuple(prefix)):
                out.append(tuple(prefix))
            return
        starts = [nxt, nxt - 1] if prefix else [nxt]
        for s in starts:
            for e in range(nxt, hi + 1):
                prefix.append((s, e))
                extend(prefix, e + 1)
                prefix.pop()

    extend([], lo)
    return out


@functools.lru_cache(maxsize=None)
def _upward_partitions(a, b):
    if a > b:
        return [()]
    return [((a, e),) + rest for e in range(a, b + 1)
            for rest in _upward_partitions(e + 1, b)]


def _filtered_ST(M):
    """Every S from _filtered_S with every upward partition of each of its
    intervals, filtered by validate_T."""
    return [(S, T) for S in _filtered_S(M)
            for T in itertools.product(*(_upward_partitions(a, b) for a, b in S))
            if validate_T(M, S, T)]


class TestValidByConstruction:
    """The enumerations generate only valid data, so they equal a wider
    generator filtered by validate_S and validate_T."""

    @pytest.mark.parametrize("c_min", [0, 2])
    def test_enumerate_S_equals_generate_then_filter(self, c_min):
        start = time.monotonic()
        for M in _small_blocks(6, c_min):
            assert enumerate_S(M) == _filtered_S(M), M
        assert time.monotonic() - start <= 2.0

    def test_enumerate_ST_equals_generate_then_filter(self):
        start = time.monotonic()
        for M in _small_blocks(5, 0):
            assert enumerate_ST(M) == _filtered_ST(M), M
        assert time.monotonic() - start <= 2.0

    def test_linear_validate_S_matches_all_pairs_rule(self, rng):
        accepted = 0
        for _ in range(4000):
            # validate_S reads only whether a multiplicity exceeds one.
            M = BlockTuple(rng.choice((0, 1, 2)),
                           tuple(rng.choice((1, 3, 5)) for _ in range(rng.randint(1, 5))))
            if rng.random() < 0.5:
                S = list(rng.choice(list(_reference_iter_S(M))))
                for _ in range(rng.randint(0, 2)):
                    k = rng.randrange(len(S))
                    a, b = S[k]
                    S[k] = (a + rng.randint(-1, 1), b + rng.randint(-1, 1))
            else:
                S = []
                for _ in range(rng.randint(0, 4)):
                    a = rng.randint(M.c_min - 1, M.c_max + 1)
                    S.append((a, a + rng.randint(-1, 3)))
            S = tuple(S)
            want = _all_pairs_validate_S(M, S)
            assert validate_S(M, S) == want, (M, S)
            accepted += want
        assert 500 < accepted < 3500


def _reference_iter_S(M):
    """iter_S as it was before it became a product over column boundaries:
    a depth-first walk over an explicit stack of lazy sibling iterators."""
    lo, hi = M.c_min, M.c_max
    if lo > hi:
        yield ()
        return

    def successors(c):
        ends = range(c, hi + 1)
        if c > lo and M.mult(c - 1) > 1:
            return itertools.chain(zip(itertools.repeat(c), ends),
                                   zip(itertools.repeat(c - 1), ends))
        return zip(itertools.repeat(c), ends)

    prefix = []
    stack = [successors(lo)]
    while stack:
        for iv in stack[-1]:
            if iv[1] == hi:
                yield (*prefix, iv)
            else:
                prefix.append(iv)
                stack.append(successors(iv[1] + 1))
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def _reference_partitions_of(iv, min_first):
    """_partitions_of as it was before: a bottom-up table of the
    partitions of each upper part, shared by every partition ending with
    it."""
    a, b = iv
    tails = {b + 1: [()]}
    for k in range(b, a, -1):
        tails[k] = [((k, e),) + rest for e in range(k, b + 1)
                    for rest in tails[e + 1]]
    return [((a, e),) + rest for e in range(a + min_first - 1, b + 1)
            for rest in tails[e + 1]]


def _reference_iter_ST(M):
    return itertools.chain.from_iterable(
        zip(itertools.repeat(S), itertools.product(*[
            _reference_partitions_of(iv, 2 if i and S[i - 1][1] == iv[0]
                                     else 1)
            for i, iv in enumerate(S)]))
        for S in _reference_iter_S(M))


class TestOneWalkForSplits:
    """iter_S and _partitions_of are one product over column boundaries;
    they yield what the two walks they replaced yielded, in the same
    order."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.builds(BlockTuple, st.one_of(st.just(0), st.integers(1, 3)),
                     st.lists(st.sampled_from((1, 3, 5)),
                              max_size=12).map(tuple)))
    @example(BlockTuple(0, ()))
    @example(BlockTuple(2, ()))
    def test_same_members_in_the_same_order(self, M):
        def head(members):
            return list(itertools.islice(members, 2000))

        assert head(iter_S(M)) == head(_reference_iter_S(M))
        if M.c_min == 0:
            assert head(iter_ST(M)) == head(_reference_iter_ST(M))

    def test_enumerations_refuse_an_even_multiplicity(self):
        """The walks check their block as every count method does: one
        of an even multiplicity is no block."""
        for f in (enumerate_S, enumerate_ST):
            with pytest.raises(SegmentError, match="^a block has odd "
                               "multiplicities, got 2 at column 0$"):
                f(BlockTuple(0, (2,)))

    def test_iter_ST_partitions_each_interval_once(self, monkeypatch):
        """Equal intervals recur across the S-tuples; iter_ST partitions
        each distinct (interval, least first part) once per call."""
        calls = []
        real = sdata._partitions_of

        def counted(iv, min_first):
            calls.append((iv, min_first))
            return real(iv, min_first)

        monkeypatch.setattr(sdata, "_partitions_of", counted)
        M = BlockTuple(0, (1, 3, 1, 3, 1, 1, 1, 1, 1))
        assert len(list(iter_ST(M))) == 11664
        assert len(calls) == len(set(calls)) == 57

    def test_partitions_of_every_reachable_interval(self):
        """An interval of iter_S is at least one column wide, and at least
        two when it overlaps the one before, which is when iter_ST asks
        for a first part of two columns."""
        for a in (0, 1, 3):
            for width in range(1, 11):
                iv = (a, a + width - 1)
                for min_first in (1, 2) if width > 1 else (1,):
                    assert (_partitions_of(iv, min_first)
                            == _reference_partitions_of(iv, min_first)), (
                        iv, min_first)


# The kind of each row of a member, as the reference labels them.
CHAIN, ZCHAIN, MULTIPLE, HAT = "chain", "zchain", "multiple", "hat"


def _reference_build_labeled(M, S, T, eta):
    """The construction as it read before rows were made once: the checks
    of S, T and the coverage, then Row, sign, weak_normalize and the public
    constructor, which checks every row with make_row.  Beside the member
    it gives the (kind, origin) label of each row, origin being the (i, j)
    of a chain or hat in T."""
    if not validate_S(M, S):
        raise SegmentError("invalid S-tuple for %r" % (M,))
    if T is None:
        T = trivial_T(S)
    if not validate_T(M, S, T):
        raise SegmentError("invalid T-refinement")
    covered = [c for a, b in S for c in range(a, b + 1)]
    for c in range(M.c_min, M.c_max + 1):
        if M.mult(c) < covered.count(c):
            raise SegmentError(
                "column %d covered more often than its multiplicity" % c)
    items = []
    for i, parts in enumerate(T):
        lo0, hi0 = parts[0]
        kind = ZCHAIN if (i and S[i - 1][1] == S[i][0]) else CHAIN
        items.append((Row(hi0, lo0, 0, 1), kind, (i, 0)))
        for j, (lo, hi) in enumerate(parts[1:], start=1):
            items.append((Row(hi, -lo, lo, 1), HAT, (i, j)))
    covered = [c for a, b in S for c in range(a, b + 1)]
    for c in range(M.c_min, M.c_max + 1):
        items += [(Row(c, c, 0, 1), MULTIPLE, None)] * (M.mult(c) - covered.count(c))
    rank = {CHAIN: 0, HAT: 0, MULTIPLE: 1, ZCHAIN: 2}
    items.sort(key=lambda it: (it[0].B, rank[it[1]]))
    rows, labels, sign, prev = [], [], eta, None
    for row, kind, origin in items:
        if prev is not None:
            step = (-1) ** prev[0].circles * prev[0].eta
            if kind == MULTIPLE:
                sign = -step
            elif prev[1] == MULTIPLE:
                sign = step if row.B > prev[0].B else -step
            else:
                sign = step
        row = weak_normalize(row._replace(eta=sign))
        rows.append(row)
        labels.append((kind, origin))
        prev = (row, kind)
    return MultiSegment(tuple(rows)), tuple(labels)


def _members(M):
    if M.c_min == 0:
        return enumerate_ST(M)
    return [(S, None) for S in enumerate_S(M)]


class TestBuildOnce:
    def test_same_as_public_constructor(self):
        built = 0
        for M in iter_grid():
            for S, T in _members(M):
                for eta in (1, -1):
                    ms = build(M, S, T, eta)
                    want = _reference_build(M, S, T, eta)
                    assert (ms.rows, ms.mode) == (want.rows, want.mode)
                    assert ms == MultiSegment(ms.rows)
                    assert all(type(r) is Row for r in ms.rows)
                    built += 1
        assert built > 1000

    def test_errors(self):
        M = BlockTuple(0, (1, 1))
        build(M, ((0, 1),))
        table = dict(M._row_table)
        with pytest.raises(SegmentError) as err:
            build(M, ((1, 1), (0, 0)))
        assert str(err.value) == (
            "invalid S-tuple for BlockTuple(c_min=0, mults=(1, 1))")
        with pytest.raises(SegmentError) as err:
            build(BlockTuple(1, (1, 1)), ((1, 2),), (((1, 1), (2, 2)),))
        assert str(err.value) == "invalid T-refinement"
        with pytest.raises(SegmentError) as err:
            build(M, ((0, 1),), None, 0)
        assert str(err.value) == "eta must be +1 or -1, got 0"
        # A rejected input leaves the row table as it was.
        assert M._row_table == table and len(table) == 1

    def test_non_int_endpoints_are_scope_errors(self):
        """validate_S compares endpoints by value, so 1.0 and True pass it;
        the boundary rejects them, and a non-int eta, as ScopeError."""
        M = BlockTuple(0, (1, 1))
        build(M, ((0, 0), (1, 1)), None, -1)
        table = dict(M._row_table)
        for S, T in [(((0, 0), (1.0, 1)), None),
                     (((0, 0), (True, True)), None),
                     (((0, 1),), (((0, 0), (1.0, 1)),)),
                     (((0, 1.0),), (((0, 0), (1, 1)),))]:
            with pytest.raises(ScopeError) as err:
                build(M, S, T)
            assert str(err.value).startswith(
                "S and T endpoints must be integers, got ")
        for eta in (True, 1.0):
            with pytest.raises(ScopeError) as err:
                build(M, ((0, 1),), None, eta)
            assert str(err.value) == "eta must be an integer, got %r" % (eta,)
        assert M._row_table == table and len(table) == 2

    def test_lists_of_pairs_build_as_tuples_do(self):
        """S and T may be lists, of lists or tuples, as well as tuples."""
        M = BlockTuple(0, (1, 3, 1))
        for S, T in enumerate_ST(M):
            want = build(M, S, T, -1)
            assert build(M, [list(iv) for iv in S],
                         [[list(p) for p in parts] for parts in T], -1) == want
            assert build(M, list(S), list(T), -1) == want

    def test_a_float_overlap_column_is_an_invalid_S_tuple(self):
        """An overlap reads the multiplicity of its column, so one at a
        float column makes no valid S-tuple."""
        M = BlockTuple(0, (1, 3, 1))
        assert validate_S(M, ((0, 1), (1, 2)))
        assert not validate_S(M, ((0, 1.0), (1.0, 2)))
        with pytest.raises(SegmentError, match="^invalid S-tuple for "):
            build(M, ((0, 1.0), (1.0, 2)))

    def test_equal_rows_are_one_object(self):
        """Across the members of one block, with both signs, every equal
        row is the one Row of the block's row table."""
        M = BlockTuple(0, (1, 3, 1, 3, 1))
        rows = [r for S, T in enumerate_ST(M) for eta in (1, -1)
                for r in build(M, S, T, eta).rows]
        distinct = set(rows)
        assert len(rows) > 20 * len(distinct)
        assert len({id(r) for r in rows}) == len(distinct)
        assert all(M._row_table[r] is r for r in rows)

    def test_the_row_table_keys_each_row_by_itself(self):
        """The table keeps no 4-tuple key beside a Row: each Row is its
        own key, and a plain tuple still finds it."""
        M = BlockTuple(0, (1, 3, 1, 3, 1))
        for S, T in enumerate_ST(M):
            for eta in (1, -1):
                build(M, S, T, eta)
        table = M._row_table
        assert all(key is row and type(row) is Row
                   for key, row in table.items())
        assert all(table[tuple(row)] is row for row in table)

    def test_parameters_share_the_pairs_of_the_rows(self):
        """Every pair of the Arthur parameter of every member, with both
        signs, is the ab of a Row of the block's table, and ab is (a, b)
        on every row."""
        M = BlockTuple(0, (1, 3, 1, 3, 1))
        members = [build(M, S, T, eta) for S, T in enumerate_ST(M)
                   for eta in (1, -1)]
        pairs = [pair for ms in members for pair in arthur_parameter(ms)]
        assert all(r.ab == (r.a, r.b) for ms in members for r in ms.rows)
        shared = {id(row.ab) for row in M._row_table}
        assert len(pairs) > 20 * len(shared)
        assert {id(pair) for pair in pairs} <= shared

    def test_a_set_of_parameters_holds_each_pair_once(self):
        """The set of the Arthur parameters of the 6561 members of nine
        1s at c_min 0 holds a tuple per parameter and no pair of its own:
        at most 250 traced bytes per parameter (525 with a new pair per
        row of each member, 172 with shared pairs)."""
        M = BlockTuple(0, (1,) * 9)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            psis = {arthur_parameter(build(M, S, T, 1))
                    for S, T in enumerate_ST(M)}
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(psis) == 6561
        assert held / len(psis) <= 250

    def test_the_row_table_stays_within_its_bound(self):
        """A block of n columns has at most 2n^2 rows in its table (chains
        and hats, each with either sign), and the table holds exactly the
        distinct rows its members have: with or without T, at c_min = 0 or
        past it."""
        most = 0
        for M in list(iter_grid()) + [BlockTuple(0, (1,) * 6),
                                     BlockTuple(2, (3, 1, 1, 3, 1))]:
            rows = set()
            for S, T in _members(M):
                for eta in (1, -1):
                    rows.update(build(M, S, T, eta).rows)
                    rows.update(build(M, S, None, eta).rows)
            n = len(M.mults)
            assert set(M._row_table) == rows
            assert len(rows) <= 2 * n * n
            most = max(most, len(rows) / (2 * n * n))
        assert most > 0.8

    def test_an_equal_block_builds_equal_rows(self):
        """A fresh block equal to a used one builds equal rows from its
        own table; the table is no part of equality, hash or repr."""
        M = BlockTuple(0, (1, 3, 1))
        used = [build(M, S, T, -1) for S, T in enumerate_ST(M)]
        fresh = BlockTuple(0, (1, 3, 1))
        assert "_row_table" in vars(M) and "_row_table" not in vars(fresh)
        assert (fresh, hash(fresh), repr(fresh)) == (M, hash(M), repr(M))
        again = [build(fresh, S, T, -1) for S, T in enumerate_ST(fresh)]
        assert again == used
        assert not set(map(id, fresh._row_table.values())) & set(
            map(id, M._row_table.values()))

    def test_rows_need_no_make_row(self, monkeypatch):
        """Rows of checked (S, T) are valid as built: no make_row call and
        no public MultiSegment constructor on the way."""
        made, inits = [], []
        real_make_row = core.make_row
        real_post_init = MultiSegment.__post_init__

        def counted_make_row(*args, **kwargs):
            made.append(args)
            return real_make_row(*args, **kwargs)

        def counted_post_init(self):
            inits.append(self)
            real_post_init(self)

        monkeypatch.setattr(core, "make_row", counted_make_row)
        monkeypatch.setattr(MultiSegment, "__post_init__", counted_post_init)
        M = BlockTuple(0, (1, 3, 1, 3))
        rows = 0
        for S, T in enumerate_ST(M):
            rows += len(build(M, S, T, -1).rows)
        rows += len(build(ELEVEN_ROW_M, ELEVEN_ROW_S, ELEVEN_ROW_T, 1).rows)
        for S in enumerate_S(BlockTuple(2, (3, 1, 5))):
            rows += len(build(BlockTuple(2, (3, 1, 5)), S).rows)
        assert rows > 200
        assert made == []
        assert inits == []


def _outcome(f, *args):
    """("ok", rows, mode, element types) or (exception type, message)."""
    try:
        ms = f(*args)
    except (SegmentError, TypeError) as e:
        return type(e), str(e)
    return ("ok", ms.rows, ms.mode,
            {type(x) for r in ms.rows for x in (r, *r)})


def _reference_build(M, S, T, eta):
    return _reference_build_labeled(M, S, T, eta)[0]


def _has_non_int(S, T):
    ends = [x for iv in S for x in iv]
    ends += [x for parts in T or () for p in parts for x in p]
    return any(type(x) is not int for x in ends)


def _checks_pass(M, S, T):
    try:
        return validate_S(M, S) and (T is None or validate_T(M, S, T))
    except (SegmentError, TypeError):
        return False


def _broken_member(rng):
    """A random (M, S, T, eta) of a small block, then zero to three of:
    a bool or float endpoint, a non-plain eta and an endpoint moved by one
    (an invalid S or T)."""
    c_min = rng.choice((0, 0, 1))
    M = BlockTuple(c_min, tuple(rng.choice((1, 3))
                                for _ in range(rng.randint(1, 4))))
    S0 = rng.choice(enumerate_S(M))
    S, T = [list(iv) for iv in S0], None
    if c_min == 0 and rng.random() < 0.7:
        T0 = rng.choice([T0 for S1, T0 in enumerate_ST(M) if S1 == S0])
        T = [[list(p) for p in parts] for parts in T0]
    eta = rng.choice((1, -1))
    for _ in range(rng.randint(0, 3)):
        k = rng.random()
        iv = rng.choice(S if T is None or rng.random() < 0.5
                        else [p for parts in T for p in parts])
        j = rng.randrange(2)
        if k < 0.2:
            if iv[j] in (0, 1):
                iv[j] = bool(iv[j])
        elif k < 0.4:
            iv[j] = float(iv[j])
        elif k < 0.55:
            eta = rng.choice((True, 2, 1.0, 0))
        else:
            iv[j] += rng.choice((-1, 1))
    S = tuple(map(tuple, S))
    if T is not None:
        T = tuple(tuple(map(tuple, parts)) for parts in T)
    return M, S, T, eta


class TestBuildAgainstReference:
    def test_broken_inputs(self, rng):
        """Every input gives the reference's rows and mode, or its
        exception type and message; one whose S or T passes the checks with
        a non-int endpoint gives ScopeError instead (the reference let a
        float in S escape as TypeError)."""
        seen = set()
        for _ in range(3000):
            M, S, T, eta = _broken_member(rng)
            got = _outcome(build, M, S, T, eta)
            if _checks_pass(M, S, T) and _has_non_int(S, T):
                assert got[0] is ScopeError, (M, S, T, eta, got)
                assert got[1].startswith("S and T endpoints must be integers")
                seen.add("non-int endpoint")
                continue
            want = _outcome(_reference_build, M, S, T, eta)
            assert got == want, (M, S, T, eta)
            if want[0] == "ok":
                assert got[3] == {Row, int}
                seen.add("ok")
            else:
                seen.add(want[1].split(",")[0].split(" got")[0])
        assert seen >= {
            "ok", "non-int endpoint", "invalid S-tuple for BlockTuple(c_min=0",
            "invalid T-refinement", "eta must be +1 or -1",
            "eta must be an integer"}, seen


# Any value of a few small nested tuples, lists and dicts, of ints,
# floats, bools, strings and None.
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats()
    | st.text("0123", max_size=2),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.integers(0, 2), inner, max_size=2)),
    max_leaves=12)


class TestMalformedCoordinates:
    """validate_S and validate_T answer False, and raise nothing, for
    anything that is not a tuple or list of (a, b) pairs, so build raises
    its "invalid S-tuple" or "invalid T-refinement" SegmentError."""

    M = BlockTuple(0, (1, 1, 1))

    @pytest.mark.parametrize("S", [
        ((0,),), ((0, 2, 5),), (0,), 5, None, "02", (), [],
        ((0, None),), ((0, "2"),), ((None, 2),), (("0", "2"),),
        ({0: 0, 1: 2},), (frozenset((0, 2)),), ([0, [2]],),
        ((0, 0), (1, 2), 5), ((0, 0), (1,)), iter([(0, 2)]),
    ])
    def test_malformed_S(self, S):
        assert validate_S(self.M, S) is False
        with pytest.raises(SegmentError) as err:
            build(self.M, S)
        assert type(err.value) is SegmentError
        assert str(err.value) == (
            "invalid S-tuple for BlockTuple(c_min=0, mults=(1, 1, 1))")

    @pytest.mark.parametrize("T", [
        5, ((5,),), (((0, 2, 9),),), (((0, 2),), ((0, 2),)), (), "0",
        ((),), (((0,),),), (((0, None),),), ((("0", 2),),),
        (({0: 0, 1: 2},),), ((frozenset((0, 2)),),), (((0, 0), (1, 2), 5),),
        (iter([(0, 2)]),), ((0, 2),),
    ])
    def test_malformed_T(self, T):
        S = ((0, 2),)
        assert validate_T(self.M, S, T) is False
        with pytest.raises(SegmentError) as err:
            build(self.M, S, T)
        assert type(err.value) is SegmentError
        assert str(err.value) == "invalid T-refinement"

    def test_validate_T_of_a_malformed_S(self):
        for S in (5, None, ((0,),), ((0, 2, 5),), ({0: 0, 1: 2},)):
            assert validate_T(self.M, S, (((0, 2),),)) is False
        # No parts split only an empty interval, which no valid S has.
        assert validate_T(self.M, ((0, 1), (1, 0)), (((0, 1),), ())) is False

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_ANY, st.one_of(st.none(), _ANY))
    def test_any_value_is_answered(self, S, T):
        """Any S, beside any T or its one-part refinement, gets a bool from
        each validator, and build returns or raises a SegmentError."""
        one_part = (tuple((iv,) for iv in S)
                    if isinstance(S, (tuple, list)) else S)
        for M in (self.M, BlockTuple(0, (3, 1))):
            assert validate_S(M, S) in (True, False)
            for refinement in (T, one_part):
                assert validate_T(M, S, refinement) in (True, False)
                try:
                    build(M, S, refinement)
                except SegmentError as e:
                    assert str(e)


@st.composite
def members(draw):
    """A valid (M, S, T, eta), drawn so that it shrinks towards few
    columns, multiplicity 1, no overlaps and one-column parts: S by its
    interval ends and overlap starts, T (at c_min = 0) by the ends of each
    interval's parts."""
    c_min = draw(st.sampled_from((0, 1, 2)))
    M = BlockTuple(c_min, tuple(draw(st.lists(
        st.sampled_from((1, 3, 5)), min_size=1, max_size=6))))
    S = []
    nxt = M.c_min
    while nxt <= M.c_max:
        overlap = bool(S) and M.mult(nxt - 1) > 1 and draw(st.booleans())
        S.append((nxt - 1 if overlap else nxt,
                  draw(st.integers(nxt, M.c_max))))
        nxt = S[-1][1] + 1
    S = tuple(S)
    T = None
    if c_min == 0:
        T = []
        for i, (a, b) in enumerate(S):
            wide = 2 if i and S[i - 1][1] == a else 1
            parts = [(a, draw(st.integers(a + wide - 1, b)))]
            while parts[-1][1] < b:
                k = parts[-1][1] + 1
                parts.append((k, draw(st.integers(k, b))))
            T.append(tuple(parts))
        T = tuple(T)
    return M, S, T, draw(st.sampled_from((1, -1)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(members())
def test_build_of_any_member(member):
    """A member's rows equal the reference's and pass make_row unchanged,
    its order is admissible and non-vanishing, and (at c_min = 0) its lift
    family has three or four members of strict, admissible rows."""
    M, S, T, eta = member
    assert validate_S(M, S) and (T is None or validate_T(M, S, T))
    ms = build(M, S, T, eta)
    want = _reference_build(M, S, T, eta)
    assert (ms.rows, ms.mode) == (want.rows, want.mode)
    assert all(make_row(*r) == r for r in ms.rows)
    assert validate(ms) and check_star(ms)
    if M.c_min == 0:
        family = theta_family(M, S, T, eta)
        assert len(family) == (4 if M.mult(M.c_max) > 1 else 3)
        for _, lifted in family:
            assert all(make_row(*r) == r for r in lifted.rows)
            assert validate(lifted)
