"""Breadth-first class exploration and canonical forms."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import emseg

from emseg.blocks import (
    TYPE3, BlockTuple, block_decompose, block_tuples, classify_boundary,
    tempered_block,
)
from emseg.closure import (
    DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, LimitError, _Rows,
    _as_multisegment, _moves, _search, _valid_state, are_equivalent,
    canonical, closure, exchange_neighbors, neighbors,
)
from emseg.core import (
    RELAXED, STRICT, MultiSegment, Row, SegmentError, arthur_parameter,
    check_star, group_sign, make_row, order_sorted, parse, render,
    row_is_strict,
)
from emseg.count import count_block_recursive, count_tempered, iter_grid
from emseg.ops import (
    _supports_nest, dual, dual_rows, exchange_pair, row_exchange,
    split_circles, split_points, to_sorted, ui,
)
from emseg.sdata import (
    build, enumerate_ST, iter_S, iter_ST, theta1, theta_family,
)

from conftest import rand_mode_ms, rand_sorted_ms, rand_tempered

X1 = "[0,0;0;+][1,1;0;-]"
X1_PSIS = {((1, 1), (3, 1)), ((1, 1), (1, 3)), ((2, 2),)}
# Symbols with a later block at c_min 0, and their number of Arthur
# parameters.
LATER_AT_ZERO = [
    ("[0,0;0;+][0,0;0;+][1,1;0;-][1,1;0;-][1,1;0;-]", 2),
    ("[0,0;0;-][0,0;0;-][1,1;0;+][3,3;0;-][3,3;0;-][4,4;0;+][4,4;0;+]"
     "[4,4;0;+]", 4)]


@st.composite
def tempered_blocks(draw, max_rows=9):
    """A block of at most max_rows rows at c_min 0 to 2; it shrinks
    towards one column of multiplicity 1 at c_min 0."""
    mults, left = [], max_rows
    while left and (not mults or draw(st.booleans())):
        mults.append(draw(st.sampled_from((1, 3, 5)[:(left + 1) // 2])))
        left -= mults[-1]
    return BlockTuple(draw(st.integers(0, 2)), tuple(mults))


@st.composite
def tempered_symbols(draw, max_rows=9):
    """A tempered symbol of at most max_rows rows: columns of one to three
    single circles of one sign each, from column 0 to 2 on, with gaps of
    at most one column.  It shrinks towards few columns of one circle."""
    col = draw(st.integers(0, 2))
    rows = []
    while len(rows) < max_rows and (not rows or draw(st.booleans())):
        rows += [Row(col, col, 0, draw(st.sampled_from((1, -1))))] * draw(
            st.integers(1, 3))
        col += 1 + draw(st.integers(0, 1))
    return MultiSegment(tuple(rows[:max_rows]))


def _join(psis):
    """One Arthur parameter of a symbol from one parameter of each block."""
    return tuple(sorted(itertools.chain(*psis)))


def _block_packets(seed):
    """The Arthur parameters each block of the tempered symbol seed
    contributes: the (S, T) members' when the first block starts at 0,
    and every other block's S-only members', built with the trivial T."""
    packets = []
    for i, (M, eta) in enumerate(block_tuples(seed)):
        members = (iter_ST(M) if i == M.c_min == 0
                   else zip(iter_S(M), itertools.repeat(None)))
        packets.append({arthur_parameter(build(M, S, T, eta))
                        for S, T in members})
    return packets


def _joined_packets(seed):
    """The sorted joins of one parameter from each block's packet."""
    return set(map(_join, itertools.product(*_block_packets(seed))))


@pytest.fixture(scope="module")
def grid_closures():
    """(seed, closure report) for every grid instance, both signs."""
    seeds = [tempered_block(M, eta) for M in iter_grid() for eta in (1, -1)]
    return [(seed, closure(seed)) for seed in seeds]


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

    def test_psi_shares_the_pairs_of_the_table_rows(self, monkeypatch):
        """Every pair of every psi of a closure is the ab of a Row of the
        search's row table, and ab is (a, b) on each of them: from the
        tempered block (1,3,1,3,1) at 0, its lift and every ninth member,
        with both signs."""
        tables = []

        def kept(ms):
            tables.append(real(ms))
            return tables[-1]

        module = sys.modules["emseg.closure"]
        real = module._seed_table
        monkeypatch.setattr(module, "_seed_table", kept)
        M = BlockTuple(0, (1, 3, 1, 3, 1))
        for eta in (1, -1):
            seed = tempered_block(M, eta)
            seeds = [seed, theta1(seed)] + [
                build(M, S, T, eta) for S, T in enumerate_ST(M)[::9]]
            for seed in seeds:
                report = closure(seed)
                rows = tables.pop().rows
                assert all(row.ab == (row.a, row.b) for row in rows)
                shared = {id(row.ab) for row in rows}
                assert report.exhausted and len(report.psi) > 1
                assert all(id(pair) in shared
                           for psi in report.psi for pair in psi)

    def test_any_node_seeds_the_same_class(self, grid_closures):
        """A closure re-seeded from any of its node keys finds the same
        nodes and psi, which makes are_equivalent symmetric: three random
        node keys of every grid closure, both signs."""
        rng = random.Random(20261019)
        start = time.perf_counter()
        reseeded = 0
        for _, report in grid_closures:
            for key in rng.sample(sorted(report.nodes),
                                  min(3, len(report.nodes))):
                other = closure(parse(key.decode()))
                assert other.nodes == report.nodes, key
                assert other.psi == report.psi, key
                reseeded += 1
        assert reseeded == 476
        assert time.perf_counter() - start < 3.0

    def test_stopped_closure_keys_are_least_visited_keys(self):
        """At a limit each node is the least key among the visited states
        of one exchange component.  The state that holds the canonical key
        may lie past the limit, so a node can differ from canonical of its
        own state; the full closure has the canonical key as its node."""
        seed = theta1(tempered_block(BlockTuple(0, (1, 1, 1, 3)), 1))
        report = closure(seed, max_states=30)
        assert (report.stop, report.states, len(report.nodes)) == (
            "states", 30, 20)
        off = {key: canonical(parse(key.decode())) for key in report.nodes}
        off = {key: least for key, least in off.items() if key != least}
        assert off == {
            b"[3,3;0;-][4,0;1;+][3,3;0;-]": b"[3,3;0;-][3,3;0;-][4,0;0;-]",
            b"[0,0;0;-][4,1;0;+][3,3;0;-][3,3;0;-]":
                b"[0,0;0;-][3,3;0;+][3,3;0;+][4,1;0;+]",
            b"[1,0;0;-][4,2;0;-][3,3;0;-][3,3;0;-]":
                b"[1,0;0;-][3,3;0;-][3,3;0;-][4,2;0;-]"}
        assert set(off.values()) <= closure(seed).nodes

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

    def test_stop_names_what_stopped_the_search(self):
        """X1's class has 3 states, at depths 0, 1 and 2.  A state limit
        stops the search only when a new state lies past it, and a depth
        limit whenever a level is left unexpanded."""
        stops = {limits: (r.stop, r.states, r.exhausted)
                 for limits in [(), (3,), (2,), (100000, 0), (100000, 1),
                                (100000, 2), (2, 1)]
                 for r in [closure(parse(X1), *limits)]}
        assert stops == {
            (): ("exhausted", 3, True), (3,): ("exhausted", 3, True),
            (2,): ("states", 2, False), (100000, 0): ("depth", 1, False),
            (100000, 1): ("depth", 2, False), (100000, 2): ("depth", 3, False),
            (2, 1): ("depth", 2, False)}

    def test_rejects_vanishing_seed(self):
        with pytest.raises(SegmentError):
            closure(parse("[2,-2;1;+]"))

    def test_calls_no_make_row(self, monkeypatch):
        """The search stores the rows the row-level cores built; make_row
        is not called, in full runs or in runs cut by either limit."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return make_row(*args, **kwargs)

        seed = theta1(tempered_block(BlockTuple(0, (1, 3, 1)), 1))
        for name, module in list(sys.modules.items()):
            if name.startswith("emseg") and hasattr(module, "make_row"):
                monkeypatch.setattr(module, "make_row", counted)
        reports = [closure(seed), closure(seed, 8), closure(seed, 100000, 2)]
        assert [(r.states, r.exhausted, r.stop) for r in reports] == [
            (66, True, "exhausted"), (8, False, "states"), (7, False, "depth")]
        assert calls == []


# The peak resident memory, in MB, of a child process that runs the
# closure of twelve 1s to 30 000 states: 34.8 MB measured on CPython
# 3.11.7, plus a margin of 5.2 MB (see CHANGES.md).  A regression guard:
# never raise it to let a change through.
STATE_LIMIT_RSS_MB = 40


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak resident memory from /proc")
def test_state_limit_memory():
    """The closure of twelve 1s stops at a state limit of 30 000 with as
    many nodes, within STATE_LIMIT_RSS_MB of peak resident memory for its
    whole process.  The child reads its own VmHWM, which starts afresh
    at exec, where ru_maxrss keeps the forking test process's peak."""
    code = (
        "from emseg.blocks import BlockTuple, tempered_block\n"
        "from emseg.closure import closure\n"
        "report = closure(tempered_block(BlockTuple(0, (1,) * 12), 1),"
        " max_states=30000)\n"
        "peak = [line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')]\n"
        "print(report.stop, report.states, len(report.nodes), *peak)\n")
    src = str(Path(emseg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    stop, states, nodes, peak_kb = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60,
        capture_output=True, text=True).stdout.split()
    assert (stop, states, nodes) == ("states", "30000", "30000")
    assert int(peak_kb) < STATE_LIMIT_RSS_MB * 1024


def _reference_states(seed, max_states, max_depth):
    """The closure search written plainly on the public operators, as
    ({rows: state} of the visited states, exhausted): the valid states
    among _reference_moves per state."""
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
            for cand in _reference_outs(state):
                if cand.rows in seen or not _valid_state(cand.rows):
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
    return seen, exhausted


def _reference_closure(seed, max_states, max_depth):
    """_reference_states, then one union-find over the row_exchange
    results of every visited state."""
    seen, exhausted = _reference_states(seed, max_states, max_depth)
    parent = {rows: rows for rows in seen}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rows, state in seen.items():
        for nb in _reference_exchanges(state):
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
    # The Type3 seed is the block (1, 1, 1) followed, one column on, by
    # (1, 3, 1) with the sign repeated: 117 states in 45 classes.
    TYPE3_SEED = MultiSegment(tempered_block(BlockTuple(0, (1, 1, 1)), 1).rows
                              + tempered_block(BlockTuple(3, (1, 3, 1)), 1).rows)
    SEEDS = [
        tempered_block(BlockTuple(0, (3, 3, 3)), 1),
        tempered_block(BlockTuple(0, (1, 3, 1, 1)), -1),
        theta1(tempered_block(BlockTuple(0, (1, 1, 1, 1)), 1)),
        TYPE3_SEED,
        theta1(tempered_block(BlockTuple(0, (1, 3, 1)), 1)),
    ]

    def test_type3_seed_has_two_blocks(self):
        first, second = block_decompose(self.TYPE3_SEED)
        assert classify_boundary(first, second).kind == TYPE3

    # (8, 64) stops on an exchange move of the (3, 3, 3) seed's fourth
    # state; a later exchange of that state leads to a visited state, an
    # edge _component_keys looks up, since the search records no edges for
    # the state it stops in.  (100000, 0) expands nothing, so it stops on
    # depth with the seed alone.
    @pytest.mark.parametrize("limits", [
        (100000, 64), (1, 64), (10, 64), (30, 64), (100000, 1), (100000, 2),
        (25, 3), (8, 64), (7, 64), (100000, 0),
    ])
    def test_truncated_and_exhausted_runs(self, limits):
        for seed in self.SEEDS:
            report = closure(seed, *limits)
            assert (report.nodes, report.psi, report.states,
                    report.exhausted) == _reference_closure(seed, *limits)

    def test_closure_and_canonical_agree(self):
        """closure and canonical run one loop, _search.  On every state of
        these exhausted searches canonical gives the least key of the
        state's component under the public row_exchange, and these keys
        are closure's nodes."""
        start = time.perf_counter()
        for seed in self.SEEDS:
            table = _Rows(seed.rows)
            *_, (states, _, _, stop) = _search(
                table, _moves, DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH)
            assert stop == "exhausted"
            members = {ms.rows: ms for ms in (
                MultiSegment(tuple(table.rows[i] for i in s)) for s in states)}
            parent = {rows: rows for rows in members}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for rows, ms in members.items():
                for nb in _reference_exchanges(ms):
                    if nb.rows in members:
                        parent[find(nb.rows)] = find(rows)
            least = {}
            for rows, ms in members.items():
                root, key = find(rows), render(ms).encode()
                least[root] = min(least.get(root, key), key)
            keys = {rows: canonical(ms) for rows, ms in members.items()}
            assert keys == {rows: least[find(rows)] for rows in members}
            assert set(keys.values()) == closure(seed).nodes
        assert time.perf_counter() - start < 1.0

    def test_one_exchange_class_per_parameter(self, rng, grid_closures):
        """Within these closures the Arthur parameter picks out one
        row-exchange class: on the grid (both signs), on the lifts of its
        c_min = 0 blocks and on random multi-block seeds.  It does not in
        general (see test_two_exchange_classes_can_share_a_parameter)."""
        start = time.perf_counter()
        seeds = [theta1(tempered_block(M, 1))
                 for M in iter_grid() if M.c_min == 0]
        while len(seeds) < 243:
            ms = rand_tempered(rng, max_cols=5, max_mult=3)
            if len(ms.rows) <= 9 and len(block_tuples(ms)) >= 2:
                seeds.append(ms)
        reports = grid_closures + [(seed, closure(seed)) for seed in seeds]
        for seed, report in reports:
            assert report.exhausted
            assert len(report.nodes) == len(report.psi), render(seed)
        assert len(reports) == 415
        assert time.perf_counter() - start < 4.0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.builds(tempered_block, tempered_blocks(),
                     st.sampled_from((1, -1))))
    def test_tempered_block_closures_have_one_node_per_parameter(self, seed):
        """On tempered block seeds of at most 9 rows the closure has as
        many nodes as Arthur parameters."""
        report = closure(seed)
        assert report.exhausted
        assert len(report.nodes) == len(report.psi)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(tempered_symbols())
    def test_product_rule_counts_the_closure(self, seed):
        """On multi-block tempered symbols of at most 9 rows the product
        over the blocks counts the parameters of the closure."""
        assume(len(block_tuples(seed)) >= 2)
        report = closure(seed)
        assert report.exhausted
        assert count_tempered(seed).value == len(report.psi)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(tempered_symbols())
    @example(parse(LATER_AT_ZERO[0][0]))
    @example(parse(LATER_AT_ZERO[1][0]))
    def test_product_rule_joins_the_block_packets(self, seed):
        """On multi-block tempered symbols of at most 9 rows, later blocks
        at c_min 0 among them, the closure's parameters are the sorted
        joins of one parameter from each block's packet (_block_packets)."""
        assume(len(block_tuples(seed)) >= 2)
        assert set(closure(seed).psi) == _joined_packets(seed), render(seed)

    def test_a_later_block_at_column_0_joins_its_s_only_packet(self):
        """A later block at c_min 0 contributes the parameters of its S-only
        members, as count_tempered counts it, not those of its own closure,
        which follows the column-0 rule."""
        for text, size in LATER_AT_ZERO:
            seed = parse(text)
            later = [bt for bt, _ in block_tuples(seed)[1:] if bt.c_min == 0]
            assert later, text
            joined = _joined_packets(seed)
            assert len(joined) == size == count_tempered(seed).value
            assert joined == set(closure(seed).psi), text
            own = [closure(block).psi for block in block_decompose(seed)]
            assert len(set(map(_join, itertools.product(*own)))) > size

    def test_lift_adds_a_column_of_one(self):
        """The closure of the theta1 lift of a c_min 0 block M holds the
        parameters of M's lift family, and as many as the recursion counts
        for M with one more column, of multiplicity 1."""
        start = time.perf_counter()
        instances = 0
        for M in iter_grid(6, 5, 0, 7):
            for eta in (1, -1):
                report = closure(theta1(tempered_block(M, eta)))
                family = {arthur_parameter(member)
                          for S, T in enumerate_ST(M)
                          for _, member in theta_family(M, S, T, eta)}
                assert report.exhausted and set(report.psi) == family, (M, eta)
                wider = BlockTuple(0, M.mults + (1,))
                assert len(report.psi) == count_block_recursive(wider).value
                instances += 1
        assert instances == 62
        assert time.perf_counter() - start < 4.0

    def test_two_exchange_classes_can_share_a_parameter(self):
        """Two of the three nodes of this closure have one Arthur
        parameter, and each is its own canonical form: the nodes come from
        the union-find over exchange edges, not from grouping on psi."""
        seed = parse("[2,-2;2;-][0,0;0;+][0,0;0;+][1,1;0;-]")
        report = closure(seed)
        assert (report.states, len(report.nodes), len(report.psi)) == (8, 3, 2)
        psi = ((1, 1), (1, 1), (1, 5), (3, 1))
        shared = {key for key in report.nodes
                  if arthur_parameter(parse(key.decode())) == psi}
        assert shared == {b"[0,0;0;+][0,0;0;+][1,1;0;-][2,-2;2;-]",
                          b"[2,-2;2;-][0,0;0;+][0,0;0;+][1,1;0;-]"}
        assert all(canonical(parse(key.decode())) == key for key in shared)
        assert (report.nodes, report.psi, report.states,
                report.exhausted) == _reference_closure(seed, 100000, 64)

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


def _rows_exchanged(rows, k):
    """rows with exchange_pair at k, k + 1, or None where the supports do
    not nest and the exchange is not defined."""
    if rows is None or not _supports_nest(rows[k], rows[k + 1]):
        return None
    return rows[:k] + exchange_pair(rows[k], rows[k + 1]) + rows[k + 2:]


class TestExchangeLaws:
    def test_exchanges_act_on_the_orders_of_the_rows(self):
        """On every state of the grid's closures, both signs:
        exchange_pair is an involution; the braid relation
        R_k R_k+1 R_k = R_k+1 R_k R_k+1 holds wherever both sides are
        defined; and no exchange class holds two states with the same
        order of supports.  A key of each class by the (B, A) sort of its
        rows would rest on these laws (ROADMAP item 12); off the grid
        they fail (see CHANGES.md)."""
        start = time.perf_counter()
        states_seen = involutions = braids = 0
        for M in iter_grid():
            for eta in (1, -1):
                table = _Rows(tempered_block(M, eta).rows)
                *_, (states, _, edges, stop) = _search(
                    table, _moves, DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH)
                assert stop == "exhausted"
                links = [[] for _ in states]
                for i, ids in enumerate(states):
                    rows = tuple(table.rows[j] for j in ids)
                    for k in range(len(rows) - 1):
                        once = _rows_exchanged(rows, k)
                        if once is not None:
                            assert _rows_exchanged(once, k) == rows
                            involutions += 1
                    for k in range(len(rows) - 2):
                        left = _rows_exchanged(_rows_exchanged(
                            _rows_exchanged(rows, k), k + 1), k)
                        right = _rows_exchanged(_rows_exchanged(
                            _rows_exchanged(rows, k + 1), k), k + 1)
                        if left is not None and right is not None:
                            assert left == right, render(MultiSegment(rows))
                            braids += 1
                    for j in edges[i]:
                        links[i].append(j)
                        links[j].append(i)
                states_seen += len(states)
                seen = set()
                for i in range(len(states)):
                    if i in seen:
                        continue
                    members, todo = set(), [i]
                    while todo:
                        j = todo.pop()
                        if j not in members:
                            members.add(j)
                            todo += links[j]
                    seen |= members
                    orders = {tuple((table.rows[j].B, table.rows[j].A)
                                    for j in states[m]) for m in members}
                    assert len(orders) == len(members)
        assert (states_seen, involutions, braids) == (5146, 19862, 10760)
        assert time.perf_counter() - start < 3.0


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

    def test_exchange_neighbors_are_the_applied_row_exchanges(
            self, grid_closures, rng):
        """exchange_neighbors is row_exchange at every position, keeping
        each applied result that changes the rows, in position order and
        in its mode: on every node of the grid closures (both signs) and
        on random multi-segments of either mode, in any order."""
        inputs = [parse(key.decode()) for _, report in grid_closures
                  for key in report.nodes]
        inputs += [rand_mode_ms(rng, mode, sort=False)
                   for mode in (STRICT, RELAXED) for _ in range(300)]
        modes = set()
        for ms in inputs:
            expected = []
            for k in range(len(ms) - 1):
                try:
                    res = row_exchange(ms, k)
                except SegmentError:  # the pair does not nest
                    continue
                if res.applied and res.out.rows != ms.rows:
                    expected.append((res.out.rows, res.out.mode))
            got = [(n.rows, n.mode) for n in exchange_neighbors(ms)]
            assert got == expected, render(ms)
            modes.update(mode for _, mode in got)
        assert modes == {STRICT, RELAXED}


def _candidates(ms):
    """Every move of ms as a multi-segment, before the validity filter."""
    table = _Rows(ms.rows)
    return [_as_multisegment(table, cand)
            for cand, _ in _moves(table, table.seed)]


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
                    for cand in _candidates(state):
                        self._check(cand)
                        if cand.rows not in seen and _valid_state(cand.rows):
                            seen.add(cand.rows)
                            nxt.append(cand)
                frontier = nxt
            assert len(seen) == closure(seed).states

    def test_relaxed_candidates_are_tagged_relaxed(self, rng):
        modes = set()
        for _ in range(300):
            ms = rand_sorted_ms(rng, require_star=True)
            for cand in _candidates(ms):
                self._check(cand)
                modes.add(cand.mode)
        assert modes == {STRICT, RELAXED}


def _ui_and_splits(ms):
    """What ui and split_circles give on ms, in search order."""
    outs = [res.out for res in (ui(ms, k) for k in range(len(ms.rows) - 1))
            if res.applied]
    for k, r in enumerate(ms.rows):
        if r.l == 0:
            for X in range(r.B, r.A):
                try:
                    outs.append(split_circles(ms, k, X))
                except SegmentError:
                    pass
    return outs


def _reference_exchanges(ms):
    """The row_exchange results that change ms, in search order."""
    outs = []
    for k in range(len(ms.rows) - 1):
        try:
            res = row_exchange(ms, k)
        except SegmentError:
            continue
        if res.applied and res.out.rows != ms.rows:
            outs.append(res.out)
    return outs


def _reference_outs(ms):
    """Every move of ms through the public operators, in search order:
    exchanges that change ms, ui and splits, and, on (P')-sorted input,
    ui and splits of the dual brought back by to_sorted and dual."""
    outs = _reference_exchanges(ms) + _ui_and_splits(ms)
    if order_sorted(ms.rows):
        for moved in _ui_and_splits(dual(ms)):
            try:
                outs.append(dual(to_sorted(moved)))
            except SegmentError:
                pass
    return outs


def _reference_moves(ms):
    """The rows of _reference_outs."""
    return [out.rows for out in _reference_outs(ms)]


def _table_moves(ms):
    """The table, the ids of ms and the moves _moves gives on them, with
    each candidate mapped back to rows: (table, ids, [(rows, cand)])."""
    table = _Rows(ms.rows)
    ids = table.seed
    return table, ids, [(tuple(table.rows[i] for i in cand), cand)
                        for cand, _ in _moves(table, ids)]


def _flags_are_validity(table, moves):
    """Whether, on every (rows, cand) of moves, the ok flags of the ids,
    the one check _search makes of a new candidate, agree with
    _valid_state; moves come from a valid state."""
    return all(all(table.ok[i] for i in cand) == _valid_state(rows)
               for rows, cand in moves)


class TestMoves:
    def test_moves_are_the_public_operators_moves(self, rng):
        """_moves yields what the public operators give, in the same order;
        on a valid state the ok flags of each candidate's ids agree with
        _valid_state.  The table's dual of the state and of every
        (P')-sorted candidate is dual_rows'."""
        start = time.perf_counter()
        checked = duals = 0
        for i in range(500):
            star = i % 2 == 0
            if i % 4 < 2:
                ms = rand_sorted_ms(rng, require_star=star)
            else:
                ms = rand_mode_ms(rng, RELAXED, require_star=star)
            table, ids, moves = _table_moves(ms)
            assert [rows for rows, _ in moves] == _reference_moves(ms)
            for rows, cand in [(ms.rows, ids)] + moves:
                if order_sorted(rows):
                    dualized = tuple(table.rows[i] for i in table.dual(cand))
                    assert dualized == tuple(dual_rows(rows))
                    duals += 1
            if _valid_state(ms.rows):
                assert _flags_are_validity(table, moves), render(ms)
                checked += len(moves)
        assert checked > 500 and duals > 500
        assert time.perf_counter() - start < 2.0

    @settings(derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_moves_keep_the_invariants(self, rand):
        """On a strict, non-vanishing, sorted state every _moves candidate
        keeps the sum of a * b over the rows and the parity of the sum of
        a, which fixes each row's dual_flip for the whole search (_Rows
        keeps one dual per id); every row exchange keeps the multiset psi
        of (a, b), so psi is one per exchange class."""
        ms = rand_sorted_ms(rand, require_star=True)
        table = _Rows(ms.rows)
        area = sum(r.a * r.b for r in ms.rows)
        parity = sum(r.a for r in ms.rows) % 2
        psi = sorted((r.a, r.b) for r in ms.rows)
        for cand, exchange in _moves(table, table.seed):
            rows = [table.rows[i] for i in cand]
            assert sum(r.a * r.b for r in rows) == area, (ms, rows)
            assert sum(r.a for r in rows) % 2 == parity, (ms, rows)
            if exchange:
                assert sorted((r.a, r.b) for r in rows) == psi, (ms, rows)

    def test_unsorted_states_keep_their_moves(self):
        """Many of the closure's states are admissible but unsorted; their
        moves match the public operators too."""
        seed = theta1(tempered_block(BlockTuple(0, (1, 3, 1)), 1))
        seen = {seed.rows}
        frontier = [seed]
        unsorted = 0
        while frontier:
            nxt = []
            for state in frontier:
                unsorted += not order_sorted(state.rows)
                table, _, moves = _table_moves(state)
                assert [r for r, _ in moves] == _reference_moves(state)
                assert _flags_are_validity(table, moves), render(state)
                for nb in neighbors(state):
                    if nb.rows not in seen:
                        seen.add(nb.rows)
                        nxt.append(nb)
            frontier = nxt
        assert len(seen) == 66 and unsorted >= 20

    def test_flags_of_a_candidate_are_its_validity(self, grid_closures):
        """_search checks a new candidate by the ok flags of its ids alone,
        which is _valid_state of it because no move of a valid state breaks
        (P): so on every candidate of every state of the grid closures,
        both signs, including the 1944 that some flag rejects."""
        start = time.perf_counter()
        checked = rejected = 0
        for seed, report in grid_closures:
            table = _Rows(seed.rows)
            *_, (states, _, _, _) = _search(
                table, _moves, DEFAULT_MAX_STATES, DEFAULT_MAX_DEPTH)
            assert len(states) == report.states
            for ids in states:
                moves = [(tuple(table.rows[i] for i in cand), cand)
                         for cand, _ in _moves(table, ids)]
                assert _flags_are_validity(table, moves), render(seed)
                checked += len(moves)
                rejected += sum(not _valid_state(rows) for rows, _ in moves)
        assert (checked, rejected) == (17200, 1944)
        assert time.perf_counter() - start < 2.0

    # (states, unsorted states, split rows whose low bound an earlier row
    # sets, split rows whose high bound a later row sets) of the closures
    # of the theta1 lifts of these blocks at eta = 1.
    SPLIT_BOUNDS = {(1, 3, 1, 3): (400, 175, 82, 62),
                    (3, 1, 3, 1): (267, 42, 18, 66)}

    @pytest.mark.parametrize("mults", sorted(SPLIT_BOUNDS))
    def test_split_bounds_set_by_other_rows(self, mults):
        """On these closures many split rows have a bound on X that another
        row sets, the low one by an earlier row with a larger B, the high
        one by a later row with a smaller A; the moves of every state match
        the public operators."""
        size, unsorted_floor, low_floor, high_floor = self.SPLIT_BOUNDS[mults]
        seed = theta1(tempered_block(BlockTuple(0, mults), 1))
        seen = {seed.rows}
        frontier = [seed]
        unsorted = low = high = 0
        while frontier:
            nxt = []
            for state in frontier:
                rows = state.rows
                unsorted += not order_sorted(rows)
                for k, r in enumerate(rows):
                    points = split_points(r)
                    if points:
                        low += any(q.B > r.B and q.A > points.start
                                   for q in rows[:k])
                        high += any(q.A < r.A and q.B < points.stop
                                    for q in rows[k + 1:])
                _, _, moves = _table_moves(state)
                assert [m[0] for m in moves] == _reference_moves(state)
                for nb in neighbors(state):
                    if nb.rows not in seen:
                        seen.add(nb.rows)
                        nxt.append(nb)
            frontier = nxt
        assert len(seen) == size
        assert unsorted >= unsorted_floor
        assert low >= low_floor and high >= high_floor


class TestCanonical:
    def test_order_invariance(self):
        a = parse("[1,1;0;+][2,0;0;+]")
        b_res = parse("[1,1;0;+][2,0;0;+]")
        assert canonical(a) == canonical(b_res)

    def test_equivalence_check(self):
        assert are_equivalent(parse(X1), parse("[1,0;0;+]"))
        assert not are_equivalent(parse(X1), parse("[0,0;0;+]"))

    def test_walks_only_valid_states(self):
        """An exchange takes this node of X1's closure to
        [0,0;0;-][1,-1;0;-], where B + l = -1; its key is not the class's."""
        member = parse("[1,-1;1;+][0,0;0;-]")
        assert canonical(member) in closure(parse(X1)).nodes
        assert are_equivalent(parse(X1), member)

    def test_rejects_what_closure_rejects(self):
        vanishing = parse("[2,-2;1;+]")
        with pytest.raises(SegmentError, match="closure seed"):
            canonical(vanishing)
        assert not are_equivalent(parse("[2,-1;1;+]"), vanishing)

    def test_a_limit_raises_rather_than_answers(self):
        """A limit that stops the closure before it finds ms2's class
        raises LimitError; it does not answer False."""
        seed = tempered_block(BlockTuple(0, (1, 3, 1)), 1)
        far = parse(max(closure(seed).nodes).decode())
        assert are_equivalent(seed, far) is True
        with pytest.raises(LimitError, match=(
                r"^closure hit the state limit \(2 states\)$")):
            are_equivalent(seed, far, max_states=2)
        with pytest.raises(LimitError, match=(
                r"^closure hit the depth limit \(depth 1\)$")):
            are_equivalent(seed, far, max_depth=1)
        # What the stopped closure found still answers, and an invalid
        # state is in no class.
        assert are_equivalent(seed, seed, max_states=0) is True
        assert are_equivalent(seed, parse("[2,-2;1;+]"),
                              max_states=0) is False

    def test_the_search_of_ms2_keeps_the_limits(self):
        """are_equivalent runs one search, from ms1, within its limits, and
        never searches ms2's class.  Nine mutually nested rows make a class
        of 9! orders; a state the stopped search visited answers True, and
        one it did not raises LimitError at once."""
        nested = parse("".join("[%d,%d;0;+]" % (10 + j, 10 - j)
                               for j in range(8, -1, -1)))
        reversed_ = MultiSegment(nested.rows[::-1])
        start = time.perf_counter()
        assert are_equivalent(nested, nested, max_states=50) is True
        with pytest.raises(LimitError, match=(
                r"^closure hit the state limit \(50 states\)$")):
            are_equivalent(nested, reversed_, max_states=50)
        with pytest.raises(LimitError, match=(
                r"^closure hit the depth limit \(depth 1\)$")):
            are_equivalent(nested, reversed_, max_states=50, max_depth=1)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(LimitError, match=(
                r"^closure hit the state limit \(1 states\)$")):
            are_equivalent(nested, parse("[0,0;0;+]"), max_states=1)

    def test_answers_at_the_first_level_that_holds_ms2(self):
        """are_equivalent stops at the first level of its search that
        holds ms2.  Nine mutually nested rows make a class of 9! orders,
        more than DEFAULT_MAX_STATES: ms2 = ms1 answers at the seed, at
        once, and the reversed order still raises LimitError."""
        nested = parse("".join("[%d,%d;0;+]" % (10 + j, 10 - j)
                               for j in range(8, -1, -1)))
        start = time.perf_counter()
        assert are_equivalent(nested, nested) is True
        assert time.perf_counter() - start < 0.05
        with pytest.raises(LimitError, match=(
                r"^closure hit the state limit \(100000 states\)$")):
            are_equivalent(nested, MultiSegment(nested.rows[::-1]))

    def test_a_state_found_before_the_stop_answers(self):
        """At a limit that stops the search, a state found before the stop
        answers True: on a level the search completed (X1's class has a
        state at each of depths 0, 1 and 2), and on the level the state
        limit cut (the first of the two states at depth 1 of this
        block's class)."""
        x1 = parse(X1)
        depth1, depth2 = parse("[1,0;0;+]"), parse("[1,-1;1;+][0,0;0;-]")
        for limits in ({"max_states": 2}, {"max_depth": 1}):
            assert are_equivalent(x1, depth1, **limits) is True
            with pytest.raises(LimitError):
                are_equivalent(x1, depth2, **limits)
        seed = tempered_block(BlockTuple(0, (1, 3, 1)), 1)
        first = parse("[1,0;0;+][1,1;0;-][1,1;0;-][2,2;0;+]")
        second = parse("[0,0;0;+][1,1;0;-][1,1;0;-][2,1;0;-]")
        assert are_equivalent(seed, first) and are_equivalent(seed, second)
        assert are_equivalent(seed, first, max_states=2) is True
        with pytest.raises(LimitError, match=(
                r"^closure hit the state limit \(2 states\)$")):
            are_equivalent(seed, second, max_states=2)

    def test_canonical_keeps_the_default_limits(self):
        """canonical searches within closure's default limits.  Nine
        mutually nested rows make an exchange class of 9! orders, more than
        DEFAULT_MAX_STATES, so it raises LimitError within a second; the
        8! orders of eight such rows still give their least key."""
        def nested(n):
            return parse("".join("[%d,%d;0;+]" % (10 + j, 10 - j)
                                 for j in range(n - 1, -1, -1)))

        start = time.perf_counter()
        with pytest.raises(LimitError, match=(
                r"^canonical hit the state limit \(100000 states\)$")):
            canonical(nested(9))
        assert time.perf_counter() - start < 1.0
        assert canonical(nested(8)) == (
            b"[10,10;0;+][11,9;1;-][12,8;2;+][13,7;3;-]"
            b"[14,6;4;+][15,5;5;-][16,4;6;+][17,3;7;-]")

    def test_an_exchange_that_does_not_exchange_back(self):
        """a exchanges to b, and b to no valid state.  closure(a) visits b,
        so are_equivalent(a, b) is True although canonical(a) !=
        canonical(b); are_equivalent(b, a) is whether closure(b) visits a,
        which the plain search on the public operators says it does not."""
        a = parse("[5,4;0;+][5,4;1;+]")
        b = parse("[5,4;1;+][5,4;0;+]")
        assert canonical(a) != canonical(b)
        from_a, exhausted = _reference_states(a, 100000, 64)
        assert exhausted and b.rows in from_a
        assert are_equivalent(a, b) is True
        from_b, exhausted = _reference_states(b, 100000, 64)
        assert exhausted and a.rows not in from_b
        assert are_equivalent(b, a) is False

    def test_a_limit_holds_back_an_answer_and_never_flips_one(
            self, grid_closures):
        """The greatest node key of every grid closure (both signs) answers
        True at the default limits, so at a truncating limit it answers
        True, when the stopped search visited it, or raises LimitError."""
        answers = set()
        for seed, report in grid_closures:
            far = parse(max(report.nodes).decode())
            for limits in ({"max_states": 1}, {"max_states": 7},
                           {"max_states": 30}, {"max_depth": 1},
                           {"max_depth": 2}):
                try:
                    answers.add(are_equivalent(seed, far, **limits))
                except LimitError:
                    answers.add(LimitError)
        assert answers == {True, LimitError}

    def test_node_keys_and_their_seed_in_both_directions(
            self, grid_closures):
        """A sample of node keys of every grid closure (both signs): the
        closure of the seed visits each, and the closure of each visits
        the seed."""
        rng = random.Random(20261020)
        pairs = 0
        for seed, report in grid_closures:
            for key in rng.sample(sorted(report.nodes),
                                  min(12, len(report.nodes))):
                node = parse(key.decode())
                assert are_equivalent(seed, node), key
                assert are_equivalent(node, seed), key
                pairs += 1
        assert pairs == 1228

    def test_node_keys_are_their_own_canonical_forms(self, grid_closures):
        """On every grid closure (both signs) each node key is canonical,
        and are_equivalent puts one key of each closure in its class."""
        start = time.perf_counter()
        keys = 0
        for seed, report in grid_closures:
            for key in report.nodes:
                assert canonical(parse(key.decode())) == key
            keys += len(report.nodes)
            assert are_equivalent(seed, parse(max(report.nodes).decode()))
        assert keys == 1804
        assert time.perf_counter() - start < 3.0
