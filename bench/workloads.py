"""The three workloads: their seeded inputs, one operation each, and checks.

Every workload runs a fixed list of operations: ``rounds`` copies of one
round of slots.  A slot fixes what an operation costs (the shape of a
block, the number of columns, the boundary kinds); the seed fixes
everything that leaves that cost alone (signs, column offsets, gap widths,
the positions of the larger multiplicities, the order of the operations).
Runs with different seeds therefore do the same amount of work on different
inputs, so that their medians can be compared.

Inputs are built and validated through emseg's public constructors during
set-up; the checks compare every answer with ``reference``.  The set-up,
with one warm-up operation, is repeated ``setup_repeats`` times and the
median is reported, so that one slow repetition does not decide setup_s.
"""

import io
import json
import random

import emseg
import emseg.cli

import reference

TYPE1, TYPE2, TYPE3 = "Type1", "Type2", "Type3"


class Op:
    """One timed operation: its input, and what the checks need."""

    def __init__(self, label, arg, expect, may_fail=False):
        self.label = label
        self.arg = arg
        self.expect = expect
        self.may_fail = may_fail


# ---------------------------------------------------------------------------
# Tempered layouts: blocks laid down column by column
# ---------------------------------------------------------------------------

def lay_out(first_cmin, block_mults, kinds, rng):
    """Place blocks left to right with the given boundary kinds.

    Returns [(c_min, mults, eta)].  Type1 leaves a gap of 1-3 empty columns,
    Type2 starts the next block in the last column of the previous one
    (with multiplicity 1 there, so the shared column has an even count) and
    Type3 starts it in the next column with the sign repeated, which is what
    stops the alternation.
    """
    eta = rng.choice((1, -1))
    layout = [(first_cmin, tuple(block_mults[0]), eta)]
    for kind, mults in zip(kinds, block_mults[1:]):
        c_min, prev, eta = layout[-1]
        last_col = c_min + len(prev) - 1
        last_sign = eta * (-1) ** (len(prev) - 1)
        if kind == TYPE1:
            layout.append((last_col + 2 + rng.randrange(3), tuple(mults),
                           rng.choice((1, -1))))
        elif kind == TYPE2:
            if mults[0] != 1:
                raise ValueError("a Type2 block starts with multiplicity 1")
            layout.append((last_col, tuple(mults), last_sign))
        elif kind == TYPE3:
            layout.append((last_col + 1, tuple(mults), last_sign))
        else:
            raise ValueError("unknown boundary kind %r" % (kind,))
    return layout


def layout_rows(layout):
    """(A, B, l, eta) rows of a layout, sorted by column."""
    rows = []
    for c_min, mults, eta in layout:
        sign = eta
        for i, m in enumerate(mults):
            rows.extend([(c_min + i, c_min + i, 0, sign)] * m)
            sign = -sign
    return rows


def layout_blocks(layout):
    return [(c_min, mults) for c_min, mults, _ in layout]


def build_tempered(layout):
    """Build through the public row constructor; check it is tempered."""
    ms = emseg.multi_segment(layout_rows(layout))
    if not emseg.is_tempered(ms):
        raise ValueError("generated symbol is not tempered: %r" % (layout,))
    return ms


def check_decomposition(ms, layout):
    seen = [(bt.c_min, bt.mults) for bt in
            map(emseg.block_tuple, emseg.block_decompose(ms))]
    if seen != layout_blocks(layout):
        raise ValueError("emseg decomposes %r as %r" % (layout, seen))


class SlotRounds:
    """Rounds of one operation per slot, each round in seeded order."""

    def inputs(self, seed, rounds):
        rng = random.Random(seed)
        ops = []
        for _ in range(rounds):
            batch = [self._make(rng, *slot) for slot in self.slots]
            rng.shuffle(batch)
            ops.extend(batch)
        return ops


# ---------------------------------------------------------------------------
# closure-bfs
# ---------------------------------------------------------------------------

class ClosureBfs(SlotRounds):
    """Breadth-first ``closure`` on strict seeds of 10^2 to 1.4*10^3 states."""

    name = "closure-bfs"
    round_s = 4.5
    setup_repeats = 5
    # (kind, first c_min, block multiplicities, boundary kinds).  c_min 1
    # means "some c_min >= 1", drawn from 1-4 by the seed.  Five cheap
    # slots, three of about the same middle cost and five dear ones, so
    # that the median operation is one of the middle three, not the edge
    # of a gap between two costs.
    slots = [
        ("block", 1, [(3, 3, 3, 3)], ()),
        ("block", 1, [(1, 3, 1, 3, 1)], ()),
        ("blocks", 0, [(1, 3, 1), (1, 3, 1)], (TYPE1,)),
        ("blocks", 0, [(1, 1, 3), (1, 3, 1)], (TYPE2,)),
        ("blocks", 0, [(1, 3, 1), (1, 3, 1)], (TYPE3,)),
        ("block", 0, [(3, 3, 3, 3)], ()),
        ("block", 0, [(1, 3, 1, 3, 1)], ()),
        ("block", 1, [(1,) * 10], ()),
        ("block", 0, [(1, 1, 1, 1, 1, 1, 1)], ()),
        ("block", 1, [(1, 5, 1, 5, 1)], ()),
        ("blocks", 0, [(1, 3), (1, 3, 1), (1, 1, 3)], (TYPE3, TYPE2)),
        ("lift", 0, [(1, 3, 1, 3, 1)], ()),
        ("lift", 0, [(3, 3, 3, 3)], ()),
    ]
    warm_up_layout = [(0, (1, 1, 3, 1, 1, 1), 1)]

    def __init__(self):
        self._families = {}

    def _make(self, rng, kind, cmin, block_mults, kinds):
        c_min = cmin if cmin == 0 else 1 + rng.randrange(4)
        layout = lay_out(c_min, block_mults, kinds, rng)
        ms = build_tempered(layout)
        if not emseg.validate(ms):
            raise ValueError("generated symbol is not admissible: %r" % (layout,))
        check_decomposition(ms, layout)
        label = "%s %s" % (kind, layout_blocks(layout))
        if kind == "lift":
            M = emseg.BlockTuple(c_min, layout[0][1])
            ms = emseg.theta1(emseg.tempered_block(M, layout[0][2]))
            if not emseg.validate(ms):
                raise ValueError("lift is not admissible: %s" % label)
            rows = [tuple(r) for r in ms.rows]
            return Op(label, ms, ("lift", M, layout[0][2],
                                  reference.rows_weight(rows)))
        rows = layout_rows(layout)
        return Op(label, ms, ("count",
                              reference.product_count(layout_blocks(layout)),
                              reference.rows_weight(rows)))

    def warm_up(self):
        emseg.closure(build_tempered(self.warm_up_layout))

    def run(self, op):
        return emseg.closure(op.arg)

    def check(self, op, report):
        problems = []
        if not report.exhausted:
            problems.append("closure did not exhaust the class")
        kind = op.expect[0]
        weight = op.expect[-1]
        if any(reference.psi_weight(p) != weight for p in report.psi):
            problems.append("a parameter breaks the dimension invariant")
        if kind == "count":
            if len(report.psi) != op.expect[1]:
                problems.append("%d packets, reference says %d"
                                % (len(report.psi), op.expect[1]))
        elif set(report.psi) != self._lift_family(op.expect[1], op.expect[2]):
            problems.append("packets differ from the lift family")
        return problems

    def _lift_family(self, M, eta):
        key = (M.mults, eta)
        if key not in self._families:
            self._families[key] = {
                emseg.arthur_parameter(member)
                for S, T in emseg.enumerate_ST(M)
                for _, member in emseg.theta_family(M, S, T, eta)}
        return self._families[key]


# ---------------------------------------------------------------------------
# enumerate-build
# ---------------------------------------------------------------------------

class EnumerateBuild(SlotRounds):
    """(S, T) or S enumeration of one block, building every member."""

    name = "enumerate-build"
    round_s = 3.7
    setup_repeats = 5
    # (c_min, columns, larger multiplicities among all columns but the last).
    # The number of members depends on these three only, so the seed moves
    # the larger multiplicities around without changing the work.  Three
    # cheap, three middle and three dear slots, for the reason given at
    # ClosureBfs.slots.
    slots = [
        (1, 7, 3), (1, 8, 4), (0, 7, 3),
        (0, 7, 4), (0, 7, 4), (1, 9, 5),
        (0, 8, 2), (0, 9, 0), (1, 9, 7),
    ]
    warm_up_block = (0, (1, 3, 1, 3, 1, 3, 3))

    def _make(self, rng, cmin, columns, larger):
        mults = [1] * columns
        spots = rng.sample(range(columns - 1), larger)
        for i, pos in enumerate(spots):
            mults[pos] = 5 if i == 0 and larger > 1 else 3
        c_min = cmin if cmin == 0 else 1 + rng.randrange(4)
        M = emseg.BlockTuple(c_min, tuple(mults))
        eta = rng.choice((1, -1))
        weight = reference.rows_weight(layout_rows([(c_min, mults, eta)]))
        return Op("block %r" % ((c_min, tuple(mults)),), (M, eta),
                  (reference.packet_count(c_min, mults), weight))

    def warm_up(self):
        c_min, mults = self.warm_up_block
        self.run(Op("warm-up", (emseg.BlockTuple(c_min, mults), 1), None))

    def run(self, op):
        M, eta = op.arg
        if M.c_min == 0:
            members = [emseg.build(M, S, T, eta) for S, T in emseg.enumerate_ST(M)]
        else:
            members = [emseg.build(M, S, None, eta) for S in emseg.enumerate_S(M)]
        return members, {emseg.arthur_parameter(ms) for ms in members}

    def check(self, op, result):
        members, psis = result
        count, weight = op.expect
        problems = []
        for ms in members:
            rows = [tuple(r) for r in ms.rows]
            if not (reference.rows_strict(rows) and reference.rows_admissible(rows)):
                problems.append("member %s is not strict and (P)-admissible"
                                % emseg.render(ms))
                break
        if len(psis) != count:
            problems.append("%d packets, reference says %d" % (len(psis), count))
        if any(reference.psi_weight(p) != weight for p in psis):
            problems.append("a parameter breaks the dimension invariant")
        return problems


# ---------------------------------------------------------------------------
# count-query
# ---------------------------------------------------------------------------

def _long_layouts():
    """The long-block queries: fixed, so that whether they fail does not
    depend on the seed.  Each carries one block of >= 1000 columns."""
    cycle = (1, 3, 5)
    long1 = tuple(cycle[i % 3] for i in range(1200))
    long2 = tuple(cycle[(2 * i) % 3] for i in range(1500))
    head = tuple(cycle[(i + 1) % 3] for i in range(60))
    return [
        [(0, long1, 1)],
        [(0, head, 1), (63, long2, -1)],
    ]


class CountQuery:
    """In-process ``emseg count --dsl`` on long tempered symbols."""

    name = "count-query"
    round_s = 0.2
    setup_repeats = 3
    # One round: eleven seeded symbols with these block counts, and one
    # fixed long-block symbol.  Boundary kinds are dealt out evenly.
    block_counts = (1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)
    columns = (100, 300)
    warm_up_layout = [(0, tuple((1, 3, 5)[i % 3] for i in range(200)), 1)]

    def inputs(self, seed, rounds):
        rng = random.Random(seed)
        long_ops = [self._query(layout, "long-block", may_fail=True)
                    for layout in _long_layouts()]
        ops = []
        lo, hi = self.columns
        strata = len(self.block_counts)
        for r in range(rounds):
            sizes = [lo + int((hi - lo) * (i + rng.random()) / strata)
                     for i in range(strata)]
            rng.shuffle(sizes)
            n_bounds = sum(n - 1 for n in self.block_counts)
            kinds = [(TYPE1, TYPE2, TYPE3)[i % 3] for i in range(n_bounds)]
            rng.shuffle(kinds)
            batch = []
            for n_blocks, size in zip(self.block_counts, sizes):
                mine, kinds = kinds[:n_blocks - 1], kinds[n_blocks - 1:]
                batch.append(self._make(rng, n_blocks, size, mine))
            batch.append(long_ops[r % len(long_ops)])
            rng.shuffle(batch)
            ops.extend(batch)
        return ops

    def _make(self, rng, n_blocks, size, kinds):
        cuts = sorted(rng.sample(range(1, size // 10), n_blocks - 1))
        lengths = [10 * (b - a) for a, b in zip([0] + cuts, cuts + [size // 10])]
        lengths[-1] += size % 10
        block_mults = []
        for i, n in enumerate(lengths):
            mults = [rng.choice((1, 3, 5)) for _ in range(n)]
            if i and kinds[i - 1] == TYPE2:
                mults[0] = 1
            block_mults.append(mults)
        first_cmin = rng.choice((0, 1 + rng.randrange(4)))
        layout = lay_out(first_cmin, block_mults, kinds, rng)
        return self._query(layout, "%d blocks, %d columns" % (n_blocks, size))

    def _query(self, layout, label, may_fail=False):
        text = emseg.render(build_tempered(layout))
        expect = reference.product_count(layout_blocks(layout))
        return Op(label, text, expect, may_fail)

    def warm_up(self):
        self.run(self._query(self.warm_up_layout, "warm-up"))

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        code = emseg.cli.run(["count", "--dsl", op.arg], out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        code, out, err = result
        if code != 0:
            return ["exit code %d: %s" % (code, err.strip())]
        reply = json.loads(out)
        if reply != {"value": op.expect, "method": "recursion"}:
            return ["reply %s, reference value %d" % (out.strip()[:80], op.expect)]
        return []


WORKLOADS = {w.name: w for w in (ClosureBfs, EnumerateBuild, CountQuery)}
