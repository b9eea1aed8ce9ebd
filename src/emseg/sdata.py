"""Enumeration coordinates for the equivalence class of a block.

An S-tuple splits the column range into weakly increasing intervals, each
giving a row of circles (a chain); a T-refinement marks upper parts of each
interval as hats.  Leftover column multiplicity becomes single-circle
multiples.  Signs follow the odd-alternating assignment.
"""

from itertools import product

from .core import STRICT, MultiSegment, Row, SegmentError, make_row
from .ops import merge_hats, op_D, op_S, op_U

CHAIN, ZCHAIN, MULTIPLE, HAT = "chain", "zchain", "multiple", "hat"
_RANK = {CHAIN: 0, HAT: 0, MULTIPLE: 1, ZCHAIN: 2}


def validate_S(M, S):
    """Validity of an S-tuple: consecutive nonempty intervals covering the
    column range, weakly increasing, overlapping only at single points where
    the next interval is wider and the column multiplicity exceeds one.

    One pass over adjacent pairs decides this: the first interval starts at
    c_min, the last ends at c_max, and each next interval starts at b + 1,
    or at b when it is wider and mult(b) > 1.  Weak increase is transitive,
    and a touch between non-adjacent intervals would force a one-point
    interval between them, which the adjacent-pair rule already rejects.
    """
    if not S or S[0][0] != M.c_min or S[-1][1] != M.c_max:
        return False
    prev = None
    for a, b in S:
        if a > b:
            return False
        if prev is not None and a != prev + 1 and not (
                a == prev < b and M.mult(prev) > 1):
            return False
        prev = b
    return True


def _partition_consecutive(parts, iv):
    if not parts or parts[-1][1] != iv[1]:
        return False
    nxt = iv[0]
    for p in parts:
        if p[0] != nxt or p[0] > p[1]:
            return False
        nxt = p[1] + 1
    return True


def validate_T(M, S, T):
    """T partitions each S_i upward; a z-chain keeps at least two columns."""
    if len(T) != len(S):
        return False
    if M.c_min != 0 and any(len(parts) > 1 for parts in T):
        return False
    for i, parts in enumerate(T):
        if not _partition_consecutive(parts, S[i]):
            return False
        if i and S[i - 1][1] == S[i][0] and parts[0][1] == parts[0][0]:
            return False  # the chain of an overlapping set needs >= 2 columns
    return True


def trivial_T(S):
    return tuple((iv,) for iv in S)


def enumerate_S(M):
    """All valid S-tuples, in generation order.

    Every tuple generated is valid, so none is filtered: each interval
    starts right after the last one ends, or on its last column when that
    column's multiplicity exceeds one (an overlap start), and an
    overlapping interval gets an end e >= nxt > s, so it is wider.
    """
    lo, hi = M.c_min, M.c_max
    out = []

    def extend(prefix, nxt):
        if nxt > hi:
            out.append(tuple(prefix))
            return
        starts = [nxt]
        if prefix and prefix[-1][1] == nxt - 1 and M.mult(nxt - 1) > 1:
            starts.append(nxt - 1)
        for s in starts:
            for e in range(max(s, nxt), hi + 1):
                prefix.append((s, e))
                extend(prefix, e + 1)
                prefix.pop()

    extend([], lo)
    return out


def _partitions_of(iv, min_first):
    """All upward partitions of the interval, first part >= min_first wide."""
    a, b = iv
    if a > b:
        return [()]
    return [((a, e),) + rest for e in range(a + min_first - 1, b + 1)
            for rest in _partitions_of((e + 1, b), 1)]


def enumerate_ST(M):
    """All valid (S, T) pairs for a block starting at zero.

    Every pair generated is valid, so none is filtered: each S comes from
    enumerate_S, and _partitions_of gives each interval its upward
    partitions with the chain of an overlapping interval (a z-chain) at
    least two columns wide.
    """
    if M.c_min != 0:
        raise SegmentError("T-refinements only apply to blocks starting at 0")
    out = []
    for S in enumerate_S(M):
        choices = [_partitions_of(iv, 2 if i and S[i - 1][1] == iv[0] else 1)
                   for i, iv in enumerate(S)]
        out.extend((S, T) for T in product(*choices))
    return out


def build_labeled(M, S, T=None, eta=1):
    """Construct the multi-segment and the per-row category labels; after
    (S, T) and the coverage are checked, each row is made once."""
    if not validate_S(M, S):
        raise SegmentError("invalid S-tuple for %r" % (M,))
    if T is None:
        T = trivial_T(S)
    if not validate_T(M, S, T):
        raise SegmentError("invalid T-refinement")
    lo = M.c_min
    # Items are (B, rank, A, l, kind, origin).  On valid (S, T) two items
    # agree in (B, rank) only if they are equal multiples, so sorting the
    # plain tuples is the stable sort by (B, rank).
    items = []
    coverage = [0] * (M.c_max - lo + 1)
    for i, parts in enumerate(T):
        for j in range(S[i][0] - lo, S[i][1] - lo + 1):
            coverage[j] += 1
        lo0, hi0 = parts[0]
        kind = ZCHAIN if (i and S[i - 1][1] == S[i][0]) else CHAIN
        items.append((lo0, _RANK[kind], hi0, 0, kind, (i, 0)))
        for j, (p, q) in enumerate(parts[1:], start=1):
            items.append((-p, 0, q, p, HAT, (i, j)))
    for c, (mult, covered) in enumerate(zip(M.mults, coverage), lo):
        if mult < covered:
            raise SegmentError("column %d covered more often than its multiplicity" % c)
        items.extend([(c, 1, c, 0, MULTIPLE, None)] * (mult - covered))
    items.sort()
    rows = []
    labels = []
    sign = eta
    prev = prev_kind = None
    for B, _, A, l, kind, origin in items:
        if prev is not None:
            step = (-1) ** prev.circles * prev.eta
            if kind == MULTIPLE:
                sign = -step
            elif prev_kind == MULTIPLE:
                sign = step if B > prev.B else -step
            else:
                sign = step
        prev = make_row(A, B, l, sign)
        prev_kind = kind
        rows.append(prev)
        labels.append((kind, origin))
    return MultiSegment._of(tuple(rows), STRICT), tuple(labels)


def build(M, S, T=None, eta=1):
    """The multi-segment attached to (M, S, T, eta)."""
    return build_labeled(M, S, T, eta)[0]


def theta1(ms):
    """Prepend the lifting hat covering one extra column on each side."""
    if not ms.rows:
        raise SegmentError("lift of the empty multi-segment is undefined")
    c_max = max(r.A for r in ms.rows)
    hat = Row(c_max + 1, -c_max - 1, c_max + 1, -ms.rows[0].eta)
    return ms.replace_rows((hat,) + ms.rows)


def theta_family(M, S, T=None, eta=1):
    """The lift family of a class member: [(tag, multi-segment), ...].

    Three members when the top multiplicity is 1, four otherwise; the second
    and fourth coincide in packet exactly when S contains the singleton top
    column.
    """
    if M.c_min != 0:
        raise SegmentError("the lift family applies to blocks starting at 0")
    if T is None:
        T = trivial_T(S)
    E, labels = build_labeled(M, S, T, eta)
    c_max = M.c_max
    t1 = theta1(E)
    labels1 = (("lift-hat", None),) + labels
    ends = [i for i, r in enumerate(t1.rows) if r.A == c_max]
    first, last = ends[0], ends[-1]
    if labels1[first][0] == HAT:
        if first != 1:
            raise SegmentError("top-column hat is not the first row of the block")
        res2 = merge_hats(t1, 0)
        if not res2.applied:
            raise SegmentError("hat merge for the second lift failed")
        t2 = res2.out
        res3 = op_U(t2, 0, 1)
        if not res3.applied:
            raise SegmentError("circle unhook for the third lift failed")
        t3 = res3.out
    else:
        res2 = op_D(t1, 0, first)
        if not res2.applied:
            raise SegmentError("dualized merge for the second lift failed")
        t2 = res2.out
        t3 = _separate_top(t2, c_max)
    family = [("theta1", t1), ("theta2", t2), ("theta3", t3)]
    if M.mult(c_max) > 1:
        if labels1[last][0] != MULTIPLE:
            raise SegmentError("last top-column row is not a multiple")
        res4 = op_D(t1, 0, last)
        if not res4.applied:
            raise SegmentError("dualized merge for the fourth lift failed")
        family.append(("theta4", res4.out))
    return family


def _separate_top(ms, c_max):
    """Split one circle off the row reaching column c_max + 1."""
    for i, r in enumerate(ms.rows):
        if r.A == c_max + 1 and r.l == 0:
            res = op_S(ms, i, 1)
            if not res.applied:
                break
            return res.out
    raise SegmentError("no separable row reaching the top column")


def theta2_matches_theta4(M, S):
    """Whether the second and fourth lifts share a packet: the S-tuple
    contains the singleton top column."""
    return any(iv == (M.c_max, M.c_max) for iv in S)
