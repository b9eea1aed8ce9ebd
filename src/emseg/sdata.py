"""Enumeration coordinates for the equivalence class of a block.

An S-tuple splits the column range into weakly increasing intervals, each
giving a row of circles (a chain); a T-refinement marks upper parts of each
interval as hats.  Leftover column multiplicity becomes single-circle
multiples.  Signs follow the odd-alternating assignment.
"""

from .core import MultiSegment, Row, SegmentError, weak_normalize
from .ops import merge_hats, op_D, op_S, op_U

CHAIN, ZCHAIN, MULTIPLE, HAT = "chain", "zchain", "multiple", "hat"


def _interval_ok(iv, lo, hi):
    return lo <= iv[0] <= iv[1] <= hi


def validate_S(M, S):
    """Validity of an S-tuple: consecutive nonempty intervals covering the
    column range, weakly increasing, overlapping only at single points where
    the next interval is wider and the column multiplicity exceeds one."""
    if not S:
        return False
    lo, hi = M.c_min, M.c_max
    if any(not _interval_ok(iv, lo, hi) for iv in S):
        return False
    covered = set()
    for a, b in S:
        covered.update(range(a, b + 1))
    if covered != set(range(lo, hi + 1)):
        return False
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            if S[i][1] > S[j][0]:
                return False  # elements must be weakly increasing across sets
            if S[i][1] == S[j][0]:
                c = S[j][0]
                if j - i != 1 or S[j][1] == S[j][0] or M.mult(c) <= 1:
                    return False
    return True


def _partition_consecutive(parts, iv):
    if not parts:
        return False
    if parts[0][0] != iv[0] or parts[-1][1] != iv[1]:
        return False
    for j in range(len(parts)):
        if parts[j][0] > parts[j][1]:
            return False
        if j and parts[j][0] != parts[j - 1][1] + 1:
            return False
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
    """All valid S-tuples, in generation order."""
    lo, hi = M.c_min, M.c_max
    out = []

    def extend(prefix, nxt):
        if nxt > hi:
            if validate_S(M, tuple(prefix)):
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
    res = []

    def rec(start, acc):
        for end in range(start, b + 1):
            part = (start, end)
            if not acc and end - start + 1 < min_first:
                continue
            if end == b:
                res.append(tuple(acc + [part]))
            else:
                rec(end + 1, acc + [part])

    rec(a, [])
    return res


def enumerate_ST(M):
    """All valid (S, T) pairs for a block starting at zero."""
    if M.c_min != 0:
        raise SegmentError("T-refinements only apply to blocks starting at 0")
    out = []
    for S in enumerate_S(M):
        choices = []
        for i, iv in enumerate(S):
            overlap = i > 0 and S[i - 1][1] == iv[0]
            choices.append(_partitions_of(iv, 2 if overlap else 1))
        def product(i, acc):
            if i == len(choices):
                T = tuple(acc)
                if validate_T(M, S, T):
                    out.append((S, T))
                return
            for parts in choices[i]:
                product(i + 1, acc + [parts])
        product(0, [])
    return out


def build_labeled(M, S, T=None, eta=1):
    """Construct the multi-segment and the per-row category labels."""
    if not validate_S(M, S):
        raise SegmentError("invalid S-tuple for %r" % (M,))
    if T is None:
        T = trivial_T(S)
    if not validate_T(M, S, T):
        raise SegmentError("invalid T-refinement")
    items = []
    coverage = {c: 0 for c in range(M.c_min, M.c_max + 1)}
    for i, parts in enumerate(T):
        for c in range(S[i][0], S[i][1] + 1):
            coverage[c] += 1
        lo0, hi0 = parts[0]
        kind = ZCHAIN if (i and S[i - 1][1] == S[i][0]) else CHAIN
        items.append((Row(hi0, lo0, 0, 1), kind, (i, 0)))
        for j, (lo, hi) in enumerate(parts[1:], start=1):
            items.append((Row(hi, -lo, lo, 1), HAT, (i, j)))
    for c in range(M.c_min, M.c_max + 1):
        extra = M.mult(c) - coverage[c]
        if extra < 0:
            raise SegmentError("column %d covered more often than its multiplicity" % c)
        for _ in range(extra):
            items.append((Row(c, c, 0, 1), MULTIPLE, None))
    cat_rank = {CHAIN: 0, HAT: 0, MULTIPLE: 1, ZCHAIN: 2}
    items.sort(key=lambda it: (it[0].B, cat_rank[it[1]]))
    rows = []
    labels = []
    sign = eta
    prev = None
    for row, kind, origin in items:
        if prev is not None:
            p_row, p_kind = prev
            step = (-1) ** p_row.circles * p_row.eta
            if kind == MULTIPLE:
                sign = -step
            elif p_kind == MULTIPLE:
                sign = step if row.B > p_row.B else -step
            else:
                sign = step
        row = weak_normalize(row._replace(eta=sign))
        rows.append(row)
        labels.append((kind, origin))
        prev = (row, kind)
    return MultiSegment(tuple(rows)), tuple(labels)


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
