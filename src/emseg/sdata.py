"""Enumeration coordinates for the equivalence class of a block.

An S-tuple splits the column range into weakly increasing intervals, each
giving a row of circles (a chain): at each boundary between columns c and
c + 1 it makes one choice, to cut (the next interval starts at c + 1), to
overlap (it starts at c, when the multiplicity of c exceeds one) or to go
on.  A T-refinement cuts inside each interval, marking its upper parts as
hats.  Leftover column multiplicity becomes single-circle multiples.  Signs
follow the odd-alternating assignment.

Both are splits of a column range, made by one walk, _splits, and checked
by one predicate, _is_split: validate_S asks it whether S splits
c_min..c_max, with an overlap only where the multiplicity exceeds one, and
validate_T whether each T[i] splits S[i], with no overlap.  The validators
answer False, and raise nothing, for anything that is not a tuple or list
of (a, b) pairs.

build is the one constructor of a member, and its members share the rows
of a block: each distinct row (A, B, l, eta) is made once, in the block's
row table, and every later member that has it gets that same Row.  An
n-column block has at most 2n^2 rows (n^2 chains and hats, each with
either sign), and the table holds only rows of members built so far, so
it never outgrows them.

build's rows make the lift family too: every lift of a member of M is a
member of the block with one more column, c_max + 1 of multiplicity 1,
made by _rows with -eta at coordinates that theta_family reads off the
(S, T) it has checked once.
"""

from functools import cache
from itertools import chain, product, repeat

from .core import (
    STRICT, MultiSegment, Row, ScopeError, SegmentError, _eta, _shown,
)

# What S, T, each split in T and each (a, b) pair may be.
_SEQUENCE = (tuple, list)


def _is_split(parts, iv, mult=None):
    """Whether parts split the columns iv = (lo, hi) into nonempty
    intervals, in order: the first starts at lo, the last ends at hi, and
    each next one starts at b + 1, or at b when it is wider and
    mult(b) > 1; without mult no two overlap.  No parts split exactly the
    empty range, lo - 1 == hi.  parts must be a tuple or list of (a, b)
    pairs, and each pair and iv a tuple or list: anything else, such as a
    pair of three entries or of a None, is False, and nothing raises."""
    if not (isinstance(iv, _SEQUENCE) and isinstance(parts, _SEQUENCE)):
        return False
    try:
        lo, hi = iv
        prev = lo - 1
        for p in parts:
            a, b = p
            if not isinstance(p, _SEQUENCE) or a > b or (
                    a != prev + 1 and not (
                        mult and a == prev < b and mult(prev) > 1)):
                return False
            prev = b
        return prev == hi
    except (TypeError, ValueError):
        # A pair of other than two entries, an endpoint that is no number,
        # or a float b where mult reads a column.
        return False


def validate_S(M, S):
    """Validity of an S-tuple: consecutive nonempty intervals covering the
    column range, weakly increasing, overlapping only at single points where
    the next interval is wider and the column multiplicity exceeds one.

    One pass over adjacent pairs, _is_split, decides this: the first
    interval starts at c_min, the last ends at c_max, and each next interval
    starts at b + 1, or at b when it is wider and mult(b) > 1.  Weak
    increase is transitive, and a touch between non-adjacent intervals would
    force a one-point interval between them, which the adjacent-pair rule
    already rejects.  Anything but a tuple or list of (a, b) pairs is
    invalid; nothing raises.
    """
    return _is_split(S, (M.c_min, M.c_max), M.mult)


def validate_T(M, S, T):
    """Validity of a T-refinement: T[i] splits S[i] upward with no overlap
    (_is_split), into one part unless c_min = 0 and never into none, and
    the first part of a z-chain (an interval that starts where the one
    before ends) keeps at least two columns.  Anything but a tuple or
    list of such splits, one per interval of S, is invalid; nothing
    raises."""
    if not (isinstance(S, _SEQUENCE) and isinstance(T, _SEQUENCE)
            and len(T) == len(S)):
        return False
    prev = None
    for iv, parts in zip(S, T):
        if (not _is_split(parts, iv) or not parts
                or M.c_min != 0 and len(parts) > 1
                or iv[0] == prev and parts[0][0] == parts[0][1]):
            return False
        prev = iv[1]
    return True


def trivial_T(S):
    return tuple((iv,) for iv in S)


def _splits(lo, hi, nexts):
    """Every split of the columns lo..hi into intervals, in the order of
    product(*nexts).  nexts[c - lo] lists, in the order they are tried,
    where the interval after column c may start: c + 1 (a cut), c (an
    overlap) or None (the interval goes on)."""
    for picks in product(*nexts):
        split, start = [], lo
        for c, nxt in enumerate(picks, lo):
            if nxt is not None:
                split.append((start, c))
                start = nxt
        split.append((start, hi))
        yield tuple(split)


def iter_S(M):
    """Yield every valid S-tuple, in generation order.

    An S-tuple is one choice at each boundary after a column c < c_max: a
    cut, an overlap when mult(c) > 1, or going on, tried in that order.
    Every tuple generated is valid, so none is filtered: an overlap starts
    the next interval on c and a later boundary or c_max ends it, so it is
    wider.  The tuples stream out one at a time, in O(n) memory for n
    columns.
    """
    lo, hi = M.c_min, M.c_max
    if lo > hi:
        yield ()
        return
    yield from _splits(lo, hi, [(c + 1, c, None) if M.mult(c) > 1
                                else (c + 1, None) for c in range(lo, hi)])


def enumerate_S(M):
    """All valid S-tuples, in generation order (the list of iter_S)."""
    return list(iter_S(M))


def _partitions_of(iv, min_first):
    """All upward partitions of the interval, first part >= min_first wide:
    a cut or not after each column, and none after the first
    min_first - 1.  The interval must be at least min_first wide, as every
    interval of iter_S is."""
    a, b = iv
    first = a + min_first - 1
    return list(_splits(a, b, [(None,) if c < first else (c + 1, None)
                               for c in range(a, b)]))


def iter_ST(M):
    """Every valid (S, T) pair for a block starting at zero, as an iterator
    in the order of enumerate_ST.

    Every pair generated is valid, so none is filtered: each S comes from
    iter_S, and _partitions_of gives each interval its upward partitions
    with the chain of an overlapping interval (a z-chain) at least two
    columns wide.  Equal intervals recur across the S-tuples, so each
    distinct (interval, least first part) is partitioned once per call.

    A block that does not start at 0 raises SegmentError at once.
    """
    if M.c_min != 0:
        raise SegmentError("T-refinements only apply to blocks starting at 0")
    partitions = cache(_partitions_of)
    return chain.from_iterable(
        zip(repeat(S), product(*[
            partitions(iv, 2 if i and S[i - 1][1] == iv[0] else 1)
            for i, iv in enumerate(S)]))
        for S in iter_S(M))


def enumerate_ST(M):
    """All valid (S, T) pairs for a block starting at zero (the list of
    iter_ST)."""
    return list(iter_ST(M))


def _checked(M, S, T, eta):
    """build's checks of (S, T, eta) against M, in this order: validate_S,
    validate_T of a given T, plain int endpoints and the sign.  Returns
    T, or trivial_T(S) when T is None."""
    if not validate_S(M, S):
        raise SegmentError("invalid S-tuple for %s" % _shown(M))
    if T is not None and not validate_T(M, S, T):
        raise SegmentError("invalid T-refinement")
    # trivial_T(S) holds S's own endpoints, so only a given T adds any.
    for x in chain(chain.from_iterable(S),
                   chain.from_iterable(chain.from_iterable(T or ()))):
        if type(x) is not int:
            raise ScopeError("S and T endpoints must be integers, got %s"
                             % _shown(x))
    _eta(eta)
    return trivial_T(S) if T is None else T


def _rows(M, S, T, eta):
    """The rows of build, from (S, T, eta) that have passed _checked
    against M, with T given: _rows checks nothing again.  build runs
    _checked before it, and theta_family runs it once against M for the
    whole family.  The rows come from items, the sorted (B, rank, A, l,
    n), one per chain, hat or run of n equal multiples.

    The rank puts chains and hats (0) before the multiples (1) and the
    z-chain (2) of one column.  No two items agree in (B, rank), so the
    plain tuple sort is the sort by (B, rank).
    """
    lo = M.c_min
    free = [m - 1 for m in M.mults]
    items = []
    for i, parts in enumerate(T):
        lo0, hi0 = parts[0]
        if i and S[i - 1][1] == lo0:  # a z-chain, on an overlap column
            free[lo0 - lo] -= 1
            items.append((lo0, 2, hi0, 0, 1))
        else:
            items.append((lo0, 0, hi0, 0, 1))
        for p, q in parts[1:]:
            items.append((-p, 0, q, p, 1))
    for c, n in enumerate(free, lo):
        if n:
            items.append((c, 1, c, 0, n))
    items.sort()
    # The input is checked: each distinct row of the block is made once,
    # in its row table, and shared by every later member.
    table = M._row_table
    # The odd-alternating signs, one rule: each row hands the next
    # (-1)^circles times its own sign, a row's circle count having the
    # parity of A - B + 1, and a multiple or a z-chain (rank > 0) negates
    # the sign it is handed.  A z-chain always comes right after multiples
    # of its own column: an overlap column has multiplicity at least 3,
    # two intervals use two of its rows, and the (B, rank) sort puts the
    # z-chain (2) after that column's multiples (1).
    rows = []
    sign = eta
    for B, rank, A, l, n in items:
        sign = -sign if rank else sign
        row = table.get((A, B, l, sign))
        if row is None:
            # A Row hashes and equals its 4-tuple, so it is its own key.
            row = Row(A, B, l, sign)
            table[row] = row
        if rank == 1:
            rows += [row] * n
        else:
            rows.append(row)
        sign = sign if (A - B) & 1 else -sign
    return tuple(rows)


def build(M, S, T=None, eta=1):
    """The multi-segment attached to (M, S, T, eta): the one constructor of
    a class member.

    The input is checked once, at this boundary, by _checked before _rows
    makes the rows: validate_S, validate_T of a given T (trivial_T of a
    valid S is valid by validate_S's overlap rule), plain int endpoints,
    and a plain int eta of +1 or -1.  The coverage needs no check:
    validate_S allows an overlap only on a column of multiplicity above 1,
    so at least 3 by the block rule, and one column holds at most one
    overlap, so no column is covered more often than its multiplicity
    (see below).  Then every row is valid as built,
    so none goes through make_row:

    - a chain [hi, lo] has hi >= lo >= c_min >= 0 and l = 0;
    - a hat (q, -p, p) has 1 <= p <= q, so A + B = q - p >= 0 and
      2l = 2p <= b = p + q + 1;
    - a multiple [c, c] has c >= 0;
    - weak_normalize is a no-op, since 2l = b would need p = q + 1.

    Valid (S, T) cover each column once and an overlap column twice, and
    the multiples of a column are what its multiplicity leaves over.  So
    the hats are the rows with l > 0: chains, z-chains and multiples all
    have l = 0.

    The signs follow one rule over the rows in (B, rank) order: each row
    hands the next (-1)^circles times its own sign, starting from eta,
    and a multiple or a z-chain negates the sign it is handed.  A z-chain
    always comes right after a multiple of its own column, with the same
    sign: its overlap column has multiplicity at least 3, of which the
    two intervals take two rows, and the multiples of a column sort
    before its z-chain.

    Equal rows of the members of one block are one object: the rows come
    from the block's row table (see the module docstring), which holds at
    most 2n^2 rows for n columns.  A rejected input leaves it as it was,
    since no row is looked up before every check has passed.
    """
    return MultiSegment._of(_rows(M, S, _checked(M, S, T, eta), eta), STRICT)


def theta1(ms):
    """Prepend the lifting hat covering one extra column on each side.

    The hat is valid for any checked input, whose rows all have A >= 0:
    A + B = 0, and 2l = b - 1 is in range and leaves a circle, so the hat
    is strict and weak-normalized as built.
    """
    if not ms.rows:
        raise SegmentError("lift of the empty multi-segment is undefined")
    c_max = max(r.A for r in ms.rows)
    hat = Row(c_max + 1, -c_max - 1, c_max + 1, -ms.rows[0].eta)
    return MultiSegment._of((hat,) + ms.rows, ms.mode)


def theta_family(M, S, T=None, eta=1):
    """The lift family of a class member: [(tag, multi-segment), ...].

    Three members when the top multiplicity is 1, four otherwise; the second
    and fourth coincide in packet exactly when S contains the singleton top
    column.  The block must start at 0; any other raises SegmentError
    before a lift is built.  Then (S, T, eta) get build's checks against M,
    here and only here: _checked runs once per family.  The empty block,
    which has no lift, raises SegmentError.

    Every lift is a member of the block with one more column, M1 = M plus
    a column c + 1 = c_max + 1 of multiplicity 1, built with -eta.  M1 is
    M._lift_block, made once per block, so every family of a member of M
    takes its rows from one row table.  With
    (a, c) the last interval of S and P the last split of T (trivial_T(S)
    when T is None), its coordinates are:

    - theta1: the last interval made (a, c + 1), and the top column added
      to P as one more part, (c + 1, c + 1): theta1 of the member, its
      lifting hat prepended;
    - theta2: the same S, and the last part (p, c) of P made (p, c + 1);
    - theta3: S and T with the one-column interval (c + 1, c + 1) added;
    - theta4, when mult(c) > 1: S and T with (c, c + 1) added, which
      overlaps the interval before it at c.

    These coordinates are valid for M1 whenever (S, T, eta) are for M: the
    new column c + 1 has multiplicity 1 and is only cut to or extended
    into, and theta4's overlap at c needs the mult(c) > 1 it is given.  So
    each lift goes straight to _rows, with no second check; the tests
    check that each is the build of M1 at -eta, and that the family
    arises through the operators, each lift a state of the closure of
    theta1 of the tempered block.
    """
    if M.c_min != 0:
        raise SegmentError("the lift family applies to blocks starting at 0")
    T = _checked(M, S, T, eta)
    if not S:
        raise SegmentError("lift of the empty multi-segment is undefined")
    c = M.c_max
    *S0, (a, _) = S
    *T0, P = T
    *P0, (p, _) = P
    top = (c + 1, c + 1)
    coords = [("theta1", (*S0, (a, c + 1)), (*T0, (*P, top))),
              ("theta2", (*S0, (a, c + 1)), (*T0, (*P0, (p, c + 1)))),
              ("theta3", (*S, top), (*T, (top,)))]
    if M.mult(c) > 1:
        coords.append(("theta4", (*S, (c, c + 1)), (*T, ((c, c + 1),))))
    M1 = M._lift_block
    return [(tag, MultiSegment._of(_rows(M1, S1, T1, -eta), STRICT))
            for tag, S1, T1 in coords]


def theta2_matches_theta4(M, S):
    """Whether the second and fourth lifts share a packet: the S-tuple
    contains the singleton top column, given as a tuple or a list.  A
    block that does not start at 0 raises theta_family's SegmentError,
    and an S that build refuses build's error."""
    if M.c_min != 0:
        raise SegmentError("the lift family applies to blocks starting at 0")
    _checked(M, S, None, 1)
    return (M.c_max, M.c_max) in map(tuple, S)
