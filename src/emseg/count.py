"""Packet counting: the recursions, the enumeration, and the product rule."""

from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from .blocks import BlockTuple, block_tuples, tempered_block
from .closure import LimitError, closure
from .core import _limit, arthur_parameter
from .sdata import build, iter_S, iter_ST

RECURSION, ENUMERATION, CLOSURE = "recursion", "enumeration", "closure"


class PacketCount(NamedTuple):
    value: int
    method: str


# Each block is counted once per query, so the cache only needs to hold a
# few recent blocks; it must not grow with the input.
_CACHE_SIZE = 16


@lru_cache(maxsize=_CACHE_SIZE)
def _count_rec(c_min, mults):
    """The two-term recursion over the columns of one block, as a loop.

    Adding a column multiplies the count by 3 from column 0 (2 from a
    column >= 1) when the column before it has multiplicity 1, and
    otherwise gives 4 * prev - prev2 (3 * prev - prev2).  Blocks of zero
    or one column count 1.
    """
    factor = 3 if c_min == 0 else 2
    prev2, prev = 1, 1
    for m in mults[:-1]:
        if m == 1:
            prev2, prev = prev, factor * prev
        else:
            prev2, prev = prev, (factor + 1) * prev - prev2
    return prev


def count_block_recursive(M):
    """The two-term recursion over shortened blocks."""
    return PacketCount(_count_rec(0 if M.c_min == 0 else 1, M.mults), RECURSION)


def count_block_enumerative(M, eta=1):
    """Distinct packets among all built class members."""
    members = iter_ST(M) if M.c_min == 0 else zip(iter_S(M), repeat(None))
    psis = {arthur_parameter(build(M, S, T, eta)) for S, T in members}
    return PacketCount(len(psis), ENUMERATION)


def count_block_closure(M, eta=1, **limits):
    """Independent oracle: breadth-first closure of the tempered block.

    Raises LimitError when a limit stops the closure.
    """
    report = closure(tempered_block(M, eta), **limits)
    if not report.exhausted:
        raise LimitError.of(report.stop, report.max_states, report.max_depth)
    return PacketCount(len(report.psi), CLOSURE)


# Each counting method by name, in the order verify_instance reports them.
METHODS = {RECURSION: count_block_recursive,
           ENUMERATION: count_block_enumerative,
           CLOSURE: count_block_closure}


def count_tempered(ms):
    """Product over the block decomposition; only the first block may use
    the start-at-zero recursion."""
    total = 1
    for i, (bt, _) in enumerate(block_tuples(ms)):
        total *= _count_rec(0 if i == bt.c_min == 0 else 1, bt.mults)
    return PacketCount(total, RECURSION)


def count_multi(parts):
    """Product over independent supercuspidal labels."""
    total = 1
    for ms in parts:
        total *= count_tempered(ms).value
    return PacketCount(total, RECURSION)


def iter_grid(max_len=4, max_mult=5, max_cmin=1, max_rows=9):
    """Yield the block-tuples of the verification grid: depth first over
    the multiplicity prefixes, each at every c_min in turn.  The next
    prefix appends a 1 while a column of 1 fits, or else drops columns
    until the last one can grow by 2 within max_mult and the rows left.
    So a caller that stops early has made only the instances it took; a
    caller that wants the list takes list(iter_grid(...)).

    Each bound must be a plain int (ScopeError otherwise) of at least 0
    (SegmentError otherwise), checked when the first instance is asked
    for."""
    for name, bound in (("max_len", max_len), ("max_mult", max_mult),
                        ("max_cmin", max_cmin), ("max_rows", max_rows)):
        _limit(bound, name)
    prefix, left = [], max_rows
    while True:
        if len(prefix) < max_len and left >= 1 <= max_mult:
            prefix.append(1)
            left -= 1
        else:
            while prefix and (left < 2 or prefix[-1] + 2 > max_mult):
                left += prefix.pop()
            if not prefix:
                return
            prefix[-1] += 2
            left -= 2
        mults = tuple(prefix)
        for c_min in range(max_cmin + 1):
            yield BlockTuple(c_min, mults)


def verify_instance(M):
    """Three-way agreement report for one block-tuple, as a dict."""
    counts = {name: count(M).value for name, count in METHODS.items()}
    return {"c_min": M.c_min, "mults": list(M.mults), **counts,
            "agree": len(set(counts.values())) == 1}
