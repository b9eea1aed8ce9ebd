"""Answers the benchmark checks emseg against, computed without emseg.

Everything here works on plain tuples and integers so that a fault in the
package cannot hide in its own reference.
"""


def packet_count(c_min, mults):
    """The paper's two-term recursion over the columns of one block.

    Shortening the block by its last column: from column 0 the count
    multiplies by 3 when the second-to-last multiplicity is 1 and is
    4 * prev - prev2 otherwise; from a column >= 1 the factors are 2 and
    3 * prev - prev2.  The empty and the one-column block count 1.
    """
    prev2, prev = 1, 1
    for k in range(1, len(mults)):
        if c_min == 0:
            cur = 3 * prev if mults[k - 1] == 1 else 4 * prev - prev2
        else:
            cur = 2 * prev if mults[k - 1] == 1 else 3 * prev - prev2
        prev2, prev = prev, cur
    return prev


def product_count(blocks):
    """The product rule over blocks in column order.

    ``blocks`` is a list of (c_min, mults).  Only the first block may use
    the start-at-zero recursion; later blocks count from max(c_min, 1).
    """
    total = 1
    for i, (c_min, mults) in enumerate(blocks):
        total *= packet_count(c_min if i == 0 else max(c_min, 1), mults)
    return total


def psi_weight(psi):
    """Sum of a * b over a parameter: the dimension every move preserves."""
    return sum(a * b for a, b in psi)


def rows_weight(rows):
    """Sum of a * b over (A, B, l, eta) rows, with a = A+B+1, b = A-B+1."""
    return sum((A + B + 1) * (A - B + 1) for A, B, _, _ in rows)


def rows_strict(rows):
    """Every row has 0 <= 2l <= b."""
    return all(0 <= 2 * l <= A - B + 1 for A, B, l, _ in rows)


def rows_admissible(rows):
    """Order (P): no row lies strictly above and to the right of a later row."""
    return not any(
        rows[i][0] > rows[j][0] and rows[i][1] > rows[j][1]
        for i in range(len(rows)) for j in range(i + 1, len(rows)))
