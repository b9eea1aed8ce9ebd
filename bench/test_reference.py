"""Tests of the benchmark's own reference and input generators.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import pytest

import reference
import workloads


@pytest.mark.parametrize("k", [1, 2, 3, 7, 40, 600])
def test_all_ones_from_zero_is_a_power_of_three(k):
    assert reference.packet_count(0, (1,) * k) == 3 ** (k - 1)


@pytest.mark.parametrize("c_min", [1, 2, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 600])
def test_all_ones_from_one_is_a_power_of_two(c_min, n):
    assert reference.packet_count(c_min, (1,) * n) == 2 ** (n - 1)


def test_two_term_recursion_on_larger_multiplicities():
    # N(k) = 4 N(k-1) - N(k-2) from column 0, 3 N(k-1) - N(k-2) otherwise.
    assert reference.packet_count(0, (3, 3)) == 3
    assert reference.packet_count(0, (3, 3, 3)) == 11
    assert reference.packet_count(0, (3, 3, 3, 3)) == 41
    assert reference.packet_count(0, (1, 3, 1, 3, 1)) == 121
    assert reference.packet_count(1, (3, 3, 3, 3)) == 13
    assert reference.packet_count(1, (1, 5, 1, 5, 1)) == 25


def test_later_blocks_count_from_column_one():
    assert reference.product_count([(0, (1, 3, 1)), (5, (1, 3, 1))]) == 11 * 5
    assert reference.product_count([(0, (1, 1)), (0, (1, 1))]) == 3 * 2
    assert reference.product_count([]) == 1


def test_row_properties():
    assert reference.rows_strict([(4, -1, 2, 1), (3, 2, 1, 1)])
    assert not reference.rows_strict([(3, 2, 2, 1)])
    assert reference.rows_admissible([(1, 0, 0, 1), (2, 1, 0, 1)])
    assert not reference.rows_admissible([(2, 1, 0, 1), (1, 0, 0, 1)])
    assert reference.rows_weight([(0, 0, 0, 1), (1, 1, 0, -1)]) == 1 + 3
    assert reference.psi_weight(((1, 1), (3, 1))) == 4


@pytest.mark.parametrize("kinds", [
    (workloads.TYPE1,), (workloads.TYPE2,), (workloads.TYPE3,),
    (workloads.TYPE3, workloads.TYPE2, workloads.TYPE1),
])
def test_layouts_decompose_as_laid_out(kinds):
    import random
    rng = random.Random(5)
    mults = [(1, 3, 1)] + [(1, 5, 3)] * len(kinds)
    for first_cmin in (0, 2):
        layout = workloads.lay_out(first_cmin, mults, kinds, rng)
        ms = workloads.build_tempered(layout)
        workloads.check_decomposition(ms, layout)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]()
    labels = [[op.label for op in w.inputs(seed, 1)] for seed in (1, 1, 2)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]


def test_failing_share_does_not_depend_on_the_seed():
    w = workloads.CountQuery()
    for seed in (1, 2, 3):
        ops = w.inputs(seed, 2)
        assert len(ops) == 2 * (len(w.block_counts) + 1)
        assert sum(op.may_fail for op in ops) == 2


def test_long_block_layouts_decompose_as_laid_out():
    for layout in workloads._long_layouts():
        assert max(len(mults) for _, mults, _ in layout) >= 1000
        ms = workloads.build_tempered(layout)
        workloads.check_decomposition(ms, layout)
