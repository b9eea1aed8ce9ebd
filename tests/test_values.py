"""The value classes and result records: their text, equality, hash,
immutability, pickling and copying, on fixed examples."""

import copy
import pickle

import pytest

from emseg import (
    BlockTuple, Boundary, ClosureReport, MultiSegment, OpResult, PacketCount,
    build, classify_boundary, closure, count_block_recursive, enumerate_ST,
    parse, render, row_exchange, theta_family, ui,
)
from emseg.core import RELAXED

# A maker of each example value, called afresh for each copy, and its
# repr.  The reprs are the ones the classes had as frozen dataclasses.
EXAMPLES = [
    (lambda: parse("[4,-1;2;+][3,2;1;+][4,4;0;-]"),
     "MultiSegment(rows=(Row(A=4, B=-1, l=2, eta=1), Row(A=3, B=2, l=1, "
     "eta=1), Row(A=4, B=4, l=0, eta=-1)), mode='strict')"),
    (lambda: parse("[1,0;3;-]", RELAXED),
     "MultiSegment(rows=(Row(A=1, B=0, l=3, eta=-1),), mode='relaxed')"),
    (lambda: BlockTuple(1, (3, 1, 5)),
     "BlockTuple(c_min=1, mults=(3, 1, 5))"),
    (lambda: BlockTuple(0, ()), "BlockTuple(c_min=0, mults=())"),
    (lambda: ui(parse("[0,0;0;+][1,1;0;-]"), 0),
     "OpResult(out=MultiSegment(rows=(Row(A=1, B=0, l=0, eta=1),), "
     "mode='strict'), applied=True, type_tag='T3prime')"),
    (lambda: row_exchange(parse("[3,0;0;+][1,1;0;-]"), 0),
     "OpResult(out=MultiSegment(rows=(Row(A=1, B=1, l=0, eta=1), Row(A=3, "
     "B=0, l=1, eta=-1)), mode='strict'), applied=True, type_tag=None)"),
    (lambda: count_block_recursive(BlockTuple(0, (1, 3))),
     "PacketCount(value=3, method='recursion')"),
    (lambda: closure(parse("[1,0;0;+]"), max_states=1),
     "ClosureReport(nodes=frozenset({b'[1,0;0;+]'}), psi=frozenset({((2, "
     "2),)}), states=1, stop='states', max_states=1, max_depth=64)"),
    (lambda: classify_boundary(parse("[0,0;0;+]"), parse("[1,1;0;-]")),
     "Boundary(kind='Type3', H_col=0, N_col=1)"),
]
MAKERS = [make for make, _ in EXAMPLES]

# The fields of each class, in their order.
FIELDS = {MultiSegment: ("rows", "mode"), BlockTuple: ("c_min", "mults"),
          OpResult: ("out", "applied", "type_tag"),
          PacketCount: ("value", "method"),
          ClosureReport: ("nodes", "psi", "states", "stop", "max_states",
                          "max_depth"),
          Boundary: ("kind", "H_col", "N_col")}

# The values whose fields are no tuple: each equals only its own type.
PLAIN = [lambda: parse("[2,1;0;+][1,1;0;-]"), lambda: BlockTuple(2, (1, 3))]


@pytest.mark.parametrize("make, text", EXAMPLES)
def test_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", MAKERS)
def test_equal_values_compare_equal_and_hash_alike(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_with_other_fields_differ():
    assert parse("[1,0;0;+]") != parse("[1,0;0;+]", RELAXED)
    assert BlockTuple(0, (1, 3)) != BlockTuple(1, (1, 3))
    assert BlockTuple(0, (1, 3)) != BlockTuple(0, (3, 1))
    assert BlockTuple(0, (1, 3)) != parse("[0,0;0;+]")


@pytest.mark.parametrize("make", PLAIN)
def test_plain_values_are_no_tuples(make):
    value = make()
    fields = tuple(getattr(value, name) for name in FIELDS[type(value)])
    assert value != fields and fields != value
    assert not isinstance(value, tuple)


def test_records_are_named_tuples():
    """A result record unpacks and equals the tuple of its fields."""
    value, method = count_block_recursive(BlockTuple(0, (1, 3)))
    assert (value, method) == PacketCount(3, "recursion") == (3, "recursion")
    out, applied, tag = ui(parse("[0,0;0;+][1,1;0;-]"), 0)
    assert (render(out), applied, tag) == ("[1,0;0;+]", True, "T3prime")
    assert OpResult(out, True).type_tag is None
    assert Boundary("Type1", 0, 2) == ("Type1", 0, 2)
    report = closure(parse("[1,0;0;+]"))
    assert report.exhausted and report.stop == report[3] == "exhausted"
    assert not ClosureReport(*report[:3], "depth", *report[4:]).exhausted


@pytest.mark.parametrize("make", MAKERS)
def test_values_are_immutable(make):
    value = make()
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == repr(make())


def test_keyword_construction():
    ms = MultiSegment(rows=((1, 0, 0, 1),), mode=RELAXED)
    assert ms == MultiSegment([(1, 0, 0, 1)], RELAXED)
    assert BlockTuple(mults=(1,), c_min=2) == BlockTuple(2, (1,))


def test_the_lift_block_is_no_field():
    """theta_family keeps the block with one more column on the block, as
    build keeps the row table: equality, hash and repr ignore both, and a
    pickle of a fresh block carries neither."""
    M, fresh = BlockTuple(0, (1, 3, 1)), BlockTuple(0, (1, 3, 1))
    theta_family(M, ((0, 2),))
    assert "_lift_block" in vars(M)
    assert (fresh, hash(fresh), repr(fresh)) == (M, hash(M), repr(M))
    back = pickle.loads(pickle.dumps(fresh))
    assert back == M and not {"_row_table", "_lift_block"} & set(vars(back))


def test_a_multi_segment_has_slots_only():
    ms = parse("[1,0;0;+]")
    assert not hasattr(ms, "__dict__")
    assert MultiSegment.__slots__ == ("rows", "mode")


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(make, protocol):
    value = make()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)


@pytest.mark.parametrize("make", MAKERS)
def test_copies_are_equal(make):
    value = make()
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and repr(copied) == repr(value)


def test_a_pickled_or_copied_block_keeps_its_row_table():
    """The row table is no field, but a pickle or a deep copy of a used
    block carries an equal one, as its __dict__ did before."""
    M = BlockTuple(0, (1, 3, 1))
    for S, T in enumerate_ST(M):
        build(M, S, T)
    table = M._row_table
    assert len(table) == 13
    for back in (pickle.loads(pickle.dumps(M)), copy.deepcopy(M)):
        assert back == M and back._row_table == table
        assert back._row_table is not table
    fresh = BlockTuple(0, (1, 3, 1))
    assert "_row_table" not in vars(pickle.loads(pickle.dumps(fresh)))
