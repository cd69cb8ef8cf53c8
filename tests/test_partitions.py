"""Partitions and the charged-subset diagrams that index charts."""

import pytest
from hypothesis import given, strategies as st

from grasstau import DomainError, MayaDiagram, conjugate, partitions_of, partitions_up_to


def test_conjugate_frozen():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()


partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(partitions)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_partition_counts():
    assert sum(1 for _ in partitions_of(5)) == 7
    assert list(partitions_of(0)) == [()]
    assert len(partitions_up_to(4)) == 1 + 1 + 2 + 3 + 5


def test_partitions_of_respects_max_part():
    assert set(partitions_of(4, max_part=2)) == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}


def test_malformed_partitions_are_rejected():
    with pytest.raises(DomainError):
        MayaDiagram.from_partition((1, 2))  # not weakly decreasing
    with pytest.raises(DomainError):
        MayaDiagram.from_partition((2, -1))


def test_vacuum_diagram():
    m = MayaDiagram.vacuum()
    assert m.charge() == 0
    assert m.to_partition() == ()
    assert -1 in m and 0 not in m


def test_from_partition_frozen():
    m = MayaDiagram.from_partition((3, 1))
    assert m.charge() == 0
    assert m.to_partition() == (3, 1)
    assert 2 in m and -1 in m
    assert 0 not in m and -2 not in m
    assert m.members_from(-2) == [-1, 2]


def test_normalization_absorbs_touching_members():
    m = MayaDiagram(-2, [-2, -1, 3])
    assert m.tail_start == 0
    assert m.members == (3,)


def test_members_below_the_tail_are_rejected():
    with pytest.raises(DomainError):
        MayaDiagram(0, [-1])


@given(partitions, st.integers(-2, 2))
def test_partition_charge_round_trip(lam, c):
    m = MayaDiagram.from_partition(lam, charge=c)
    assert m.charge() == c
    assert m.to_partition() == lam


@given(st.integers(-3, 3), st.sets(st.integers(-3, 8), max_size=5))
def test_charge_counts_normalized_deviations(tail, members):
    m = MayaDiagram(tail, {x for x in members if x >= tail})
    assert m.charge() == m.tail_start + len(m.members)
    # the counting definition #(S and Z>=0) - #(Z<0 minus S), on a window
    # wide enough to hold every deviation from the vacuum
    window = range(-10, 12)
    assert m.charge() == sum(1 for e in window if e >= 0 and e in m) - sum(
        1 for e in window if e < 0 and e not in m
    )
    assert m.tail_start not in m.members


def test_partitions_of_a_negative_size_is_empty():
    assert list(partitions_of(-1)) == []
    assert partitions_up_to(-1) == []


def test_maya_diagram_repr_hash_and_foreign_equality():
    m = MayaDiagram.from_partition((2, 1))
    assert repr(m) == "MayaDiagram(tail_start=-2, members=(-1, 1))"
    seen = {m: "(2, 1)", MayaDiagram.vacuum(): "()"}
    assert seen[MayaDiagram(-3, [1, -3, -1])] == "(2, 1)"  # built apart, equal, one key
    assert len(seen) == 2
    assert (m == (2, 1)) is False
