"""Points, minors, charts, the group action, and the finite model.

The two-column point used throughout has the window matrix

        exp   col1  col2
        -2     1     0
        -1     0     1
         0     1     2
         1     1     3

so every 2x2 minor is computable by hand; the frozen table below is that
computation.
"""

import pytest

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GrassPoint,
    LaurentElement,
    MayaDiagram,
    NotInvertibleError,
    PrecisionError,
    act,
    chart_transition,
    embed_finite,
    exp_gamma,
    factorize,
    in_chart,
    index,
    plucker,
    quotient_basis,
)

RING = CoeffRing(QQ, 1, 2)

MINORS = {(): 1, (1,): 2, (2,): 3, (1, 1): -1, (2, 1): -1, (2, 2): 1}


def two_column_point(ring=RING):
    c1 = LaurentElement(ring, {-2: 1, 0: 1, 1: 1})
    c2 = LaurentElement(ring, {-1: 1, 0: 2, 1: 3})
    return GrassPoint(ring, 2, [c1, c2])


def test_plucker_minors_frozen():
    pt = two_column_point()
    for lam, val in MINORS.items():
        assert plucker(pt, MayaDiagram.from_partition(lam)) == RING.const(val)


def test_base_point_is_the_vacuum():
    pt = GrassPoint.base_point(RING, 3)
    assert index(pt) == 0
    assert plucker(pt, MayaDiagram.vacuum()) == RING.one()
    assert in_chart(pt, MayaDiagram.vacuum())
    assert not in_chart(pt, MayaDiagram.from_partition((1,)))


def test_minor_vanishes_on_charge_mismatch():
    pt = two_column_point()
    assert plucker(pt, MayaDiagram.from_partition((), charge=1)).is_zero()
    assert plucker(pt, MayaDiagram.from_partition((1,), charge=-1)).is_zero()


def test_chart_transition_frozen():
    pt = two_column_point()
    vac = MayaDiagram.vacuum()
    box = MayaDiagram.from_partition((1,))
    t = chart_transition(pt, box, vac)
    assert t == RING.const(2)
    assert chart_transition(pt, vac, box) * t == RING.one()


def test_chart_transitions_compose():
    pt = two_column_point()
    a, b, c = (MayaDiagram.from_partition(l) for l in [(), (1,), (2, 1)])
    assert chart_transition(pt, a, b) * chart_transition(pt, b, c) == chart_transition(
        pt, a, c
    )
    assert chart_transition(pt, a, a) == RING.one()


def test_transition_needs_an_invertible_minor():
    pt = GrassPoint.base_point(RING, 2)
    with pytest.raises(NotInvertibleError):
        chart_transition(pt, MayaDiagram.vacuum(), MayaDiagram.from_partition((1,)))


def test_index_counts_columns_against_the_tail():
    assert index(GrassPoint(RING, 2, [])) == -2
    assert index(two_column_point()) == 0
    cols = [
        LaurentElement(RING, {-1: 1}),
        LaurentElement(RING, {0: 1}),
        LaurentElement(RING, {1: 1}),
    ]
    assert index(GrassPoint(RING, 1, cols)) == 2


def test_dependent_columns_do_not_raise_the_index():
    c = LaurentElement(RING, {-1: 1, 0: 2})
    pt = GrassPoint(RING, 1, [c, c + c])
    assert index(pt) == 0


PAST_WINDOW = r"^minor needs the coefficient of z\^0, beyond the window$"


def test_a_chart_block_past_the_window_names_its_first_row():
    # known below z^0: the vacuum rows (-2, -1) are readable, the (2,2)
    # rows (0, 1) are not, and both ways of reading the block say so alike
    pt = GrassPoint(RING, 2, [c.truncate(0) for c in two_column_point().columns])
    assert plucker(pt, MayaDiagram.vacuum()) == RING.one()
    assert in_chart(pt, MayaDiagram.vacuum())
    block = MayaDiagram.from_partition((2, 2))
    for call in (plucker, in_chart):
        with pytest.raises(PrecisionError, match=PAST_WINDOW):
            call(pt, block)


def test_index_refuses_what_the_window_cannot_decide():
    with pytest.raises(PrecisionError, match=r"^index needs the column window to reach z\^0$"):
        index(GrassPoint(RING, 2, [LaurentElement(RING, {-2: 1}, trunc=-1)]))
    # exactly known, c and 2c are honestly dependent (see above); windowed,
    # the unseen tails might still tell them apart
    c = LaurentElement(RING, {-1: 1, 0: 2}, trunc=1)
    with pytest.raises(
        PrecisionError, match="^columns are dependent on the visible window; index undetermined$"
    ):
        index(GrassPoint(RING, 1, [c, c + c]))


def test_columns_inside_the_tail_are_rejected():
    with pytest.raises(DomainError):
        GrassPoint(RING, 1, [LaurentElement(RING, {-2: 1})])


# ---------------------------------------------------------------------------
# group action
# ---------------------------------------------------------------------------


def test_lower_action_fixes_the_vacuum_minor():
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    g = exp_gamma(ring, [x], -1)
    pt = act(g, GrassPoint.base_point(ring, 2))
    assert plucker(pt, MayaDiagram.vacuum()) == ring.one()
    assert index(pt) == 0


def test_upper_action_with_promotion_keeps_the_index():
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    g = exp_gamma(ring, [x], 1, trunc=6)
    out = act(g, GrassPoint.base_point(ring, 2), promote=2)
    assert out.tail_depth == 4
    assert len(out.columns) == 4
    assert index(out) == 0


def test_upper_action_refuses_a_negative_promotion():
    ring = CoeffRing(QQ, 1, 2)
    g = exp_gamma(ring, [ring.gen(0)], 1, trunc=6)
    with pytest.raises(DomainError, match="^promote must be >= 0$"):
        act(g, GrassPoint.base_point(ring, 2), promote=-1)


def test_unit_action_scales_minors_by_column_count():
    ring = RING
    g = factorize(LaurentElement.const(ring, 3))
    pt = two_column_point()
    moved = act(g, pt)
    for lam, val in MINORS.items():
        assert plucker(moved, MayaDiagram.from_partition(lam)) == ring.const(9 * val)


def test_z_power_action_is_rejected():
    g = factorize(LaurentElement.z_power(RING, 1))
    with pytest.raises(DomainError):
        act(g, GrassPoint.base_point(RING, 2))


# ---------------------------------------------------------------------------
# finite model
# ---------------------------------------------------------------------------


def test_finite_quotient_frozen():
    ring = CoeffRing(GF(2), 1, 1)
    small = GrassPoint(ring, 2, [])
    big = GrassPoint(
        ring,
        2,
        [
            LaurentElement(ring, {-2: 1}),
            LaurentElement(ring, {-1: 1}),
            LaurentElement(ring, {0: 1}),
            LaurentElement(ring, {1: 1}),
        ],
    )
    basis = quotient_basis(small, big)
    assert [sorted(b.coeffs) for b in basis] == [[-2], [-1], [0], [1]]
    assert index(small) == -2
    assert index(big) == 2

    # a rank-2 subspace of the quotient
    emb = embed_finite([[1, 0, 1, 0], [0, 1, 0, 0]], small, big)
    assert index(emb) == 0
    assert emb.tail_depth == 2
    # columns z^-2 + 1 and z^-1: vacuum rows (-2,-1) and (1,1)-rows (-1,0)
    # are invertible, the (1,)-rows (-2,0) are not
    assert plucker(emb, MayaDiagram.vacuum()) == ring.one()
    assert plucker(emb, MayaDiagram.from_partition((1, 1))) == ring.one()
    assert not in_chart(emb, MayaDiagram.from_partition((1,)))


def test_embed_finite_checks_vector_length():
    ring = CoeffRing(GF(2), 1, 1)
    small = GrassPoint(ring, 2, [])
    big = GrassPoint(ring, 2, [LaurentElement(ring, {-2: 1})])
    with pytest.raises(DomainError):
        embed_finite([[1, 0]], small, big)


def test_quotient_needs_containment():
    ring = CoeffRing(GF(2), 1, 1)
    small = GrassPoint(ring, 1, [LaurentElement(ring, {0: 1})])
    big = GrassPoint(ring, 1, [LaurentElement(ring, {1: 1})])
    with pytest.raises(DomainError):
        quotient_basis(small, big)
