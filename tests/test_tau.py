"""Tau polynomials, the wave series, and the residual of the bilinear identity.

The frozen values are hand computations.  For the two-column point the
minor table lives in test_grassmann (vac 1, (1) 2, (2) 3, (1,1) -1,
(2,1) -1, (2,2) 1), so at bound 3

    tau = 1 + 2 F_1 + 3 F_2 - F_11 - F_21
        = 1 + 2 x1 + 4 x2 - x1^2 - x1 x2 + x3.

The single-column point span{z^-1 + c} has tau = 1 + c x1 at any bound,
which makes the wave series reconstructible from first principles: the
shift x1 -> x1 + t gives psi = v^{-1} (1 + c (1 + c x1)^{-1} z).
"""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GammaElement,
    GrassPoint,
    LaurentElement,
    NotInvertibleError,
    PrecisionError,
    act,
    baker,
    coordinate_ring,
    exp_gamma,
    factorize,
    kp_residual,
    partitions_up_to,
    plucker,
    schur_polynomial,
    tau_crosscheck,
    tau_direct,
    tau_eval,
    tau_schur,
    universal_v,
)

RING = CoeffRing(QQ, 1, 1)


def single_column_point(c, ring=RING):
    return GrassPoint(ring, 1, [LaurentElement(ring, {-1: 1, 0: c})])


def two_column_point():
    ring = CoeffRing(QQ, 1, 2)
    c1 = LaurentElement(ring, {-2: 1, 0: 1, 1: 1})
    c2 = LaurentElement(ring, {-1: 1, 0: 2, 1: 3})
    return GrassPoint(ring, 2, [c1, c2])


def test_tau_single_column_frozen():
    t = tau_crosscheck(single_column_point(Fraction(3, 7)), 3)
    x1 = t.ring.gen(0)
    assert t == t.ring.one() + x1 * Fraction(3, 7)


def test_tau_two_column_frozen():
    t = tau_crosscheck(two_column_point(), 3)
    x1, x2, x3 = (t.ring.gen(i) for i in range(3))
    expected = t.ring.one() + 2 * x1 + 4 * x2 - x1 * x1 - x1 * x2 + x3
    assert t == expected
    assert tau_direct(two_column_point(), 3) == tau_schur(two_column_point(), 3)


def test_tau_schur_takes_each_minor_once(monkeypatch):
    # the vacuum minor normalizes; the empty partition reuses it
    import grasstau.tau as tau_module

    calls = []

    def counted(point, diagram):
        calls.append(diagram)
        return plucker(point, diagram)

    monkeypatch.setattr(tau_module, "plucker", counted)
    pt = two_column_point()
    assert tau_schur(pt, 2) == tau_direct(pt, 2)
    calls.clear()
    tau_schur(pt, 2)
    assert len(calls) == len(partitions_up_to(2)) == 4


def test_tau_of_the_base_point_is_one():
    for depth in (1, 2, 4):
        t = tau_crosscheck(GrassPoint.base_point(RING, depth), 3)
        assert t == t.ring.one()


def test_tau_positive_characteristic():
    ring = CoeffRing(GF(5), 1, 1)
    t = tau_crosscheck(single_column_point(3, ring), 2)
    assert t == t.ring.one() + 3 * t.ring.gen(0)


NOT_SCALAR = "^tau needs a point with scalar coefficients$"


def test_tau_rejects_variable_coefficients():
    # every route reads the columns as scalars before the chart check
    # (the second point is outside the vacuum chart too)
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    for col in ({-1: 1, 0: x}, {-1: x, 0: 1}):
        pt = GrassPoint(ring, 1, [LaurentElement(ring, col)])
        for call in (lambda: tau_direct(pt, 2), lambda: tau_schur(pt, 2), lambda: baker(pt, 1, 1)):
            with pytest.raises(DomainError, match=NOT_SCALAR):
                call()


def test_tau_rejects_a_variable_coefficient_no_minor_reads():
    # x1 at z^5 lies past every row a degree-2 minor reads, so a route
    # that only looked at the minors would answer 1 + 3 x1
    x = RING.gen(0)
    pt = GrassPoint(RING, 1, [LaurentElement(RING, {-1: 1, 0: 3, 5: x})])
    for call in (lambda: tau_direct(pt, 2), lambda: tau_schur(pt, 2), lambda: baker(pt, 2, 1)):
        with pytest.raises(DomainError, match=NOT_SCALAR):
            call()


OFF_CHART = re.escape(
    "point is not in the vacuum chart; the tau normalization needs an invertible vacuum minor"
)


def test_tau_refuses_a_point_outside_the_vacuum_chart():
    ring = CoeffRing(QQ, 1, 2)
    pt = GrassPoint(ring, 1, [LaurentElement(ring, {0: 1, 1: 2})])
    for call in (lambda: tau_direct(pt, 2), lambda: tau_schur(pt, 2), lambda: baker(pt, 1, 1)):
        with pytest.raises(NotInvertibleError, match=OFF_CHART):
            call()


def test_tau_needs_the_full_degree_window():
    col = LaurentElement(RING, {-1: 1, 0: 2}, trunc=2)
    pt = GrassPoint(RING, 1, [col])
    assert tau_crosscheck(pt, 2) == tau_crosscheck(single_column_point(2), 2)
    with pytest.raises(PrecisionError):
        tau_direct(pt, 3)


def test_tau_eval_is_multiplicative_in_the_lower_sector():
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    g1 = exp_gamma(ring, [x], -1)
    g2 = exp_gamma(ring, [2 * x, x * x], -1)
    pt = GrassPoint(ring, 1, [LaurentElement(ring, {-1: 1, 0: 2, 1: 1})])
    moved = act(g2, pt)
    lhs = tau_eval(pt, g1 * g2)
    rhs = tau_eval(moved, g1) * tau_eval(pt, g2)
    assert lhs == rhs
    assert tau_eval(pt, GammaElement.identity(ring)) == ring.one()


# ---------------------------------------------------------------------------
# wave series
# ---------------------------------------------------------------------------


def test_baker_of_the_base_point_is_v_inverse():
    psi = baker(GrassPoint.base_point(RING, 2), 3, 3)
    assert psi.trunc == 3
    ring_d = psi.ring
    x1, x2, x3 = (ring_d.gen(i) for i in range(3))
    vinv = universal_v(QQ, 3).gminus.inverse()
    assert psi.same_series(vinv)
    assert psi.coefficient(0) == ring_d.one()
    assert psi.coefficient(-1) == -x1
    assert psi.coefficient(-2) == x1 * x1 - x2
    assert psi.coefficient(-3) == -(x1 ** 3) + 2 * x1 * x2 - x3
    assert psi.coefficient(1).is_zero() and psi.coefficient(2).is_zero()


def test_baker_single_column_reconstruction():
    # independent route: tau = 1 + c x1 exactly, so the shifted quotient
    # is 1 + c (1 + c x1)^{-1} t and psi = v^{-1} (1 + c g z), g = (1+c x1)^{-1}
    c = Fraction(3, 7)
    psi = baker(single_column_point(c), 3, 4)
    ring_d = psi.ring
    x1 = ring_d.gen(0)
    g = (ring_d.one() + x1 * c).inverse()
    vinv = universal_v(QQ, 3).gminus.inverse()
    expected = vinv * LaurentElement(ring_d, {0: 1, 1: g * c})
    assert psi.same_series(expected)
    assert psi.trunc == 4


def test_shifted_wave_series_lies_in_the_span():
    # z^-1 psi must be a ring-combination of the tail and the column
    # z^-1 + c; above the tail that means coeff(0) = c * coeff(-1) after
    # the shift, i.e. psi's z^1 coefficient is c times its constant one.
    c = Fraction(3, 7)
    psi = baker(single_column_point(c), 3, 4)
    shifted = psi.shift(-1)
    assert shifted.coefficient(0) == shifted.coefficient(-1) * c
    assert shifted.coefficient(1).is_zero()
    assert shifted.coefficient(2).is_zero()


def test_baker_window_and_constant_normalization():
    psi = baker(two_column_point(), 2, 3)
    assert psi.trunc == 3
    assert psi.coefficient(0).constant_term() == 1


def _vacuum_chart_point(rng: Random, field, depth: int, top: int) -> GrassPoint:
    """One exact column per tail slot: a nonzero scalar at z^-j and random
    scalars above it up to z^top."""
    ring = CoeffRing(field, 0, 0)

    def scalar(nonzero: bool):
        while True:
            if field.char:
                v = rng.randrange(field.char)
            else:
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if v or not nonzero:
                return v

    cols = []
    for j in range(depth, 0, -1):
        coeffs = {-j: scalar(True)}
        for e in range(-j + 1, top + 1):
            if rng.random() < 0.6:
                coeffs[e] = scalar(False)
        cols.append(LaurentElement(ring, coeffs))
    return GrassPoint(ring, depth, cols)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from([QQ, GF(3), GF(5)]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_baker_ignores_the_unknown_tail(field, depth, bound, window, seed):
    """Columns known to z^(bound + window) fix the wave series; whatever
    lies past that is never read, and one exponent less is refused."""
    rng = Random(seed)
    need = bound + window
    pt = _vacuum_chart_point(rng, field, depth, need - 1)
    ring = pt.ring
    longer = []
    for c in pt.columns:
        extra = {e: rng.randrange(1, 5) for e in range(need, need + rng.randint(1, 3))}
        longer.append(LaurentElement(ring, {**c.coeffs, **extra}))
    psi = baker(GrassPoint(ring, depth, longer), bound, window)
    known = [c.truncate(need) for c in longer]
    assert baker(GrassPoint(ring, depth, known), bound, window) == psi
    short = [c.truncate(need - 1) for c in longer]
    with pytest.raises(PrecisionError):
        baker(GrassPoint(ring, depth, short), bound, window)


def _substitute(poly, target, images):
    """The ring map x_i -> images[i], applied monomial by monomial."""
    total = target.zero()
    for mono, c in poly.coeffs.items():
        term = target.const(c)
        for image, e in zip(images, mono):
            term = term * image ** e
        total = total + term
    return total


def _sato_wave_series(point, bound, window):
    """Sato's formula: psi = v^-1 * tau(x + shift)/tau(x) with t read as z.

    tau is taken at the inflated bound N = bound + window in a joint ring
    with x_1..x_N and t (all weights as in the coordinate ring, t of
    weight 1); the shift is x_i -> sum_{j<=i} x_j t^(i-j), x_0 = 1.
    Monomials with some x_i, i > bound, or x-weight past ``bound`` are
    dropped, and the z^k coefficient is the t^k part.
    """
    field = point.ring.field
    big = bound + window
    tau_big = tau_crosscheck(point, big)
    joint = CoeffRing(field, big + 1, big, weights=tuple(range(1, big + 1)) + (1,))
    t = joint.gen(big)
    xs = [joint.gen(i) for i in range(big)]
    shifted = [
        t ** i + sum((xs[j - 1] * t ** (i - j) for j in range(1, i + 1)), joint.zero())
        for i in range(1, big + 1)
    ]
    ratio = _substitute(tau_big, joint, shifted) * _substitute(tau_big, joint, xs).inverse()
    v = universal_v(field, bound).gminus
    small = v.ring
    per_k = {}
    for mono, c in ratio.coeffs.items():
        xm = mono[:bound]
        if any(mono[bound:big]) or small.weight(xm) > bound:
            continue
        per_k.setdefault(mono[-1], {})[xm] = c
    series = LaurentElement(small, {k: small.element(d) for k, d in per_k.items()})
    return (v.inverse() * series).truncate(window)


def test_baker_matches_sato_formula():
    rng = Random(2024)
    for i in range(30):
        field = (QQ, GF(5))[i % 2]
        depth, bound, window = (rng.randint(1, 3) for _ in range(3))
        pt = _vacuum_chart_point(rng, field, depth, bound + window + 1)
        assert baker(pt, bound, window) == _sato_wave_series(pt, bound, window)


# ---------------------------------------------------------------------------
# residual of the bilinear identity
# ---------------------------------------------------------------------------


def test_kp_residual_vanishes_for_tau_polynomials():
    t = tau_crosscheck(two_column_point(), 5)
    assert kp_residual(t, 1).is_zero()
    assert kp_residual(t, 2).is_zero()


def test_single_schur_terms_solve_the_hierarchy():
    ring5 = coordinate_ring(QQ, 5)
    for lam in [(1,), (2, 1), (2, 2)]:
        assert kp_residual(schur_polynomial(ring5, lam), 1).is_zero()


def test_kp_residual_flags_a_non_tau():
    """1 + x1^2 is no tau: the residual vanishes through joint weight 2
    and is this polynomial in T1..T3, T1'..T3' (the gens of the joint
    ring, T' after T) through weight 3."""
    ring4 = coordinate_ring(QQ, 4)
    fake = ring4.one() + ring4.gen(0) ** 2
    r0 = kp_residual(fake, 0)
    assert r0.is_zero() and r0.ring == CoeffRing(QQ, 4, 2, weights=(1, 2, 1, 2))
    r1 = kp_residual(fake, 1)
    joint = CoeffRing(QQ, 6, 3, weights=(1, 2, 3, 1, 2, 3))
    t1, t2, t3, s1, s2, s3 = (joint.gen(i) for i in range(6))
    expected = (
        t1 ** 3 * Fraction(1, 6) - t1 * t2 + t3
        - t1 ** 2 * s1 * Fraction(1, 2) + t1 * s1 ** 2 * Fraction(1, 2) + t1 * s2 + t2 * s1
        - s1 ** 3 * Fraction(1, 6) - s1 * s2 - s3
    )
    assert r1.ring == joint and r1 == expected


def test_kp_residual_domain_guards():
    ring_p = coordinate_ring(GF(5), 4)
    with pytest.raises(DomainError):
        kp_residual(ring_p.one(), 1)
    ring4 = coordinate_ring(QQ, 4)
    with pytest.raises(DomainError):
        kp_residual(ring4.one(), 2)  # order must stay <= bound - 3
