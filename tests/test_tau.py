"""Tau polynomials, the wave series, and the residual of the bilinear identity.

The frozen values are hand computations.  For the two-column point the
minor table lives in test_grassmann (vac 1, (1) 2, (2) 3, (1,1) -1,
(2,1) -1, (2,2) 1), so at bound 3

    tau = 1 + 2 F_1 + 3 F_2 - F_11 - F_21
        = 1 + 2 x1 + 4 x2 - x1^2 - x1 x2 + x3.

At bound 4 the one chart of weight 4 that the two columns reach is
(2,2), Frobenius (1,0 | 1,0), whose ratio carries the sign (-1)^(1+0):
F_22 = x2^2 - x1 x3 enters with coefficient 1, so

    tau = 1 + 2 x1 + 4 x2 - x1^2 - x1 x2 + x3 + x2^2 - x1 x3.

The single-column point span{z^-1 + c} has tau = 1 + c x1 at any bound,
which makes the wave series reconstructible from first principles: the
shift x1 -> x1 + t gives psi = v^{-1} (1 + c (1 + c x1)^{-1} z).
"""

import re
from fractions import Fraction
from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grasstau.scalars as scalars
import grasstau.tau as tau_module
from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GammaElement,
    GrassPoint,
    LaurentElement,
    MayaDiagram,
    NotInvertibleError,
    PrecisionError,
    act,
    baker,
    chart_transition,
    coordinate_ring,
    exp_gamma,
    factorize,
    in_chart,
    index,
    kp_residual,
    partitions_up_to,
    plucker,
    schur_polynomial,
    tau_crosscheck,
    tau_direct,
    tau_eval,
    tau_schur,
    to_schur_coords,
    universal_v,
)
from grasstau.gamma import _exp_coefficients
from grasstau.linalg import det_ring, solve_ring

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
    t = tau_crosscheck(two_column_point(), 4)
    x1, x2, x3 = (t.ring.gen(i) for i in range(3))
    assert t == 1 + 2 * x1 + 4 * x2 - x1 * x1 - x1 * x2 + x3 + x2 * x2 - x1 * x3


def test_tau_schur_takes_only_small_minors(monkeypatch):
    """No Plucker minor: every ratio is read off one elimination as an
    r x r minor of the chart coordinates, r^2 <= |lam| <= bound, and only
    r >= 2 takes a determinant.  Chart by chart, the depth-12 point would
    take 12 x 12 minors."""
    import grasstau.grassmann as grassmann_module

    sizes, minors = [], []
    for module in (tau_module, grassmann_module):
        original = module.det_ring

        def counted(rows, ring, original=original):
            sizes.append(len(rows))
            return original(rows, ring)

        monkeypatch.setattr(module, "det_ring", counted)

    def counted_minor(point, diagram):
        minors.append(diagram)
        return plucker(point, diagram)

    monkeypatch.setattr(tau_module, "plucker", counted_minor)
    rng = Random(20)
    cases = [(_deep_point(), 3), (_deep_point(), 6), (two_column_point(), 4)] + [
        (_mixed_point(rng, field, depth, bound + 1, None), bound)
        for field in (QQ, GF(3))
        for depth, bound in [(0, 2), (2, 5), (7, 2), (9, 4), (9, 7)]
    ]
    for pt, bound in cases:
        sizes.clear()
        tau_schur(pt, bound)
        assert not minors
        assert max(sizes, default=0) <= isqrt(bound)
    assert 2 in sizes  # the charts with r = 2 at bound 7, (2,2) among them


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


def _off_chart_points():
    """A zero vacuum minor, then two column counts other than the tail
    depth: depth 2 with one column, depth 1 with two."""
    ring = CoeffRing(QQ, 1, 2)
    shapes = [(1, [{0: 1, 1: 2}]), (2, [{-2: 1, 0: 3}]), (1, [{-1: 1, 0: 3}, {0: 1, 2: 1}])]
    return [GrassPoint(ring, depth, [LaurentElement(ring, c) for c in cols]) for depth, cols in shapes]


def test_tau_refuses_a_point_outside_the_vacuum_chart():
    for pt in _off_chart_points():
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


def test_tau_eval_refuses_a_point_outside_the_vacuum_chart():
    """Depth 2 with one column, and depth 2 with a singular vacuum block."""
    ring = CoeffRing(QQ, 1, 2)
    g = exp_gamma(ring, [ring.gen(0)], -1)
    for cols in ([{-2: 1, 0: 3}], [{-2: 1, 0: 1}, {-2: 2, 1: 1}]):
        pt = GrassPoint(ring, 2, [LaurentElement(ring, c) for c in cols])
        with pytest.raises(NotInvertibleError, match=OFF_CHART):
            tau_eval(pt, g)


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


def test_baker_takes_no_plucker_minor(monkeypatch):
    """The solve on the moved vacuum block is baker's chart check: with
    ``plucker`` raising, baker returns the same series and refuses the
    same points."""
    rng = Random(24)
    cases = [
        (_mixed_point(rng, field, depth, bound + window + 1, None), bound, window)
        for field in (QQ, GF(3))
        for depth, bound, window in [(1, 2, 2), (3, 3, 1), (5, 2, 3)]
    ]
    want = [baker(pt, bound, window) for pt, bound, window in cases]

    def refuse(point, diagram):
        raise AssertionError("plucker called")

    monkeypatch.setattr(tau_module, "plucker", refuse)
    assert [baker(pt, bound, window) for pt, bound, window in cases] == want
    for pt in _off_chart_points():
        with pytest.raises(NotInvertibleError, match=OFF_CHART):
            baker(pt, 1, 1)


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


def _miwa_powers(monkeypatch, order):
    """The top exponents of the ``_powers`` calls kp_residual makes at
    ``order`` into the ring of the two Miwa shifts, x and x' with u last;
    the pullback to the times works in another ring and is not counted.
    Each call takes the powers 1..top of one variable's image."""
    w = order + 2
    shifted = CoeffRing(QQ, 2 * w + 1, w + 1, weights=tuple(range(1, w + 1)) * 2 + (1,))
    tops = []
    powers = scalars._powers

    def counted(ring, num, top):
        if ring == shifted:
            tops.append(top)
        return powers(ring, num, top)

    monkeypatch.setattr(scalars, "_powers", counted)
    return tops


def test_kp_residual_takes_each_power_once(monkeypatch):
    """x1 appears with exponent 1 in three monomials and x2 in two, so each
    of the two substitutions needs three distinct powers, not six."""
    ring4 = coordinate_ring(QQ, 4)
    x1, x2, x3 = ring4.gen(0), ring4.gen(1), ring4.gen(2)
    poly = 1 + x1 + x2 + x1 * x2 + x1 * x3
    want = kp_residual(poly, 1)
    tops = _miwa_powers(monkeypatch, 1)
    assert kp_residual(poly, 1) == want
    assert sum(tops) == 2 * 3


# ---------------------------------------------------------------------------
# the direct route on the Sato normal form
# ---------------------------------------------------------------------------


def _mixed_point(
    rng: Random, field, depth: int, top: int, trunc, singular=False, num_vars=0
) -> GrassPoint:
    """A dense point in the vacuum chart whose columns are mixed by a random
    invertible matrix: upper unitriangular, then lower triangular with a
    nonzero random diagonal, then a permutation.  So its vacuum block is
    neither triangular nor unipotent.  Columns are known below z^trunc
    (None: exactly).  ``singular`` puts a zero on the lower factor's
    diagonal, which takes the point out of the vacuum chart.  The
    coefficients are scalars of a ring with ``num_vars`` variables."""
    ring = CoeffRing(field, num_vars, num_vars)

    def scalar(nonzero=False):
        return _random_scalar(rng, field, nonzero)

    cols = [{-j: 1, **{e: scalar() for e in range(-j + 1, top + 1)}} for j in range(depth, 0, -1)]

    def mix(coeff):  # column j becomes sum_i coeff(i, j) * column i
        out = []
        for j in range(depth):
            acc = {}
            for i in range(depth):
                k = coeff(i, j)
                for e, a in cols[i].items():
                    acc[e] = acc.get(e, 0) + k * a
            out.append(acc)
        return out

    cols = mix(lambda i, j: 1 if i == j else scalar() if i < j else 0)
    dead = rng.randrange(depth) if singular else None
    diagonal = [0 if i == dead else scalar(True) for i in range(depth)]
    cols = mix(lambda i, j: diagonal[i] if i == j else scalar() if i > j else 0)
    rng.shuffle(cols)
    return GrassPoint(ring, depth, [LaurentElement(ring, c, trunc) for c in cols])


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(0, 9),
    st.integers(1, 6),
    st.sampled_from([None, 0, 1, 2]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_tau_direct_matches_schur_on_mixed_dense_points(field, depth, bound, extra, singular, seed):
    """The normal form is taken over the field from any basis: the direct
    route agrees with the Plucker-minor route, windowed columns included
    (extra = 0 is a window ending exactly at z^bound), and both refuse a
    point outside the vacuum chart alike."""
    trunc = None if extra is None else bound + extra
    pt = _mixed_point(Random(seed), field, depth, bound + 2, trunc, singular and depth > 0)
    results = []
    for route in (tau_direct, tau_schur):
        try:
            results.append(route(pt, bound))
        except NotInvertibleError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    assert isinstance(results[0], str) == (singular and depth > 0)


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(0, 6),
    st.integers(1, 5),
    st.integers(-1, 6),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_windowed_calls_agree_with_every_completion_of_the_tail(field, depth, bound, trunc, singular, seed):
    """A scalar point known below z^trunc, and two random completions of
    its unknown tail (``_assert_completions_agree``).  Covers tau_direct,
    tau_schur, index, and plucker, in_chart and the transition to the
    vacuum chart on every chart of size <= bound."""
    rng = Random(seed)
    pt = _mixed_point(rng, field, depth, trunc + 2, trunc, singular and depth > 0)
    calls = [lambda p: tau_direct(p, bound), lambda p: tau_schur(p, bound), index]
    vacuum = MayaDiagram.vacuum()
    for lam in partitions_up_to(bound):
        maya = MayaDiagram.from_partition(lam)
        calls += [
            lambda p, maya=maya: plucker(p, maya),
            lambda p, maya=maya: in_chart(p, maya),
            lambda p, maya=maya: chart_transition(p, maya, vacuum),
        ]
    _assert_completions_agree(rng, pt, trunc, calls)


def _random_scalar(rng: Random, field, nonzero=False):
    while True:
        v = rng.randrange(field.char) if field.char else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if v or not nonzero:
            return v


def _assert_completions_agree(rng: Random, pt: GrassPoint, trunc: int, calls) -> None:
    """Two random completions of the point's tail past z^trunc: wherever
    a call on the windowed point returns, or refuses for any reason but
    precision, each completion returns the same value or refuses alike."""
    field = pt.ring.field
    completions = [
        GrassPoint(pt.ring, pt.tail_depth, [
            LaurentElement(pt.ring, {
                **c.coeffs, **{e: _random_scalar(rng, field) for e in range(trunc, trunc + rng.randint(1, 3))}
            })
            for c in pt.columns
        ])
        for _ in range(2)
    ]

    def outcome(call, p):
        try:
            return repr(call(p))
        except (NotInvertibleError, DomainError, PrecisionError) as exc:
            return type(exc), str(exc)

    for call in calls:
        want = outcome(call, pt)
        if isinstance(want, tuple) and want[0] is PrecisionError:
            continue
        for full in completions:
            assert outcome(call, full) == want


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(0, 2),
    st.integers(0, 5),
    st.integers(-1, 5),
    st.integers(0, 3),
    st.integers(0, 2**32),
)
def test_act_then_plucker_agrees_with_every_completion_of_the_tail(field, num_vars, depth, trunc, promote, seed):
    """The same check for plucker after act, on every chart of size <= 3:
    the group element has random lower, unit and upper parts over a ring
    with 0-2 variables (its lower part nilpotent below z^0), the upper
    part exact or windowed, and the top ``promote`` tail slots are made
    columns."""
    rng = Random(seed)
    pt = _mixed_point(rng, field, depth, trunc + 2, trunc, num_vars=num_vars)
    ring = pt.ring

    def element(constant):
        return ring.const(constant) + sum(
            (ring.gen(i) * _random_scalar(rng, field) for i in range(num_vars)), ring.zero()
        )

    g = GammaElement(
        LaurentElement(ring, {0: ring.one(), -1: element(0), -2: element(0)}),
        element(_random_scalar(rng, field, nonzero=True)),
        LaurentElement(
            ring,
            {0: ring.one(), **{e: element(_random_scalar(rng, field)) for e in range(1, 4)}},
            rng.choice([None, 2, 5]),
        ),
    )
    charts = [MayaDiagram.from_partition(lam) for lam in partitions_up_to(3)]
    calls = [lambda p, maya=maya: plucker(act(g, p, promote), maya) for maya in charts]
    _assert_completions_agree(rng, pt, trunc, calls)


def _field_columns(point, bound, need):
    """The checks every tau route makes, then the columns as
    {exponent: field value} below z^need, read one coefficient at a time
    with ``constant_term``: the references' own reader, independent of
    the routes' integer one."""
    tau_module._check_point(point, bound, need)
    return [{e: a.constant_term() for e, a in c.coeffs.items() if e < need} for c in point.columns]


def _reference_tau_schur(point, bound):
    """The chart-by-chart route: sum over |lam| <= bound of F_lam times
    the Plucker ratio plucker_lam / plucker_0, each minor taken on its own."""
    _field_columns(point, bound, bound)
    vacuum = plucker(point, MayaDiagram.vacuum())
    if not vacuum.is_unit():
        raise NotInvertibleError(tau_module._OFF_CHART)
    ring = coordinate_ring(point.ring.field, bound)
    total = ring.zero()
    for lam in partitions_up_to(bound):
        ratio = plucker(point, MayaDiagram.from_partition(lam)) * vacuum.inverse()
        total = total + schur_polynomial(ring, lam) * ratio.constant_term()
    return total


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]),
    st.integers(0, 9),
    st.integers(1, 7),
    st.sampled_from([None] * 7 + [-1, 0, 1]),
    st.sampled_from([0, 0, 0, -1, 1]),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_tau_schur_matches_the_chart_by_chart_reference(
    field, depth, bound, extra, spare, num_vars, singular, seed
):
    """One elimination gives every Plucker ratio the charts give one
    minor at a time, on dense mixed points, windowed ones (extra = -1 is
    a window one short of the bound), points with one column too few or
    too many, and scalar points of rings with variables; a refusal has
    the same type and message."""
    rng = Random(seed)
    trunc = None if extra is None else bound + extra
    pt = _mixed_point(rng, field, depth, bound + 2, trunc, singular and depth > 0, num_vars)
    cols = pt.columns[:-1] if spare < 0 else pt.columns
    if spare > 0:
        extra_col = {e: rng.randrange(1, 4) for e in range(-depth, bound + 3) if rng.random() < 0.5}
        cols = cols + [LaurentElement(pt.ring, extra_col, trunc)]
    pt = GrassPoint(pt.ring, depth, cols)
    results = []
    for route in (tau_schur, _reference_tau_schur):
        try:
            results.append(repr(route(pt, bound)))
        except (NotInvertibleError, PrecisionError) as exc:
            results.append((type(exc), str(exc)))
    assert results[0] == results[1]


def test_tau_schur_reads_a_scalar_only_for_a_nonzero_ratio(monkeypatch):
    """The Schur route checks that the point is scalar but never converts
    its coefficients: ``constant_term`` runs at most once per nonzero
    Plucker ratio, and a depth-9 point has far more coefficients."""
    reads = []
    original = scalars.RingElement.constant_term

    def counted(self):
        reads.append(self)
        return original(self)

    monkeypatch.setattr(scalars.RingElement, "constant_term", counted)
    rng = Random(9)
    for field in (QQ, GF(5)):
        pt = _mixed_point(rng, field, 9, 6, None)
        reads.clear()
        t = tau_schur(pt, 5)
        calls = len(reads)
        nonzero = len(to_schur_coords(t)) - 1  # the ratios, the empty partition's 1 aside
        assert calls <= nonzero < sum(len(c.coeffs) for c in pt.columns)


def _deep_point() -> GrassPoint:
    """Depth 12 over Q with a dense vacuum block of determinant neither 0 nor 1."""
    ring = CoeffRing(QQ, 0, 0)
    cols = []
    for j in range(12, 0, -1):
        coeffs = {}
        for e in range(-12, 3):
            c = (3 * j * j + 5 * e * j + e * e + 1) % 7 - 3
            if c:
                coeffs[e] = Fraction(c, 1 + (j + e) % 3)
        cols.append(LaurentElement(ring, coeffs))
    return GrassPoint(ring, 12, cols)


def test_tau_direct_at_depth_12_frozen():
    t = tau_direct(_deep_point(), 3)
    x1, x2, x3 = (t.ring.gen(i) for i in range(3))
    expected = (
        1
        + Fraction(-32289615768, 4596008807) * x1
        + Fraction(17000600359, 4596008807) * x2
        + Fraction(-11164625130, 4596008807) * x1 * x1
        + Fraction(-3765137821, 13788026421) * x3
        + Fraction(-13190569641, 4596008807) * x1 * x2
        + Fraction(8617159996, 4596008807) * x1 ** 3
    )
    assert t == expected


def test_tau_direct_determinants_stay_within_the_degree_bound(monkeypatch):
    """Every determinant the direct route takes, in tau or in a Plucker
    minor, has size at most min(depth, bound)."""
    import grasstau.grassmann as grassmann_module

    sizes = []
    for module in (tau_module, grassmann_module):
        original = module.det_ring

        def counted(rows, ring, original=original):
            sizes.append(len(rows))
            return original(rows, ring)

        monkeypatch.setattr(module, "det_ring", counted)
    rng = Random(15)
    cases = [(_deep_point(), 3)] + [
        (_mixed_point(rng, field, depth, bound + 1, None), bound)
        for field in (QQ, GF(3))
        for depth, bound in [(0, 2), (2, 5), (7, 2), (9, 4)]
    ]
    for pt, bound in cases:
        sizes.clear()
        tau_direct(pt, bound)
        assert sizes and max(sizes) <= min(pt.tail_depth, bound)


def test_kp_residual_skips_monomials_past_the_residue_weight(monkeypatch):
    """At order 1 the residue reads tau through weight 4: x4 x1 and x5
    (weight 5) change nothing and take no power."""
    ring5 = coordinate_ring(QQ, 5)
    x1, x4, x5 = ring5.gen(0), ring5.gen(3), ring5.gen(4)
    light = 1 + 3 * x1 + x1 * x1
    want = kp_residual(light, 1)
    tops = _miwa_powers(monkeypatch, 1)
    assert kp_residual(light + x1 * x4 - 2 * x5, 1) == want
    assert tops == [2, 2]  # x1 and x1^2, once per substitution


# ---------------------------------------------------------------------------
# references: the series routes the linear-form rows replaced
# ---------------------------------------------------------------------------


def _reference_moved_block(field, cols, bound):
    """(v, the moved columns, their vacuum block), moving whole columns
    with ``act``: the columns of v.U as series, tail reduced."""
    v = universal_v(field, bound)
    ring = v.ring
    moved = act(v, GrassPoint(ring, len(cols), [LaurentElement(ring, c) for c in cols]))
    block = [[c.coefficient(e) for c in moved.columns] for e in range(-len(cols), 0)]
    return v, moved.columns, block


def _reference_tau_direct(point, bound):
    """The definition: the vacuum minor of v.U, the full-depth moved
    block, over the point's own vacuum minor."""
    field = point.ring.field
    cols = _field_columns(point, bound, bound)
    v, _, block = _reference_moved_block(field, cols, bound)
    vacuum = plucker(point, MayaDiagram.vacuum()).constant_term()
    return det_ring(block, v.ring) * field.invert(vacuum)


def _reference_baker(point, bound, window):
    """psi = v^-1 w with w = 1 + z sum_j a_j v.c_j, the moved columns
    multiplied out as series and v inverted by ``inverse``."""
    cols = _field_columns(point, bound, bound + window)
    v, moved, block = _reference_moved_block(point.ring.field, cols, bound)
    ring = v.ring
    e_n = [ring.one() if e == -1 else ring.zero() for e in range(-len(moved), 0)]
    (a,) = solve_ring(block, [e_n], ring)
    w = LaurentElement.one(ring)
    for a_j, c in zip(a, moved):
        w = w + (c * a_j).shift(1).clip_below(1)
    return (v.gminus.inverse() * w.truncate(window + bound)).truncate(window)


def _reference_kp_residual(tau_poly, order):
    """The residue with the shifts substituted as series in u = 1/z over
    the joint ring of the times, cut above u^(order + 3)."""
    ring = tau_poly.ring
    field, d, w = ring.field, ring.degree_bound, order + 2
    joint = CoeffRing(field, 2 * w, w, weights=tuple(range(1, w + 1)) * 2)
    times = [joint.gen(i) for i in range(w)]
    times_p = [joint.gen(w + i) for i in range(w)]
    h = _exp_coefficients(joint, times, d)
    hp = _exp_coefficients(joint, times_p, d)
    e_ser = _exp_coefficients(joint, [times[j] - times_p[j] for j in range(w)], w)
    cap = w + 2

    def substitute(images):
        total = LaurentElement.zero(joint, cap)
        for mono, coeff in tau_poly.coeffs.items():
            term = LaurentElement(joint, {0: coeff}, cap)
            for image, e in zip(images, mono):
                term = term * image ** e
            total = total + term
        return total

    a_images = [LaurentElement(joint, {0: h[i], 1: -h[i - 1]}, cap) for i in range(1, d + 1)]
    b_images = [
        LaurentElement(joint, {k: hp[i - k] for k in range(i + 1)}, cap) for i in range(1, d + 1)
    ]
    ab = substitute(a_images) * substitute(b_images)
    return sum((ab.coefficient(n + 1) * e_ser[n] for n in range(w + 1)), joint.zero())


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(0, 6),
    st.integers(1, 5),
    st.integers(1, 3),
    st.sampled_from([None, 0, 1]),
    st.integers(0, 2**32),
)
def test_tau_direct_and_baker_match_the_column_moving_reference(field, depth, bound, window, extra, seed):
    """The rows of v.U written as linear forms give what moving whole
    columns by v gives, windowed columns included (extra = 0 is a window
    ending exactly where ``baker`` needs it)."""
    trunc = None if extra is None else bound + window + extra
    pt = _mixed_point(Random(seed), field, depth, bound + window + 1, trunc)
    assert tau_direct(pt, bound) == _reference_tau_direct(pt, bound)
    assert baker(pt, bound, window) == _reference_baker(pt, bound, window)


def test_kp_residual_matches_the_series_reference():
    """On tau polynomials and on perturbed ones, at every order the bound
    allows, over Q: equal to the series substitution in the times, zero
    exactly on the taus, and a zero in the ring of the times."""
    rng = Random(19)
    flagged = 0
    for bound in (3, 4, 5, 6, 7):
        for _ in range(3):
            depth = rng.randint(1, 4)
            t = tau_crosscheck(_mixed_point(rng, QQ, depth, bound + 1, None), bound)
            monos = list(t.ring.monomials())[1:]
            fake = t + t.ring.element({rng.choice(monos): rng.randint(1, 3)})
            fraction_fake = t + t.ring.element(
                {rng.choice(monos): Fraction(rng.randint(1, 5), rng.randint(2, 7)) for _ in range(2)}
            )
            for order in range(bound - 2):
                w = order + 2
                joint = CoeffRing(QQ, 2 * w, w, weights=tuple(range(1, w + 1)) * 2)
                residual = kp_residual(t, order)
                assert residual == _reference_kp_residual(t, order)
                assert residual.is_zero() and residual.ring == joint
                for poly in (fake, fraction_fake):
                    residual = kp_residual(poly, order)
                    assert residual == _reference_kp_residual(poly, order)
                    assert residual.ring == joint
                    flagged += not residual.is_zero()
    assert flagged  # the perturbations are caught, so the references compare nonzero values too


def test_kp_frame_is_built_once_per_field_and_order():
    """The frame misses once for each new (field, order), hits on every
    repeat, whatever tau is, and a refused call builds none."""
    tau_module._kp_frame.cache_clear()
    t = tau_crosscheck(two_column_point(), 5)
    fake = t + t.ring.gen(0) ** 2
    kp_residual(t, 1)
    assert tau_module._kp_frame.cache_info()[:2] == (0, 1)  # hits, misses
    kp_residual(fake, 1)
    kp_residual(t, 1)
    assert tau_module._kp_frame.cache_info()[:2] == (2, 1)
    kp_residual(t, 2)
    assert tau_module._kp_frame.cache_info()[:2] == (2, 2)
    with pytest.raises(DomainError):
        kp_residual(t, 3)  # order 3 needs bound 6
    with pytest.raises(DomainError):
        kp_residual(coordinate_ring(GF(5), 5).one(), 1)
    assert tau_module._kp_frame.cache_info()[:2] == (2, 2)


def test_kp_residual_leaves_its_frame_as_built():
    """No call writes into the cached frame: after zero and nonzero
    residuals it is still ``==`` to a fresh build."""
    t = tau_crosscheck(two_column_point(), 6)
    fake = t + t.ring.gen(1) * Fraction(2, 3)
    for order in (0, 1, 2, 3):
        assert kp_residual(t, order).is_zero()
        assert not kp_residual(fake, order).is_zero() or order == 0
    for w in (2, 3, 4, 5):
        assert tau_module._kp_frame(QQ, w) == tau_module._kp_frame.__wrapped__(QQ, w)


def test_kp_residual_on_a_warm_frame_matches_the_series_reference():
    """The nonzero-residual path, run a second time on the cached frame,
    still equals the series reference."""
    ring5 = coordinate_ring(QQ, 5)
    x1, x2, x3 = ring5.gen(0), ring5.gen(1), ring5.gen(2)
    cases = [(1 + x1 * x1, 1), (1 + x1 + x1 * x1 * Fraction(1, 3), 2), (1 + 2 * x1 + x2 + x1 * x3, 2)]
    for poly, order in cases:
        first = kp_residual(poly, order)
        assert not first.is_zero()
        assert kp_residual(poly, order) == first == _reference_kp_residual(poly, order)


def test_kp_residual_of_a_tau_needs_no_times(monkeypatch):
    """A zero residual in the x-coordinates is returned as it is: a tau
    takes two substitutions, the Miwa shifts, and only a nonzero residual
    takes a third, the pullback to the times H_i(T)."""
    t = tau_crosscheck(two_column_point(), 5)
    ring4 = coordinate_ring(QQ, 4)
    fake = ring4.one() + ring4.gen(0) ** 2
    calls = []
    original = tau_module._substitute

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(tau_module, "_substitute", counted)
    for order in (0, 1, 2):
        calls.clear()
        residual = kp_residual(t, order)
        assert residual.is_zero() and residual.ring == tau_module._kp_frame(QQ, order + 2)[0]
        assert len(calls) == 2
    calls.clear()
    assert not kp_residual(fake, 1).is_zero()
    assert len(calls) == 3 and calls[2] == tau_module._kp_frame(QQ, 3)[0]


def test_tau_routes_take_no_series_product(monkeypatch):
    """tau_direct, kp_residual and baker take no series product at all:
    baker's last step is one division, w / v."""
    pt = two_column_point()
    t = tau_direct(pt, 5)
    residual = kp_residual(t, 2)
    psi = baker(pt, 3, 3)

    def refused(self, other):
        raise AssertionError("series product")

    monkeypatch.setattr(LaurentElement, "__mul__", refused)
    monkeypatch.setattr(LaurentElement, "__rmul__", refused)
    assert tau_direct(pt, 5) == t
    assert kp_residual(t, 2) == residual
    assert baker(pt, 3, 3) == psi
