"""Triangular factorization and the exponential / product-form layers."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GammaElement,
    InternalError,
    LaurentElement,
    NotInvertibleError,
    PrecisionError,
    RingElement,
    abel_embed,
    coordinate_ring,
    exp_gamma,
    factorize,
    universal_v,
    witt_add,
    witt_product,
)
from grasstau import gamma
from grasstau.gamma import witt_peel
from grasstau.laurent import neumann
from grasstau.scalars import _sum_products

R2 = CoeffRing(QQ, 1, 2)
X = R2.gen(0)


def test_factorize_frozen_exact():
    f = LaurentElement(R2, {-1: 2 * X, 0: R2.const(2) + 2 * X, 1: 2})
    g = factorize(f)
    assert g.zpower == 0
    assert g.unit == R2.const(2)
    assert g.gminus == LaurentElement(R2, {0: 1, -1: X})
    assert g.gplus == LaurentElement(R2, {0: 1, 1: 1})
    assert g.as_laurent() == f


def test_factorize_windowed_with_zpower():
    f = LaurentElement(R2, {-3: X, -1: 3, 0: 1, 2: X}, trunc=5)
    g = factorize(f)
    assert g.zpower == -1
    assert g.unit.constant_term() == 3  # may carry nilpotent corrections
    assert g.unit.is_unit()
    assert g.gminus.trunc is None  # wings below the unit come out exact
    assert g.gminus.coefficient(0) == R2.one()
    assert g.gplus.trunc == 2  # (5 - (-1)) - 2*2
    assert g.gplus.coefficient(0) == R2.one()
    assert g.as_laurent().same_series(f)


def test_factorize_window_too_small():
    f = LaurentElement(R2, {-2: X, 0: 1}, trunc=4)  # needs trunc > n + d*r = 4
    with pytest.raises(PrecisionError):
        factorize(f)


def test_factorize_needs_a_unit_coefficient():
    with pytest.raises(NotInvertibleError):
        factorize(LaurentElement(R2, {0: X, 1: X}))


def test_group_law_and_inverse():
    f = LaurentElement(R2, {-1: X, 0: 2, 1: 1, 2: X}, trunc=6)
    g = factorize(f)
    h = g * g.inverse(window=4)
    assert h.zpower == 0
    assert h.unit == R2.one()
    assert h.gminus.same_series(LaurentElement.one(R2))
    assert h.gplus.same_series(LaurentElement.one(R2))
    assert GammaElement.identity(R2).is_identity()


def test_inverse_of_an_exact_trivial_gplus_is_exact():
    g = GammaElement.from_parts(R2, gminus=LaurentElement(R2, {-1: X, 0: 1}))
    inv = g.inverse()
    assert inv.gplus == LaurentElement.one(R2)
    assert inv.gminus == LaurentElement(R2, {-2: X * X, -1: -X, 0: 1})


def test_factorize_frozen_unit_wing_d3_r2():
    # exact input whose upper wing has a unit coefficient, at d*r = 6
    ring = CoeffRing(QQ, 2, 3)
    x1, x2 = ring.gen(0), ring.gen(1)
    F = Fraction
    g = factorize(
        LaurentElement(ring, {-2: x2, -1: x1 + x2, 0: ring.const(2) + x1, 1: 1})
    )
    gminus = LaurentElement(
        ring,
        {
            -2: ring.element(
                {(0, 1): F(1, 2), (0, 2): F(1, 16), (0, 3): F(1, 128),
                 (1, 1): F(-1, 8), (1, 2): F(-1, 64)}
            ),
            -1: ring.element(
                {(0, 1): F(1, 4), (0, 3): F(-1, 256), (1, 0): F(1, 2),
                 (1, 1): F(1, 16), (1, 2): F(3, 128), (2, 0): F(-1, 8),
                 (2, 1): F(-1, 32)}
            ),
            0: 1,
        },
    )
    unit = ring.element(
        {(0, 0): 2, (0, 1): F(-1, 4), (0, 3): F(1, 256), (1, 0): F(1, 2),
         (1, 1): F(-1, 16), (1, 2): F(-3, 128), (2, 0): F(1, 8), (2, 1): F(1, 32)}
    )
    gplus = LaurentElement(
        ring,
        {
            0: 1,
            1: ring.element(
                {(0, 0): F(1, 2), (0, 1): F(1, 16), (0, 2): F(1, 128),
                 (1, 0): F(-1, 8), (1, 1): F(-1, 64), (1, 2): F(1, 256),
                 (2, 1): F(-3, 256), (3, 0): F(1, 128)}
            ),
        },
    )
    assert g == GammaElement(gminus, unit, gplus, 0)


ROUND_TRIP_RINGS = [
    CoeffRing(QQ, 2, 2),
    CoeffRing(GF(3), 2, 2),
    CoeffRing(GF(5), 2, 3),
    coordinate_ring(QQ, 3),
    coordinate_ring(GF(5), 2),
]


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(ROUND_TRIP_RINGS),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(-3, 3),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
)
def test_factorize_round_trip(ring, a, b, u, c, tail):
    x1, x2 = ring.gen(0), ring.gen(1)
    assume(ring.const(u))
    terms = {-2: x2 * a, -1: x1 * b, 0: ring.const(u) + x1, 1: c, 2: 1}
    f = LaurentElement(ring, terms, trunc=9)
    g = factorize(f)
    assert g.as_laurent().same_series(f)
    assert g.gminus.coefficient(0) == ring.one()
    assert g.gplus.coefficient(0) == ring.one()
    assert g.unit.is_unit()
    # the window's promise: any unknown tail changes gplus alone, and only
    # past its window
    for i, (s, t) in enumerate(tail):
        terms[9 + i] = ring.const(s) + x1 * t
    extended = factorize(LaurentElement(ring, terms))
    assert extended.gminus == g.gminus
    assert extended.unit == g.unit
    assert extended.zpower == g.zpower
    assert extended.gplus.same_series(g.gplus)


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def test_exp_lower_frozen():
    g = exp_gamma(R2, [X], -1)
    assert g.gminus == LaurentElement(R2, {0: 1, -1: X, -2: X * X * Fraction(1, 2)})
    assert g.unit == R2.one()
    assert g.gplus == LaurentElement.one(R2)
    assert g.zpower == 0


def test_exp_upper_frozen_and_window_guard():
    with pytest.raises(PrecisionError):
        exp_gamma(R2, [R2.one()], 1)
    g = exp_gamma(R2, [R2.one()], 1, trunc=4)
    assert g.gplus == LaurentElement(
        R2, {0: 1, 1: 1, 2: Fraction(1, 2), 3: Fraction(1, 6)}, trunc=4
    )


def test_exp_empty_argument_is_the_identity():
    assert exp_gamma(R2, [], -1).is_identity()


def test_exp_refuses_positive_characteristic():
    ring = CoeffRing(GF(5), 1, 2)
    with pytest.raises(DomainError) as err:
        exp_gamma(ring, [ring.gen(0)], -1)
    assert "witt_product" in str(err.value)


def test_exp_lower_requires_nilpotent_coefficients():
    with pytest.raises(DomainError):
        exp_gamma(R2, [R2.one()], -1)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_exp_lower_is_a_homomorphism(a1, a2, b1, b2):
    ring = CoeffRing(QQ, 2, 2)
    x1, x2 = ring.gen(0), ring.gen(1)
    u = [x1 * a1, x2 * a2]
    v = [x1 * b1 + x2 * b2, x1 * b2]
    lhs = exp_gamma(ring, [u[0] + v[0], u[1] + v[1]], -1)
    rhs = exp_gamma(ring, u, -1) * exp_gamma(ring, v, -1)
    assert lhs == rhs


def test_line_element_is_an_exponential():
    # 1 - x z^{-1} = exp(-sum_k x^k/k z^{-k}) while x is nilpotent
    ring = CoeffRing(QQ, 1, 3)
    x = ring.gen(0)
    logs = [-x, -(x * x) * Fraction(1, 2), -(x ** 3) * Fraction(1, 3)]
    assert witt_product(ring, [x], -1) == exp_gamma(ring, logs, -1).gminus


# ---------------------------------------------------------------------------
# product form
# ---------------------------------------------------------------------------


def test_witt_product_frozen():
    ring = CoeffRing(GF(3), 2, 2)
    x1, x2 = ring.gen(0), ring.gen(1)
    assert witt_product(ring, [x1, x2], 1) == LaurentElement(
        ring, {0: 1, 1: -x1, 2: -x2, 3: x1 * x2}
    )
    assert witt_product(ring, [], 1) == LaurentElement.one(ring)


def test_witt_add_frozen():
    ring = CoeffRing(GF(3), 2, 2)
    x1, x2 = ring.gen(0), ring.gen(1)
    zero = ring.zero()
    # the length of the result is the length of the inputs; padding
    # exposes the first carry component -a1*b1 = 2*a1*b1 mod 3
    assert witt_add(ring, [x1], [x2]) == [x1 + x2]
    assert witt_add(ring, [x1, zero], [x2, zero]) == [x1 + x2, 2 * (x1 * x2)]


def _ghost(vec, n):
    """w_n = sum over d | n of d * a_d^(n/d); additive under Witt addition."""
    ring = vec[0].ring
    out = ring.zero()
    for d in range(1, n + 1):
        if n % d == 0 and d <= len(vec):
            out = out + vec[d - 1] ** (n // d) * d
    return out


small_vec = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


@given(small_vec, small_vec)
def test_witt_add_matches_ghost_addition(avals, bvals):
    ring = CoeffRing(QQ, 1, 1)
    a = [ring.const(v) for v in avals]
    b = [ring.const(v) for v in bvals]
    s = witt_add(ring, a, b)
    for n in (1, 2, 3):
        assert _ghost(s, n) == _ghost(a, n) + _ghost(b, n)


@given(small_vec, small_vec)
def test_witt_add_reproduces_the_product(avals, bvals):
    ring = CoeffRing(GF(5), 1, 1)
    a = [ring.const(v % 5) for v in avals]
    b = [ring.const(v % 5) for v in bvals]
    s = witt_add(ring, a, b)
    m = len(s)
    lhs = witt_product(ring, s, 1).truncate(m + 1)
    rhs = (witt_product(ring, a, 1) * witt_product(ring, b, 1)).truncate(m + 1)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# point embeddings
# ---------------------------------------------------------------------------


def test_abel_embed_nilpotent_defining_property():
    ring = CoeffRing(QQ, 1, 3)
    x = ring.gen(0)
    g = abel_embed(ring, [x])
    line = LaurentElement(ring, {0: 1, -1: -x})
    assert g.gminus * line == LaurentElement.one(ring)


def test_abel_embed_multiplies_points():
    ring = CoeffRing(QQ, 2, 2)
    x1, x2 = ring.gen(0), ring.gen(1)
    g = abel_embed(ring, [x1, x2])
    assert g.gminus == abel_embed(ring, [x1]).gminus * abel_embed(ring, [x2]).gminus


def test_abel_embed_needs_depth_for_units():
    ring = CoeffRing(QQ, 1, 2)
    t = ring.const(Fraction(1, 2))
    with pytest.raises(DomainError):
        abel_embed(ring, [t])
    clipped = abel_embed(ring, [t], depth=3)
    assert clipped == LaurentElement(
        ring,
        {0: 1, -1: t, -2: t * t, -3: t * t * t},
    )


def test_abel_embed_refuses_a_negative_depth():
    # a negative depth clips everything away and would return the zero series
    ring = CoeffRing(QQ, 1, 2)
    with pytest.raises(DomainError):
        abel_embed(ring, [ring.one()], depth=-2)
    assert abel_embed(ring, [ring.one()], depth=0) == LaurentElement.one(ring)


def test_universal_v_frozen():
    v = universal_v(QQ, 3)
    ring = v.gminus.ring
    assert ring.weights == (1, 2, 3)
    xs = [ring.gen(i) for i in range(3)]
    assert v.gminus == LaurentElement(
        ring, {0: 1, -1: xs[0], -2: xs[1], -3: xs[2]}
    )
    assert v.unit == ring.one()
    assert v.gplus == LaurentElement.one(ring)
    assert v.zpower == 0


# ---------------------------------------------------------------------------
# factorize against the full-range fixed-point loop
# ---------------------------------------------------------------------------


def _reference_factorize(f):
    """The factorization with every pass filling q_1..q_{r d}, each sum
    chained as acc + c * q: the loop ``factorize`` shortens."""
    n, r = f.reduced_valuation()
    ring = f.ring
    d = ring.degree_bound
    h = LaurentElement(ring, {e - n: c for e, c in f.coeffs.items()}, None)
    c0_inv = h.coefficient(0).inverse()
    upper = [(j, c) for j, c in h.coeffs.items() if j > 0]
    fringe = [(j, c) for j, c in h.coeffs.items() if j < 0]
    top = r * d
    q = [ring.one()] + [ring.zero()] * top
    for _ in range(d):
        prev, q = q, [ring.one()]
        for k in range(1, top + 1):
            acc = ring.zero()
            for j, c in upper:
                if j <= k:
                    acc = acc + c * q[k - j]
            for j, c in fringe:
                if k - j <= top:
                    acc = acc + c * prev[k - j]
            q.append(-(c0_inv * acc))
    hq = h * LaurentElement(ring, dict(enumerate(q[: r + 1])), None)
    low = LaurentElement(ring, {e: c for e, c in hq.coeffs.items() if e <= 0}, None)
    unit = low.coefficient(0)
    gplus = h * low.inverse()
    if f.trunc is not None:
        gplus = gplus.truncate(f.trunc - n - d * r)
    return GammaElement(low * unit.inverse(), unit, gplus, n)


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 4),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_factorize_matches_the_full_range_passes(field, d, r, unit_wing, windowed, data):
    ring = coordinate_ring(field, d) if data.draw(st.booleans()) else CoeffRing(field, 2, d)
    monos = list(ring.monomials())
    value = st.integers(-2, 2) if field.char else st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))

    def element(nilpotent):
        coeffs = data.draw(st.lists(value, min_size=len(monos), max_size=len(monos)))
        x = ring.element(dict(zip(monos, coeffs)))
        return x - x.constant_term() if nilpotent else x

    n = data.draw(st.integers(-2, 2))
    c0 = data.draw(value.filter(lambda v: ring.const(v).is_unit()))
    terms = {0: ring.const(c0) + element(True)}
    for j in range(1, r + 1):
        terms[-j] = element(True)
    if r and not terms[-r]:
        terms[-r] = ring.gen(0)
    for j in range(1, 4):
        terms[j] = element(not unit_wing)
    if unit_wing:
        terms[1] = terms[1] - terms[1].constant_term() + 1
    trunc = n + d * r + 1 + data.draw(st.integers(0, 3)) if windowed else None
    f = LaurentElement(ring, {e + n: c for e, c in terms.items()}, trunc)
    assert f.reduced_valuation() == (n, r)

    g = factorize(f)
    assert g == _reference_factorize(f)
    # the uniqueness conditions: parts of canonical shape whose product
    # is f on its window
    assert g.zpower == n and g.unit.is_unit()
    assert g.gminus.trunc is None and g.gminus.coefficient(0) == ring.one()
    assert all(e <= 0 and (e == 0 or c.is_nilpotent()) for e, c in g.gminus.coeffs.items())
    assert g.gplus.coefficient(0) == ring.one() and min(g.gplus.coeffs) == 0
    if windowed:
        assert g.gplus.trunc == trunc - n - d * r
        assert g.as_laurent().same_series(f)
    else:
        assert g.as_laurent() == f


@pytest.mark.parametrize(
    "f",
    [
        LaurentElement(R2, {-1: 2 * X, 0: R2.const(2) + 2 * X, 1: 2}),
        LaurentElement(R2, {-1: X, 0: 3, 1: X, 2: 1}, trunc=6),
        LaurentElement(R2, {2: R2.const(5) + X, 3: X, 4: 1}),
        LaurentElement(R2, {-2: X, -1: X * X, 0: R2.const(2) + X, 1: 1}),
    ],
)
def test_factorize_takes_two_ring_inverses(f, monkeypatch):
    """One factorize call inverts h's z^0 coefficient c0, for the passes,
    and the unit, whose one inverse scales gminus and serves the division
    that gives gplus.  With an empty fringe (r = 0) no pass runs and the
    unit is c0, so c0 is the one element inverted."""
    inverted = []
    inverse = RingElement.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(RingElement, "inverse", counted)
    g = factorize(f)
    n, r = f.reduced_valuation()
    assert inverted == ([f.coefficient(n), g.unit] if r else [f.coefficient(n)])


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.sampled_from([(2, 3), (2, 2)]),
    st.integers(2, 5),
    st.integers(0, 3),
    st.booleans(),
    st.data(),
)
def test_factorize_matches_the_full_range_passes_on_heavy_variables(field, weights, d, r, windowed, data):
    """The full-range comparison on rings whose lightest variable weighs 2.
    There m^p is spanned by monomials of weight >= 2p, so "right in
    weights < p", what pass p keeps, is furthest from "right modulo m^p"."""
    ring = CoeffRing(field, 2, d, weights)
    element = _element_drawer(ring, data)
    n = data.draw(st.integers(-2, 2))
    terms = {0: element(True) + data.draw(st.sampled_from([1, -1, 2]).filter(lambda v: ring.const(v)))}
    for j in range(1, r + 1):
        terms[-j] = element(True)
    if r and not terms[-r]:
        terms[-r] = ring.gen(0)
    for j in range(1, 4):
        terms[j] = element(False)
    trunc = n + d * r + 1 + data.draw(st.integers(0, 3)) if windowed else None
    f = LaurentElement(ring, {e + n: c for e, c in terms.items()}, trunc)
    assert f.reduced_valuation() == (n, r)

    g = factorize(f)
    assert g == _reference_factorize(f)
    if windowed:
        assert g.as_laurent().same_series(f)
    else:
        assert g.as_laurent() == f


_RW = CoeffRing(GF(5), 2, 5, weights=(2, 3))
_R3 = CoeffRing(QQ, 2, 3)
_C4 = coordinate_ring(GF(3), 4)


@pytest.mark.parametrize(
    "f",
    [
        LaurentElement(R2, {-2: X, -1: X * X, 0: R2.const(2) + X, 1: 1}),
        LaurentElement(_R3, {-1: _R3.gen(0) + _R3.gen(1), 0: 1 + _R3.gen(0), 1: 2 + _R3.gen(1), 2: _R3.gen(0)}),
        LaurentElement(_C4, {-2: _C4.gen(0), -1: _C4.gen(0) + _C4.gen(1), 0: 1 + _C4.gen(2), 1: _C4.gen(0), 3: 1}),
        LaurentElement(_RW, {-1: _RW.gen(0) + _RW.gen(1), 0: 2, 1: 1 + _RW.gen(0), 2: _RW.gen(1)}, trunc=9),
    ],
)
def test_factorize_pass_p_keeps_only_the_weights_below_p(f, monkeypatch):
    """Pass p = 1..d fills r(d - p + 1) entries, each one sum of products
    capped at weight p: no entry has a term of weight >= p, each is the
    uncapped sum with those terms dropped, and some cap drops terms."""
    entries = []

    def recorded(ring, pairs, cap=None):
        got = _sum_products(ring, pairs, cap)
        entries.append((cap, got, _sum_products(ring, pairs)))
        return got

    monkeypatch.setattr(gamma, "_sum_products", recorded)
    g = factorize(f)
    ring, (_, r) = f.ring, f.reduced_valuation()
    d = ring.degree_bound
    assert [cap for cap, _, _ in entries] == [p for p in range(1, d + 1) for _ in range(r * (d - p + 1))]
    for cap, got, full in entries:
        assert all(ring.weight(m) < cap for m in got.coeffs)
        assert got == RingElement(ring, {m: c for m, c in full.coeffs.items() if ring.weight(m) < cap})
    assert any(got != full for _, got, full in entries)
    assert g == _reference_factorize(f)


# ---------------------------------------------------------------------------
# the exact divisions in factorize and witt_peel against their products
# ---------------------------------------------------------------------------

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def _element_drawer(ring, data):
    """element(nilpotent) draws a random element of ``ring``, its constant
    term dropped when ``nilpotent``."""
    monos = list(ring.monomials())
    if ring.field.char:
        value = st.integers(-2, 2)
    else:
        value = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))

    def element(nilpotent):
        values = data.draw(st.lists(value, min_size=len(monos), max_size=len(monos)))
        x = ring.element(dict(zip(monos, values)))
        return x - x.constant_term() if nilpotent else x

    return element


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 3), st.booleans(), st.booleans(), st.data())
def test_factorize_gplus_is_h_times_the_neumann_inverse(field, d, r, unit_wing, windowed, data):
    """gplus == h * L^{-1}, L = gminus * unit, with L^{-1} the geometric
    series c0^{-1} sum_k (-N c0^{-1})^k of its nilpotent part N."""
    ring = coordinate_ring(field, d) if data.draw(st.booleans()) else CoeffRing(field, 2, d)
    element = _element_drawer(ring, data)
    n = data.draw(st.integers(-2, 2))
    terms = {0: element(True) + data.draw(st.sampled_from([1, -1, 2]).filter(lambda v: ring.const(v)))}
    for j in range(1, r + 1):
        terms[-j] = element(True)
    for j in range(1, 4):
        terms[j] = element(not unit_wing)
    if unit_wing:
        terms[1] = terms[1] - terms[1].constant_term() + 1
    trunc = n + d * r + 1 + data.draw(st.integers(0, 3)) if windowed else None
    f = LaurentElement(ring, {e + n: c for e, c in terms.items()}, trunc)
    n, r = f.reduced_valuation()

    g = factorize(f)
    h = LaurentElement(ring, {e - n: c for e, c in f.coeffs.items()})
    low = g.gminus * g.unit
    c0_inv = g.unit.inverse()
    nil = low - LaurentElement.const(ring, g.unit)
    expected = h * (neumann(LaurentElement.one(ring), -(nil * c0_inv)) * c0_inv)
    if windowed:
        expected = expected.truncate(trunc - n - d * r)
    assert g.gplus == expected


def _reference_witt_peel(f, length):
    """witt_peel dividing out each factor by multiplying with its geometric
    series: the components and the remainder."""
    ring = f.ring
    window = length + 1
    q = f.truncate(window)
    out = []
    for i in range(1, length + 1):
        c = -q.coefficient(i)
        out.append(c)
        if c:
            q = q * LaurentElement(ring, {i * k: c**k for k in range(length // i + 1)}, window)
    return out, q


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.booleans(), st.data())
def test_witt_peel_matches_the_geometric_series_loop(field, d, weighted, data):
    """Equal components, and an InternalError exactly where the loop's
    remainder is not 1.  The exact lower-wing peel and its property live
    in tests/test_pairings.py, beside the closed form that reads it."""
    ring = coordinate_ring(field, d) if weighted else CoeffRing(field, 2, d)
    element = _element_drawer(ring, data)
    terms = {0: ring.one()}
    for j in range(1, data.draw(st.integers(1, 4)) + 1):
        terms[j] = element(data.draw(st.booleans()))
    length = data.draw(st.integers(1, 5))
    f = LaurentElement(ring, terms, data.draw(st.none() | st.integers(length + 1, length + 3)))
    expected, rest = _reference_witt_peel(f, length)
    if rest == LaurentElement(ring, {0: ring.one()}, length + 1):
        assert witt_peel(f, length) == expected
    else:
        with pytest.raises(InternalError, match="nonzero remainder"):
            witt_peel(f, length)


def test_gamma_repr_and_foreign_operands():
    ring = CoeffRing(QQ, 1, 2)
    g = GammaElement.identity(ring)
    assert g == GammaElement.from_parts(ring)
    assert repr(g) == "GammaElement(gminus=1, unit=1, gplus=1, zpower=0)"
    assert (g == 1) is False
    with pytest.raises(TypeError):
        g * 2
