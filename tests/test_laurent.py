"""Laurent window bookkeeping: products, equality, valuation, inversion."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    InternalError,
    LaurentElement,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
    coordinate_ring,
)
from grasstau.laurent import _divide

RING = CoeffRing(QQ, 1, 2)
X = RING.gen(0)


def L(coeffs, trunc=None):
    return LaurentElement(RING, coeffs, trunc)


def test_product_window_rule():
    f = L({0: 1, 1: 1}, trunc=3)
    g = L({-1: 1})
    assert (f * g).trunc == 2  # 3 + (-1)
    h = L({2: 1}, trunc=5)
    assert (f * h).trunc == 5  # min(3 + 2, 5 + 0)
    assert (g * g).trunc is None


def test_sum_window_is_the_narrower_one():
    f = L({0: 1}, trunc=4)
    g = L({1: 1}, trunc=2)
    assert (f + g).trunc == 2
    assert (f + L({5: 1})).trunc == 4


def test_equality_is_window_strict():
    f = L({0: 1}, trunc=3)
    g = L({0: 1}, trunc=4)
    assert f != g
    assert f.same_series(g)
    assert not f.same_series(L({0: 2}, trunc=3))


def test_same_series_only_compares_the_joint_window():
    f = L({0: 1, 3: 5}, trunc=4)
    g = L({0: 1}, trunc=2)
    assert f.same_series(g)


def test_coefficient_past_the_window_is_an_error():
    f = L({0: 1}, trunc=2)
    assert f.coefficient(1).is_zero()
    assert 1 < f.trunc <= 5  # z^1 is known, z^5 is not
    with pytest.raises(PrecisionError):
        f.coefficient(2)


def test_terms_beyond_trunc_are_discarded_on_build():
    f = L({0: 1, 7: 3}, trunc=2)
    assert sorted(f.coeffs) == [0]


def test_reduced_valuation_frozen():
    f = L({-2: X, -1: 3, 0: 1})
    assert f.reduced_valuation() == (-1, 1)
    assert L({3: 2}).reduced_valuation() == (3, 0)
    with pytest.raises(NotInvertibleError):
        L({0: X}).reduced_valuation()
    with pytest.raises(NotInvertibleError):
        LaurentElement.zero(RING).reduced_valuation()


def test_inverse_exact_with_nilpotent_fringe():
    f = L({-1: X, 0: 1})
    inv = f.inverse()
    assert inv.trunc is None
    assert inv == L({0: 1, -1: -X, -2: X * X})
    assert f * inv == LaurentElement.one(RING)


def test_inverse_of_a_unit_monomial_is_exact():
    f = LaurentElement.z_power(RING, 3)
    assert f.inverse() == LaurentElement.z_power(RING, -3)


def test_inverse_through_a_window():
    f = L({1: 1, 2: 1}, trunc=6)  # z(1+z), known below z^6
    inv = f.inverse()
    assert inv.trunc == 4
    assert inv == L({-1: 1, 0: -1, 1: 1, 2: -1, 3: 1}, trunc=4)
    assert (f * inv).same_series(LaurentElement.one(RING))


def test_inverse_needs_a_visible_unit():
    with pytest.raises(PrecisionError):
        L({0: X}, trunc=2).inverse()  # a unit could hide past the window


def test_narrow_window_inverse_keeps_only_the_fringe():
    f = L({0: X, 1: 1}, trunc=3)
    inv = f.inverse()
    assert inv.trunc == -1  # nothing determined at the unit's own level
    assert (f * inv).same_series(LaurentElement.one(RING))
    ok = L({0: X, 1: 1}, trunc=4)
    assert ok.inverse().trunc == 0
    assert (ok * ok.inverse()).same_series(LaurentElement.one(RING))


def test_inverse_with_unit_and_nilpotent_upper_terms_frozen():
    # 1/((1+z)(1+xz)): the z term is a unit, the z^2 term nilpotent
    f = L({0: 1, 1: 1 + X, 2: X}, trunc=5)
    alt = 1 + X + X * X
    assert f.inverse() == L({0: 1, 1: -1 - X, 2: alt, 3: -alt, 4: alt}, trunc=5)
    # the same with a nilpotent fringe: the window drops by d*r = 2
    g = L({-1: X, 0: 1, 1: 1 + X, 2: X}, trunc=5)
    assert g.inverse() == L(
        {
            -2: X * X,
            -1: -X - 3 * X * X,
            0: 1 + 2 * X + 8 * X * X,
            1: -1 - 4 * X - 14 * X * X,
            2: 1 + 5 * X + 22 * X * X,
        },
        trunc=3,
    )


def test_exact_geometric_inverse_needs_an_explicit_window():
    f = L({0: 1, 1: 1})
    with pytest.raises(DomainError):
        f.inverse()
    inv = f.inverse(window=3)
    assert inv == L({0: 1, 1: -1, 2: 1}, trunc=3)


def test_calculus_helpers():
    f = L({-1: 2, 0: 7, 3: 1})
    assert f.derivative() == L({-2: -2, 2: 3})
    assert f.residue() == RING.const(2)
    assert f.shift(2) == L({1: 2, 2: 7, 5: 1})
    assert f.clip_below(0) == L({0: 7, 3: 1})
    assert f.truncate(3) == L({-1: 2, 0: 7}, trunc=3)


def test_residue_requires_visibility():
    with pytest.raises(PrecisionError):
        LaurentElement.zero(RING, trunc=-1).residue()


def test_mixed_rings_are_rejected():
    other = CoeffRing(GF(5), 1, 2)
    with pytest.raises(RingMismatchError):
        L({0: 1}) * LaurentElement.one(other)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _coeff(pair):
    a, b = pair
    return RING.const(a) + RING.gen(0) * b


@st.composite
def windowed(draw):
    lo = draw(st.integers(-3, 1))
    n = draw(st.integers(1, 4))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
            min_size=n,
            max_size=n,
        )
    )
    trunc = draw(st.one_of(st.none(), st.integers(lo + n, lo + n + 2)))
    return LaurentElement(
        RING, {lo + i: _coeff(p) for i, p in enumerate(pairs)}, trunc
    )


@given(windowed(), windowed(), windowed())
def test_window_algebra(f, g, h):
    assert ((f + g) + h).same_series(f + (g + h))
    assert (f * (g + h)).same_series(f * g + f * h)
    assert ((f * g) * h).same_series(f * (g * h))
    assert (f - f).same_series(LaurentElement.zero(RING))


@given(windowed())
def test_shift_respects_products(f):
    z = LaurentElement.z_power(RING, 1)
    assert (f * z).same_series(f.shift(1))
    assert f.shift(3).shift(-3) == f


INVERSE_RINGS = [
    CoeffRing(QQ, 2, 2),
    CoeffRing(GF(3), 2, 2),
    CoeffRing(GF(5), 2, 3),
    coordinate_ring(QQ, 3),
    coordinate_ring(GF(5), 2),
]
SMALL = st.integers(-3, 3)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(INVERSE_RINGS),
    st.integers(-3, 1),
    st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=1, max_size=6),
    st.integers(0, 2),
    st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=3),
)
def test_windowed_inverse_ignores_the_unknown_tail(ring, lo, known, gap, tail):
    """Whatever lies past the window, the windowed inverse is the same."""
    x1, x2 = ring.gen(0), ring.gen(1)
    terms = {lo + i: ring.const(a) + x1 * b + x2 * c for i, (a, b, c) in enumerate(known)}
    assume(any(c.is_unit() for c in terms.values()))
    trunc = lo + len(known) + gap
    inv = LaurentElement(ring, terms, trunc).inverse()
    for i, (a, b) in enumerate(tail):
        terms[trunc + i] = ring.const(a) + x1 * b
    longer = LaurentElement(ring, terms, trunc + len(tail)).inverse()
    assert longer.truncate(inv.trunc) == inv


@pytest.mark.parametrize(
    "coeffs, trunc",
    [({1.7: 1}, None), ({1.0: 1}, None), ({True: 1}, None), ({0: 1}, 2.0), ({0: 1}, True)],
    ids=["float-exponent", "integral-float-exponent", "bool-exponent", "float-trunc", "bool-trunc"],
)
def test_exponents_and_truncation_orders_are_ints(coeffs, trunc):
    with pytest.raises(DomainError, match="must be an int|must be ints"):
        L(coeffs, trunc)


# ---------------------------------------------------------------------------
# exact division by a one-sided series
# ---------------------------------------------------------------------------


def _draw_element(data, ring, nilpotent):
    """A random element of ``ring``; its constant term dropped if ``nilpotent``."""
    monos = list(ring.monomials())
    if ring.field.char:
        value = st.integers(-2, 2)
    else:
        value = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    values = data.draw(st.lists(value, min_size=len(monos), max_size=len(monos)))
    x = ring.element(dict(zip(monos, values)))
    return x - x.constant_term() if nilpotent else x


def _draw_unit(data, ring):
    c = data.draw(st.sampled_from([1, -1, 2, -2]).filter(lambda v: ring.const(v)))
    return _draw_element(data, ring, True) + c


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_divide_is_the_product_with_the_inverse(field, d, weighted, up, data):
    """Both walks of ``_divide`` against num * den^{-1} and the defining
    property q * den = num."""
    ring = coordinate_ring(field, d) if weighted else CoeffRing(field, 2, d)
    depth = data.draw(st.integers(1, 3))
    den_terms = {0: _draw_unit(data, ring)}
    for j in range(1, depth + 1):
        if up:
            den_terms[j] = _draw_element(data, ring, data.draw(st.booleans()))
        else:
            den_terms[-j] = _draw_element(data, ring, True)
    if up:  # at least one unit above z^0: den^{-1} is an infinite series
        den_terms[data.draw(st.integers(1, depth))] = _draw_unit(data, ring)
    den = LaurentElement(ring, den_terms)
    lo = data.draw(st.integers(-3, 2))
    size = data.draw(st.integers(1, 4))
    num_terms = {lo + i: _draw_element(data, ring, data.draw(st.booleans())) for i in range(size)}
    num_terms[lo] = _draw_unit(data, ring) if data.draw(st.booleans()) else ring.gen(0)
    windowed = up and data.draw(st.booleans())
    trunc = lo + size + data.draw(st.integers(0, 2)) if windowed else None
    num = LaurentElement(ring, num_terms, trunc)
    if up:
        below = lo + data.draw(st.integers(1, 6))
        q = _divide(num, den, below)
        assert q == num * den.inverse(window=below - lo)
        assert q.trunc == (below if trunc is None else min(below, trunc))
        assert (q * den).same_series(num)
    else:
        q = _divide(num, den, None)
        assert q == num * den.inverse()
        assert q.trunc is None and q * den == num


def test_divide_by_v_stops_where_its_inverse_ends(monkeypatch):
    """Over the coordinate ring of bound d, v^{-1} ends at z^{-d}: the
    coefficient of z^{-j} in v has weight j, so a product of its terms
    reaching below z^{-d} has weight > d.  The downward walk takes one
    sum per exponent 0, ..., -d and none below."""
    import grasstau.laurent as laurent_module

    sums = []
    original = laurent_module._sum_products

    def counted(ring, pairs):
        sums.append(ring)
        return original(ring, pairs)

    for d in (1, 2, 4, 6):
        ring = coordinate_ring(QQ, d)
        v = LaurentElement(ring, {0: 1, **{-j: ring.gen(j - 1) for j in range(1, d + 1)}})
        want = v.inverse()
        monkeypatch.setattr(laurent_module, "_sum_products", counted)
        sums.clear()
        q = _divide(LaurentElement.one(ring), v, None)
        monkeypatch.setattr(laurent_module, "_sum_products", original)
        assert q == want and min(q.coeffs) == -d
        assert len(sums) == d + 1


@pytest.mark.parametrize(
    "den_terms, num_trunc, below",
    [
        ({-1: 1, 0: 1}, None, None),
        ({-2: X, -1: 2, 0: 1}, None, None),
        ({-1: X, 0: 1, 1: 1}, None, 4),
        ({-1: X, 0: 1}, None, 4),
        ({0: X, 1: 1}, None, 4),
        ({-1: X, 0: 1}, 5, None),
    ],
    ids=[
        "unit-below",
        "unit-below-behind-a-nilpotent",
        "both-sides",
        "below-with-a-window",
        "no-unit-at-z0",
        "windowed-numerator-walking-down",
    ],
)
def test_divide_refuses_a_broken_divisor(den_terms, num_trunc, below):
    with pytest.raises(InternalError, match="one-sided divisor"):
        _divide(L({0: 1, 1: X}, num_trunc), L(den_terms), below)


def test_foreign_operands_and_zero_series():
    """``==`` with a foreign operand is False and ``*`` raises TypeError;
    a zero series, windowed or not, is falsy."""
    ring = CoeffRing(QQ, 1, 2)
    f = LaurentElement(ring, {0: 1, 1: ring.gen(0)})
    assert (f == "1 + x1*z") is False
    with pytest.raises(TypeError):
        f * "z"
    assert bool(f)
    assert not LaurentElement.zero(ring)
    assert not LaurentElement.zero(ring, 3)
    assert not LaurentElement(ring, {4: 1}, 2)  # the only term lies past the window
