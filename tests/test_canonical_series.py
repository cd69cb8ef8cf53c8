"""Series the library builds from its own arithmetic are canonical.

``laurent._laurent`` skips the constructor's reading of exponents and
coefficients, so each series it builds must already be what the
constructor would make of the same terms: no zero coefficient, no term at
or past the window, every exponent an int and every coefficient an
element of an equal ring.  These properties check that for every caller
(``factorize``'s h, L and gminus and the gplus its division returns,
Laurent ``*``, ``+``, ``-`` and ``truncate``, ``laurent._divide``, and
the series w that ``baker`` divides)
over Q and F_2..F_7, on exact and windowed input, with the second
operand over an equal ring that is a distinct object.  Terms are drawn
sparse, so sums that cancel and products past the degree bound occur.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import grasstau.gamma as gamma
import grasstau.tau as tau
from grasstau import GF, QQ, BaseField, CoeffRing, GrassPoint, LaurentElement, coordinate_ring
from grasstau.laurent import _divide

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def _canonical(x: LaurentElement) -> bool:
    return all(x.coeffs.values()) and x == LaurentElement(x.ring, dict(x.coeffs), x.trunc)


def _rings(field, d, weighted):
    """A ring and an equal ring that is another object."""
    if weighted:
        ring, twin = coordinate_ring(field, d), coordinate_ring(BaseField(field.char), d)
    else:
        ring, twin = CoeffRing(field, 2, d), CoeffRing(BaseField(field.char), 2, d)
    assert ring == twin and ring is not twin
    return ring, twin


def _element_drawer(ring, data):
    """element(nilpotent) draws a sparse element of ``ring``, its constant
    term dropped when ``nilpotent``."""
    monos = list(ring.monomials())
    if ring.field.char:
        value = st.integers(-2, 2)
    else:
        value = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))

    def element(nilpotent):
        picked = data.draw(st.lists(st.sampled_from(monos), max_size=3))
        x = ring.element({m: data.draw(value) for m in picked})
        return x - x.constant_term() if nilpotent else x

    return element


def _series(ring, data, element):
    """A sparse series on [-3, 3], exact or windowed."""
    exps = data.draw(st.lists(st.integers(-3, 3), max_size=5))
    terms = {e: element(data.draw(st.booleans())) for e in exps}
    trunc = data.draw(st.none() | st.integers(-2, 5))
    return LaurentElement(ring, terms, trunc)


def _spied(module, call):
    """call() and the operands of every ``_divide`` it makes through
    ``module``."""
    seen = []
    real = module._divide

    def spy(num, den, below, inv0=None):
        seen.extend((num, den))
        return real(num, den, below, inv0)

    with mock.patch.object(module, "_divide", spy):
        return call(), seen


def _factorize_series(f):
    """factorize(f) and its series: h and L, the operands of its division,
    then gminus and gplus."""
    g, seen = _spied(gamma, lambda: gamma.factorize(f))
    return [*seen, g.gminus, g.gplus]


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(0, 3), st.booleans(), st.booleans(), st.data())
def test_factorize_builds_canonical_series(field, d, r, weighted, windowed, data):
    ring, twin = _rings(field, d, weighted)
    element = _element_drawer(ring, data)
    n = data.draw(st.integers(-2, 2))
    unit = data.draw(st.sampled_from([1, -1, 2]).filter(lambda v: ring.const(v)))
    terms = {0: element(True) + unit}
    for j in data.draw(st.lists(st.integers(1, r), max_size=r)) if r else ():
        terms[-j] = element(True)
    for j in data.draw(st.lists(st.integers(1, 3), max_size=3)):
        terms[j] = element(data.draw(st.booleans()))
    # fringe width at most r, so this window determines the lower factors
    trunc = n + d * r + 1 + data.draw(st.integers(0, 3)) if windowed else None
    f = LaurentElement(ring, {e + n: c for e, c in terms.items()}, trunc)
    for x in _factorize_series(f):
        assert _canonical(x), x
    # the series the same input gives over an equal ring that is another object
    for x in _factorize_series(LaurentElement(twin, dict(f.coeffs), f.trunc)):
        assert _canonical(x), x


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.booleans(), st.integers(-4, 6), st.data())
def test_laurent_arithmetic_builds_canonical_series(field, d, weighted, order, data):
    ring, twin = _rings(field, d, weighted)
    f = _series(ring, data, _element_drawer(ring, data))
    g = _series(twin, data, _element_drawer(twin, data))
    for x in (f * g, g * f, f * f, f + g, f - g, g - f, f - f, -f, f.truncate(order), (f * g).truncate(order)):
        assert _canonical(x), x
    assert _canonical(f * ring.gen(0)) and _canonical(f - 1) and _canonical(2 - f)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_divide_builds_canonical_series(field, d, weighted, up, data):
    ring, twin = _rings(field, d, weighted)
    element = _element_drawer(ring, data)
    unit = data.draw(st.sampled_from([1, -1, 2]).filter(lambda v: ring.const(v)))
    den_terms = {0: element(True) + unit}
    for j in data.draw(st.lists(st.integers(1, 3), max_size=3)):
        den_terms[j if up else -j] = element(not up or data.draw(st.booleans()))
    den = LaurentElement(twin, den_terms)
    num = _series(ring, data, element)
    if not num.coeffs or not up and num.trunc is not None:  # _divide's preconditions
        num = LaurentElement(ring, {0: ring.one()}, num.trunc if up else None)
    q = _divide(num, den, num.min_exp + data.draw(st.integers(1, 6)) if up else None)
    assert _canonical(q), q


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coefficient_rings_equal_by_value(field):
    def ring(char=field.char, num_vars=2, bound=3, weights=(1, 2)):
        return CoeffRing(BaseField(char), num_vars, bound, weights)

    a, b = ring(), ring()
    assert a is not b and a == b and b == a and a == a
    other = 11 if field.char != 11 else 13
    others = [ring(weights=(2, 1)), ring(weights=(1, 1)), ring(bound=2), ring(char=other)]
    for c in others + [ring(num_vars=3, weights=(1, 2, 1))]:
        assert a != c and c != a
    assert a != "ring" and a != field


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_baker_builds_canonical_series(field, depth, bound, window, data):
    """w = 1 + O(z) is a sum per exponent that vanishes often (at every
    exponent for the base point); psi is its quotient, truncated."""
    ring = CoeffRing(field, 0, 0)
    top = bound + window
    if data.draw(st.booleans()):
        point = GrassPoint.base_point(ring, depth)
    else:
        value = st.integers(0, 4)
        if not field.char:
            value = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
        cols = []
        for j in range(depth, 0, -1):
            terms = {e: data.draw(value) for e in data.draw(st.lists(st.integers(-j + 1, top), max_size=3))}
            terms[-j] = 1
            cols.append(LaurentElement(ring, terms))
        point = GrassPoint(ring, depth, cols)
    psi, seen = _spied(tau, lambda: tau.baker(point, bound, window))
    for x in (*seen, psi):
        assert _canonical(x), x
