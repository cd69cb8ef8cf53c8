"""The commutator pairing on valuation-zero series and its residue shadow.

The library computes the pairing in closed form from Witt components.
``_corner_determinant`` keeps the matrix definition it replaced as the
reference: the determinant of the corner block of the compressed
multiplicative commutator of two Toeplitz operators.
"""

import itertools
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GrasstauError,
    LaurentElement,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
    commutator_pairing,
    residue_pairing,
)
from grasstau.linalg import det_ring, inv_ring, mat_mul_ring


def ring2(field=QQ, bound=2):
    return CoeffRing(field, 2, bound)


def test_residue_pairing_frozen():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {-1: x1})
    g = LaurentElement(r, {1: x2})
    assert residue_pairing(f, g) == x1 * x2  # res(f dg)
    assert residue_pairing(g, f) == -(x1 * x2)
    assert residue_pairing(f, f).is_zero()


def test_commutator_pairing_frozen_depth_one():
    r = ring2(bound=1)
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -1: x1})
    g = LaurentElement(r, {0: 1, 1: x2})
    assert commutator_pairing(f, g) == r.one() + x1 * x2


def test_commutator_pairing_frozen_depth_two():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -2: x1})
    g = LaurentElement(r, {0: 1, 2: x2})
    assert commutator_pairing(f, g) == r.one() + 2 * (x1 * x2)


def test_commutator_pairing_positive_characteristic():
    r = ring2(GF(3), 1)
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -1: x1})
    g = LaurentElement(r, {0: 1, 1: x2})
    assert commutator_pairing(f, g) == r.one() + x1 * x2


def test_mismatched_exponents_pair_trivially():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -1: x1})
    g = LaurentElement(r, {0: 1, 2: x2})
    assert commutator_pairing(f, g) == r.one()


def test_same_wing_pairs_trivially():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    up1 = LaurentElement(r, {0: 1, 1: x1})
    up2 = LaurentElement(r, {0: 1, 2: x2})
    assert commutator_pairing(up1, up2) == r.one()
    dn1 = LaurentElement(r, {0: 1, -1: x1})
    dn2 = LaurentElement(r, {0: 1, -2: x2})
    assert commutator_pairing(dn1, dn2) == r.one()


def test_skew_symmetry():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -1: x1, -2: x1})
    g = LaurentElement(r, {0: 1, 1: x2, 2: x2})
    assert commutator_pairing(f, g) * commutator_pairing(g, f) == r.one()


def test_multiplicative_in_each_slot():
    r = CoeffRing(QQ, 3, 2)
    x1, x2, x3 = (r.gen(i) for i in range(3))
    f1 = LaurentElement(r, {0: 1, -1: x1})
    f2 = LaurentElement(r, {0: 1, -1: x2})
    g = LaurentElement(r, {0: 1, 1: x3})
    lhs = commutator_pairing(f1 * f2, g)
    rhs = commutator_pairing(f1, g) * commutator_pairing(f2, g)
    assert lhs == rhs


def test_leading_term_matches_the_residue():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    for k in (1, 2):
        fm = LaurentElement(r, {-k: x1})
        gm = LaurentElement(r, {k: x2})
        f = LaurentElement.one(r) + fm
        g = LaurentElement.one(r) + gm
        assert commutator_pairing(f, g) == r.one() + residue_pairing(fm, gm)


def test_wider_windows_do_not_change_the_answer():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -1: x1, -2: x1 * 2})
    g = LaurentElement(r, {0: 1, 1: x2, 2: x2})
    base = commutator_pairing(f, g)
    assert commutator_pairing(f, g, window=30) == base


def test_valuation_guard():
    r = ring2()
    with pytest.raises(DomainError):
        commutator_pairing(LaurentElement.z_power(r, 1), LaurentElement.one(r))


def test_window_guards():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    f = LaurentElement(r, {0: 1, -1: x1})
    g = LaurentElement(r, {0: 1, 1: x2})
    with pytest.raises(PrecisionError):
        commutator_pairing(f, g, window=3)  # supports need 2*2*2+1 + 4
    short = LaurentElement(r, {0: 1, -1: x1}, trunc=2)
    with pytest.raises(PrecisionError):
        commutator_pairing(short, g)


# ---------------------------------------------------------------------------
# the matrix definition as the reference
# ---------------------------------------------------------------------------


def _corner_determinant(f1, f2, window=None):
    """The pairing as a corner determinant, with the library's refusals.

    Compress multiplication by f onto the window [0, W) of nonnegative
    exponents: the W x W lower-triangular-banded Toeplitz matrix T(f).
    T(f1) T(f2) T(f1)^{-1} T(f2)^{-1} differs from the identity only in a
    corner of size B = d(p1+p2)+1 (p_i the support radii, d the
    nilpotency degree), and cutting at W corrupts only the last d(p1+p2)
    rows, so W >= 2d(p1+p2)+1 and the pairing is the determinant of the
    corner.
    """
    if f1.ring != f2.ring:
        raise RingMismatchError("commutator pairing needs a common ring")
    ring = f1.ring
    d = ring.degree_bound
    for f in (f1, f2):
        n, _ = f.reduced_valuation()
        if n != 0:
            raise DomainError(
                "commutator pairing needs valuation-zero series; factor out z^n first"
            )
    p1, p2 = (max(1, max(f.coeffs), -min(f.coeffs)) for f in (f1, f2))
    corner = d * (p1 + p2) + 1
    w_min = corner + d * (p1 + p2)
    w = w_min if window is None else window
    if w < w_min:
        raise PrecisionError(f"pair window {w} too small for these supports; need >= {w_min}")
    for f in (f1, f2):
        if f.trunc is not None and f.trunc < w:
            raise PrecisionError(f"series known only below z^{f.trunc}; the window needs z^{w}")

    def toeplitz(f):
        return [[f.coeffs.get(i - j, ring.zero()) for j in range(w)] for i in range(w)]

    m1, m2 = toeplitz(f1), toeplitz(f2)
    inverses = mat_mul_ring(inv_ring(m1, ring), inv_ring(m2, ring), ring)
    c = mat_mul_ring(mat_mul_ring(m1, m2, ring), inverses, ring)
    return det_ring([row[:corner] for row in c[:corner]], ring)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GrasstauError as exc:
        return type(exc), str(exc)


def _pairing_arg(rng, ring, radius, unit_upper):
    """1 + unit-plus-nilpotent constant + nilpotent lower wing of depth
    ``radius`` + upper terms, whose coefficients may be units."""
    def value():
        return ring.field.coerce(rng.choice([-2, -1, 1, 2, 3])) or ring.field.one()

    nil = [m for m in ring.monomials() if ring.weight(m) > 0]

    def element(nilpotent):
        pool = nil if nilpotent else list(ring.monomials())
        return ring.element({rng.choice(pool): value() for _ in range(rng.randint(1, 2))})

    coeffs = {0: ring.const(value()) + (element(True) if rng.random() < 0.5 else ring.zero())}
    for e in range(-radius, radius + 1):
        if e and (abs(e) == radius or rng.random() < 0.5):
            coeffs[e] = element(e < 0 or not unit_upper or rng.random() < 0.5)
    return LaurentElement(ring, coeffs)


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from(["exact", "windowed", "window="]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_closed_form_matches_the_corner_determinant(field, d, p1, p2, mode, unit_upper, seed):
    """Same value under ==, or the same refusal (type and message), on
    exact input, on input windowed near the precision floor, and with an
    explicit window near it; upper wings may carry unit coefficients."""
    rng = Random(seed)
    ring = CoeffRing(field, 2 if d < 3 else 1, d)
    f = _pairing_arg(rng, ring, p1, unit_upper)
    g = _pairing_arg(rng, ring, p2, unit_upper)
    floor = 2 * d * (p1 + p2) + 1
    window = None
    if mode == "windowed":
        f = f.truncate(floor + rng.randint(-1, 2))
        g = g.truncate(floor + rng.randint(0, 2)) if rng.random() < 0.5 else g
    elif mode == "window=":
        window = floor + rng.randint(-1, 2)
    assert _outcome(commutator_pairing, f, g, window) == _outcome(_corner_determinant, f, g, window)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_term_symbol_frozen(field, d):
    """<1 - a z^-i, 1 - b z^j> = (1 - a^(j/h) b^(i/h))^(-h), h = gcd(i, j),
    for i, j in 1..3 and b nilpotent or a unit, and its inverse with the
    arguments swapped: the building block of the closed form."""
    r = CoeffRing(field, 2, d)
    a, x = r.gen(0), r.gen(1)
    one = r.one()
    for i, j, b in itertools.product(range(1, 4), range(1, 4), (x, one + x)):
        h = gcd(i, j)
        f = LaurentElement(r, {0: one, -i: -a})
        g = LaurentElement(r, {0: one, j: -b})
        symbol = (one - a ** (j // h) * b ** (i // h)) ** h
        assert commutator_pairing(f, g) == symbol.inverse(), (i, j, b)
        assert commutator_pairing(g, f) == symbol, (i, j, b)


@pytest.mark.parametrize(
    "zero, error, message",
    [
        (LaurentElement.zero(ring2()), NotInvertibleError, "series has no unit coefficient; it is not invertible"),
        (LaurentElement.zero(ring2(), trunc=9), PrecisionError, "valuation undetermined at this precision"),
    ],
)
def test_zero_series_refused_before_its_support_is_read(zero, error, message):
    """The valuation check refuses a zero argument, exact or windowed, in
    either position, so the support radius never meets an empty series."""
    one = LaurentElement.one(ring2())
    for args in ((zero, one), (one, zero)):
        with pytest.raises(error) as info:
            commutator_pairing(*args)
        assert type(info.value) is error and str(info.value) == message
