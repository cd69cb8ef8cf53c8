"""The commutator pairing on valuation-zero series and its residue shadow.

The library computes the pairing as two norms, each a determinant of
multiplication by an upper wing on R[t]/(P), P read off a lower wing.
Two references stay here: ``_corner_determinant``, the matrix definition,
the determinant of the corner block of the compressed multiplicative
commutator of two Toeplitz operators; and ``_witt_closed_form``, the
closed form from Witt components that the norms replaced.  It peels each
lower wing with ``_lower_witt_peel``, the exact peel the library no
longer needs, kept here with its own property.
"""

import itertools
from fractions import Fraction
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
    InternalError,
    LaurentElement,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
    commutator_pairing,
    coordinate_ring,
    residue_pairing,
)
from grasstau.gamma import factorize, witt_peel
from grasstau.laurent import _divide
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


def test_two_tails_give_the_same_value():
    # fringe widths 2 and 0 at d = 2: the pairing reads f below z^5 only
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    known = {0: 1, -1: x1, -2: x1 * 2, 3: x2, 4: 1}
    g = LaurentElement(r, {0: 1, 1: x2, 2: x2})
    first = commutator_pairing(LaurentElement(r, known), g)
    second = commutator_pairing(LaurentElement(r, {**known, 5: 1, 7: x1}), g)
    assert first == second == commutator_pairing(LaurentElement(r, known, trunc=5), g)


def test_valuation_guard():
    r = ring2()
    with pytest.raises(DomainError):
        commutator_pairing(LaurentElement.z_power(r, 1), LaurentElement.one(r))


def test_window_guards():
    r = ring2()
    x1, x2 = r.gen(0), r.gen(1)
    g = LaurentElement(r, {0: 1, 1: x2})
    short = LaurentElement(r, {0: 1, -1: x1}, trunc=2)  # needs trunc > 2*(1+0)
    with pytest.raises(PrecisionError):
        commutator_pairing(short, g)


# ---------------------------------------------------------------------------
# the matrix definition as the reference
# ---------------------------------------------------------------------------


def _corner_determinant(f1, f2):
    """The pairing of two exact series as a corner determinant, with the
    library's refusals of exact input.

    Compress multiplication by f onto the window [0, W) of nonnegative
    exponents: the W x W lower-triangular-banded Toeplitz matrix T(f).
    T(f1) T(f2) T(f1)^{-1} T(f2)^{-1} differs from the identity only in a
    corner of size B = d(p1+p2)+1 (p_i the support radii, d the
    nilpotency degree), and cutting at W corrupts only the last d(p1+p2)
    rows, so W = 2d(p1+p2)+1 suffices and the pairing is the determinant
    of the corner.
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
    w = corner + d * (p1 + p2)

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


def _floor_message(floor):
    # the pairing's own refusal, not one that factorize or the peel would
    # raise further on
    return f"^window too small to determine the pairing: need trunc > {floor},"


def _windowed(rng, f, g, floor):
    """f, and g half the time, truncated at floor - 1 .. floor + 2, and
    whether the pairing must refuse them (some trunc <= floor).  Never at
    trunc 0, which hides the unit constant term: a valuation refusal."""
    fw = f.truncate(max(1, floor + rng.randint(-1, 2)))
    gw = g.truncate(max(1, floor + rng.randint(-1, 2))) if rng.random() < 0.5 else g
    return fw, gw, any(h.trunc is not None and h.trunc <= floor for h in (fw, gw))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from(["exact", "windowed"]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_closed_form_matches_the_corner_determinant(field, d, p1, p2, mode, unit_upper, seed):
    """Exact input: the same value under ==, or the same refusal (type and
    message).  Input windowed near the floor d(p1+p2), p_i the fringe
    widths: a PrecisionError exactly when some trunc <= d(p1+p2), and
    otherwise the corner determinant of the untruncated series.  Upper
    wings may carry unit coefficients."""
    rng = Random(seed)
    ring = CoeffRing(field, 2 if d < 3 else 1, d)
    f = _pairing_arg(rng, ring, p1, unit_upper)
    g = _pairing_arg(rng, ring, p2, unit_upper)
    if mode == "exact":
        assert _outcome(commutator_pairing, f, g) == _outcome(_corner_determinant, f, g)
        return
    fw, gw, refused = _windowed(rng, f, g, d * (p1 + p2))
    if refused:
        with pytest.raises(PrecisionError, match=_floor_message(d * (p1 + p2))):
            commutator_pairing(fw, gw)
    else:
        assert commutator_pairing(fw, gw) == _corner_determinant(f, g)


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_windowed_pairs_do_not_depend_on_the_tail(field, d, p1, p2, unit_upper, seed):
    """A windowed pair is accepted exactly when every trunc exceeds
    d(r1+r2), r_i the fringe widths, and then pairs like two exact
    completions with different random tails, units among them; the
    windowed value also inverts under swapping the arguments."""
    rng = Random(seed)
    ring = CoeffRing(field, 2 if d < 3 else 1, d)
    f = _pairing_arg(rng, ring, p1, unit_upper)
    g = _pairing_arg(rng, ring, p2, unit_upper) if p2 else LaurentElement(
        ring, {0: ring.one(), 1: ring.one() + ring.gen(0)}
    )
    fw, gw, refused = _windowed(rng, f, g, d * (p1 + p2))
    if refused:
        with pytest.raises(PrecisionError, match=_floor_message(d * (p1 + p2))):
            commutator_pairing(fw, gw)
        return
    value = commutator_pairing(fw, gw)

    def complete(h):
        if h.trunc is None:
            return h
        units = list(ring.monomials())
        tail = {
            e: ring.element({rng.choice(units): rng.randint(1, 4)})
            for e in range(h.trunc, h.trunc + 4)
            if rng.random() < 0.7
        }
        return LaurentElement(ring, {**h.coeffs, **tail})

    for _ in range(2):
        assert commutator_pairing(complete(fw), complete(gw)) == value
    assert value * commutator_pairing(gw, fw) == ring.one()


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
    either position, before the precision floor reads its fringe width."""
    one = LaurentElement.one(ring2())
    for args in ((zero, one), (one, zero)):
        with pytest.raises(error) as info:
            commutator_pairing(*args)
        assert type(info.value) is error and str(info.value) == message


@settings(deadline=None, max_examples=12)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 2),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_fringe_three_matches_the_corner_determinant(field, d, p2, unit_upper, seed):
    """A lower wing of depth 3 against the matrix definition, both ways
    round: 3 x 3 norm matrices."""
    rng = Random(seed)
    ring = CoeffRing(field, 2, d)
    f = _pairing_arg(rng, ring, 3, unit_upper)
    g = _pairing_arg(rng, ring, p2, unit_upper)
    assert _outcome(commutator_pairing, f, g) == _outcome(_corner_determinant, f, g)
    assert _outcome(commutator_pairing, g, f) == _outcome(_corner_determinant, g, f)


# ---------------------------------------------------------------------------
# the closed form from Witt components as the reference
# ---------------------------------------------------------------------------


def _powers(x, top):
    """[x, x^2, ..., x^top], cut before the first zero power."""
    out = []
    while x and len(out) < top:
        out.append(x)
        x = x * out[0]
    return out


def _symbol(ring, lower, upper):
    """prod_{i,j} (1 - a_i^(j/h) b_j^(i/h))^h, h = gcd(i, j), over the Witt
    components a of a lower wing and b of an upper wing."""
    out = one = ring.one()
    a_powers = [_powers(a, len(upper)) for a in lower]
    b_powers = [_powers(b, len(lower)) for b in upper]
    for i, pa in enumerate(a_powers, start=1):
        for j, pb in enumerate(b_powers, start=1):
            h = gcd(i, j)
            if j // h <= len(pa) and i // h <= len(pb):
                out = out * (one - pa[j // h - 1] * pb[i // h - 1]) ** h
    return out


def _lower_witt_peel(f, length):
    """Components c_1..c_length of an exact lower-wing element
    f = prod_i (1 - c_i z^-i) whose components stop at ``length``, each
    read off its coefficient and divided out in turn, one exact division
    by 1 - c_i z^-i (``laurent._divide``).  Each c_i is nilpotent, so the
    quotient is exact and the remainder must be exactly 1."""
    ring = f.ring
    one = ring.one()
    out = []
    for i in range(1, length + 1):
        x = f.coefficient(-i)
        out.append(-x)
        if x:
            f = _divide(f, LaurentElement(ring, {0: one, -i: x}), None)
    if f != LaurentElement(ring, {0: one}):
        raise InternalError("Witt peel left a nonzero remainder")
    return out


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(1, 3),
    st.booleans(),
    st.integers(1, 3),
    st.data(),
)
def test_lower_witt_peel_matches_the_geometric_series_loop(field, d, weighted, r, data):
    """Equal components to dividing out each factor by multiplying with
    its geometric series, and an InternalError exactly where that loop's
    remainder is not 1: a lower wing peeled short of its components."""
    ring = coordinate_ring(field, d) if weighted else CoeffRing(field, 2, d)
    nil = [m for m in ring.monomials() if ring.weight(m)]
    value = st.integers(-2, 2) if field.char else st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    terms = {0: ring.one()}
    for j in range(1, r + 1):
        terms[-j] = ring.element({m: data.draw(value) for m in nil})
    f = LaurentElement(ring, terms)
    length = data.draw(st.integers(0, d * r))
    q, expected = f, []
    for i in range(1, length + 1):
        c = -q.coefficient(-i)
        expected.append(c)
        if c:
            q = q * LaurentElement(ring, {-i * k: c**k for k in range(d + 1)})
    if q == LaurentElement.one(ring):
        assert _lower_witt_peel(f, length) == expected
    else:
        with pytest.raises(InternalError, match="nonzero remainder"):
            _lower_witt_peel(f, length)


def _witt_closed_form(f1, f2):
    """The pairing with the library's refusals, each wing peeled into Witt
    components to length d*D, D the depth of the lower wing it meets."""
    if f1.ring != f2.ring:
        raise RingMismatchError("commutator pairing needs a common ring")
    ring = f1.ring
    d = ring.degree_bound
    widths = 0
    for f in (f1, f2):
        n, r = f.reduced_valuation()
        if n != 0:
            raise DomainError(
                "commutator pairing needs valuation-zero series; factor out z^n first"
            )
        widths += r
    for f in (f1, f2):
        if f.trunc is not None and f.trunc <= d * widths:
            raise PrecisionError(
                f"window too small to determine the pairing: "
                f"need trunc > {d * widths}, have {f.trunc}"
            )
    fac1, fac2 = factorize(f1), factorize(f2)
    dr1, dr2 = -d * fac1.gminus.min_exp, -d * fac2.gminus.min_exp
    num = _symbol(ring, _lower_witt_peel(fac2.gminus, dr2), witt_peel(fac1.gplus, dr2))
    den = _symbol(ring, _lower_witt_peel(fac1.gminus, dr1), witt_peel(fac2.gplus, dr1))
    return num * den.inverse()


def _wing_arg(rng, ring, fringe, top, unit_upper):
    """A unit constant, plus a nilpotent part half of the time; nilpotent
    terms at z^-fringe (always) up to z^-1; terms at z^1..z^top, units
    among them when ``unit_upper``."""
    monos = list(ring.monomials())
    nil = [m for m in monos if ring.weight(m) > 0]

    def value():
        return ring.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3, 5])) or ring.field.one()

    def element(nilpotent):
        return ring.element({rng.choice(nil if nilpotent else monos): value() for _ in range(rng.randint(1, 3))})

    coeffs = {0: ring.const(value()) + (element(True) if rng.random() < 0.5 else ring.zero())}
    for e in range(-fringe, top + 1):
        if e and (e == -fringe or rng.random() < 0.6):
            coeffs[e] = element(e < 0 or not unit_upper or rng.random() < 0.5)
    return LaurentElement(ring, coeffs)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]),
    st.integers(1, 5),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 4),
    st.integers(0, 4),
    st.booleans(),
    st.sampled_from(["exact", "one", "both"]),
    st.integers(0, 2**32),
)
def test_norms_match_the_witt_closed_form(field, d, nv, weighted, r1, r2, unit_upper, window, seed):
    """The same value under ==, or the same refusal by type and message,
    over Q and F_p, weighted rings of 1-3 variables, fringe widths 0-4
    (d(r1+r2) <= 12), unit upper wings, and windows just below, at and
    above the floor d(r1+r2)."""
    rng = Random(seed)
    r2 = min(r2, max(0, 12 // d - r1))
    weights = (1,) + tuple(rng.randint(1, 2) for _ in range(nv - 1)) if weighted else None
    ring = CoeffRing(field, nv, d, weights=weights)
    f = _wing_arg(rng, ring, r1, rng.randint(1, 4), unit_upper)
    g = _wing_arg(rng, ring, r2, rng.randint(1, 4), unit_upper)
    floor = d * (r1 + r2)
    if window != "exact":
        f = f.truncate(max(1, floor + rng.randint(-1, 3)))
    if window == "both":
        g = g.truncate(max(1, floor + rng.randint(-1, 3)))
    for args in ((f, g), (g, f)):
        assert _outcome(commutator_pairing, *args) == _outcome(_witt_closed_form, *args)
