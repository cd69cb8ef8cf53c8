"""Ground fields and the weighted-truncated coefficient rings."""

import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    LaurentElement,
    NotInvertibleError,
    RingMismatchError,
    factorize,
)
from grasstau.scalars import RingElement, _is_prime
from grasstau.schur import coordinate_ring


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.add(4, 5) == 2
    assert F.mul(3, 5) == 1
    assert F.invert(3) == 5
    assert F.sub(1, 3) == 5
    assert F.neg(0) == 0


def test_gf_rejects_non_primes():
    with pytest.raises(DomainError):
        GF(6)
    with pytest.raises(DomainError):
        GF(1)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if _is_prime(n) != _is_prime_by_trial_division(n)] == []
    # Carmichael numbers and a strong pseudoprime to the first nine prime bases
    for composite in (561, 41041, 3825123056546413051):
        assert not _is_prime(composite)


def test_large_prime_characteristics_are_decided_at_once():
    # trial division takes about a second on the first and minutes on the second
    for p in (100000000000031, 2**64 - 59):
        start = time.perf_counter()
        assert GF(p).char == p
        assert time.perf_counter() - start < 0.1


def test_characteristics_from_two_to_the_64_are_refused():
    # beyond 2^64 the Miller-Rabin bases no longer decide primality
    for p in (2**64, 2**64 + 1, 2**89 - 1):
        with pytest.raises(DomainError, match="not below 2\\^64"):
            GF(p)


def test_parse_and_format():
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert QQ.parse(" 3/4 ") == Fraction(3, 4)
    assert QQ.format(Fraction(5, 3)) == "5/3"
    assert GF(5).parse("3") == 3
    assert GF(5).format(4) == "4"


@pytest.mark.parametrize("text", ["1e2000000", "1.5", "1_000", "\uff11\uff12", "1/0", "3/", ""])
def test_rational_literals_are_ascii_integers_and_quotients(text):
    with pytest.raises(DomainError, match="bad rational literal"):
        QQ.parse(text)


def test_field_invert_guards():
    with pytest.raises(NotInvertibleError):
        GF(5).invert(0)
    with pytest.raises(NotInvertibleError):
        QQ.invert(Fraction(0))


def test_weighted_truncation_drops_heavy_monomials():
    ring = CoeffRing(QQ, 2, 2, weights=(1, 2))
    x1, x2 = ring.gen(0), ring.gen(1)
    assert (x1 * x2).is_zero()  # weight 3 > 2
    assert not (x1 * x1).is_zero()  # weight 2, still inside
    assert (x1 ** 3).is_zero()
    assert not x2.is_zero()


def test_degree_one_square_vanishes():
    ring = CoeffRing(QQ, 1, 1)
    x = ring.gen(0)
    assert (x * x).is_zero()


def test_unit_inverse_frozen():
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    inv = (ring.one() + x).inverse()
    assert inv == ring.one() - x + x * x
    assert (ring.one() + x) * inv == ring.one()


def test_units_and_nilpotents_partition_the_ring():
    ring = CoeffRing(GF(5), 2, 2)
    x1 = ring.gen(0)
    assert x1.is_nilpotent() and not x1.is_unit()
    u = ring.const(2) + x1
    assert u.is_unit() and not u.is_nilpotent()
    with pytest.raises(NotInvertibleError):
        x1.inverse()


def test_monomial_enumeration():
    ring = CoeffRing(QQ, 3, 3, weights=(1, 2, 3))
    monos = list(ring.monomials())
    assert len(monos) == len(set(monos))
    assert all(ring.weight(m) <= 3 for m in monos)
    assert set(ring.monomials_of_weight(2)) == {(2, 0, 0), (0, 1, 0)}
    assert set(ring.monomials_of_weight(3)) == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}


def test_frobenius_power():
    ring = CoeffRing(GF(5), 1, 2)
    x = ring.gen(0)
    assert (ring.one() + x) ** 5 == ring.one()


def test_rings_survive_pickle_and_deepcopy():
    # a rebuilt ring must find the shared product table, or it compares
    # unequal to the original and refuses to mix with it
    ring = coordinate_ring(QQ, 3)
    x = ring.gen(0)
    assert pickle.loads(pickle.dumps(x)) == x
    assert x + copy.deepcopy(x) == x * 2
    f = LaurentElement(ring, {-1: x, 0: ring.const(2), 1: ring.gen(1)})
    assert pickle.loads(pickle.dumps(f)) == f
    g = factorize(f)
    assert pickle.loads(pickle.dumps(g)) == g


def test_bad_weights_rejected():
    with pytest.raises(DomainError):
        CoeffRing(QQ, 2, 2, weights=(1,))
    with pytest.raises(DomainError):
        CoeffRing(QQ, 1, 2, weights=(0,))


RING = CoeffRing(GF(5), 2, 2)
MONOS = list(RING.monomials())

elements = st.builds(
    lambda cs: RING.element(dict(zip(MONOS, cs))),
    st.lists(st.integers(0, 4), min_size=len(MONOS), max_size=len(MONOS)),
)


@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RING.zero() == a
    assert a * RING.one() == a


@given(elements)
def test_unit_xor_nilpotent(a):
    assert a.is_unit() != a.is_nilpotent()
    if a.is_unit():
        assert a * a.inverse() == RING.one()
    else:
        # truncated ring: some power must die
        p = a
        for _ in range(RING.degree_bound):
            p = p * a
        assert p.is_zero()


# ----------------------------------------------------------------------
# The product-table core against a naive reference: the double loop that
# weighs every monomial pair, with one field operation per term, and the
# Neumann-series inverse.
# ----------------------------------------------------------------------


def _naive_add(a, b):
    field = a.ring.field
    out = dict(a.coeffs)
    for mono, c in b.coeffs.items():
        s = field.add(out.get(mono, field.zero()), c)
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return RingElement(a.ring, out)


def _naive_neg(a):
    return RingElement(a.ring, {m: a.ring.field.neg(c) for m, c in a.coeffs.items()})


def _naive_scale(a, k):
    field = a.ring.field
    k = field.coerce(k)
    return RingElement(a.ring, {m: v for m, c in a.coeffs.items() if (v := field.mul(c, k))})


def _naive_mul(a, b):
    ring = a.ring
    field = ring.field
    out = {}
    for m1, c1 in a.coeffs.items():
        w1 = ring.weight(m1)
        for m2, c2 in b.coeffs.items():
            if w1 + ring.weight(m2) > ring.degree_bound:
                continue
            mono = tuple(x + y for x, y in zip(m1, m2))
            p = field.mul(c1, c2)
            prev = out.get(mono)
            s = field.add(prev, p) if prev is not None else p
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return RingElement(ring, out)


def _naive_pow(a, n):
    out = a.ring.one()
    for _ in range(n):
        out = _naive_mul(out, a)
    return out


def _naive_inverse(a):
    ring = a.ring
    cinv = ring.field.invert(a.constant_term())
    u = _naive_add(ring.one(), _naive_neg(_naive_scale(a, cinv)))
    total = term = ring.one()
    while True:
        term = _naive_mul(term, u)
        if term.is_zero():
            return _naive_scale(total, cinv)
        total = _naive_add(total, term)


def _same(got, want):
    """``==``, and the same coefficient types (Fraction over Q, int mod p)."""
    assert got == want
    assert repr(sorted(got.coeffs.items())) == repr(sorted(want.coeffs.items()))


# Each family is a pair of rings: two distinct but equal instances, or two
# rings that differ only in weights or only in the degree bound, so that a
# product table shared under too coarse a key gives one of them wrong
# products.
RING_PAIRS = {
    "equal": lambda F: (CoeffRing(F, 2, 3), CoeffRing(F, 2, 3)),
    "weights": lambda F: (CoeffRing(F, 2, 3), CoeffRing(F, 2, 3, weights=(1, 2))),
    "bound": lambda F: (CoeffRing(F, 2, 3), CoeffRing(F, 2, 2)),
    "coordinate": lambda F: (coordinate_ring(F, 4), CoeffRing(F, 4, 4, weights=(1, 1, 2, 2))),
}


def _element(ring):
    monos = list(ring.monomials())
    if ring.field.char:
        value = st.integers(0, ring.field.char - 1)
    else:
        value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(st.one_of(st.just(0), value), min_size=len(monos), max_size=len(monos)).map(
        lambda cs: ring.element(dict(zip(monos, cs)))
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5)]), st.sampled_from(sorted(RING_PAIRS)), st.data())
def test_ring_ops_match_the_naive_reference(field, family, data):
    rings = RING_PAIRS[family](field)
    for r1 in rings:
        for r2 in rings:
            if r1 != r2:
                continue
            a, b = data.draw(_element(r1)), data.draw(_element(r2))
            k = data.draw(st.integers(-6, 6))
            n = data.draw(st.integers(0, 4))
            _same(a * b, _naive_mul(a, b))
            _same(a * k, _naive_scale(a, k))
            _same(a + b, _naive_add(a, b))
            _same(a - b, _naive_add(a, _naive_neg(b)))
            _same(-a, _naive_neg(a))
            _same(a ** n, _naive_pow(a, n))
            unit = a if a.is_unit() else a + 1
            _same(unit.inverse(), _naive_inverse(unit))
            nil = a - a.constant_term()
            with pytest.raises(NotInvertibleError, match="^element has zero constant term$"):
                nil.inverse()
    a, b = (data.draw(_element(r)) for r in rings)
    if rings[0] != rings[1]:
        with pytest.raises(RingMismatchError):
            a * b


def test_dense_unit_inverse_frozen():
    """Dense units over Q (coordinate ring, bound 8) and F_5 (three plain
    variables, bound 5), coefficients listed in ``monomials()`` order."""
    ring = coordinate_ring(QQ, 8)
    monos = list(ring.monomials())
    unit = ring.element({m: 2 if i == 0 else (-1) ** i * (i % 3 + 1) for i, m in enumerate(monos)})
    expected = (
        "1/2 1/2 -3/4 1/4 -1/2 3/4 7/8 1/2 -7/4 7/4 0 3/4 1/2 -1 3/2 7/4 3/4 15/8 77/16 49/8 "
        "51/16 215/32 -1/2 9/4 -3/4 3/2 -9/4 -3/4 -25/4 3/4 -7/4 6 -9 -9/2 -49/8 -333/16 "
        "-259/16 1 1 -13/4 19/4 11/4 3/8 19/4 27 67/4 73/4 949/16 -7/4 8 -47/4 -11/2 -11 "
        "-175/4 -801/16 7/2 101/4 53/4 49/2 513/4 -13/2 -111/4 -109/2 99/8 1869/16 -179/8 335/8"
    ).split()
    assert unit.inverse() == ring.element(dict(zip(monos, map(Fraction, expected))))

    ring = CoeffRing(GF(5), 3, 5)
    monos = list(ring.monomials())
    unit = ring.element({m: 3 if i == 0 else i % 4 + 1 for i, m in enumerate(monos)})
    expected = "22022330243121343020122212402313234431244343142011240403"
    assert unit.inverse() == ring.element(dict(zip(monos, map(int, expected))))
