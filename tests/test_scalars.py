"""Ground fields and the weighted-truncated coefficient rings."""

import copy
import pickle
import re
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    BaseField,
    CoeffRing,
    DomainError,
    LaurentElement,
    NotInvertibleError,
    RingMismatchError,
    factorize,
)
from grasstau.scalars import RingElement, _is_prime, _sub_product, _substitute, _sum_products
from grasstau.schur import coordinate_ring


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.coerce(4 + 5) == 2
    assert F.coerce(3 * 5) == 1
    assert F.invert(3) == 5
    assert F.coerce(1 - 3) == 5
    assert F.coerce(-0) == 0


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


def test_int_characteristics_keep_their_messages():
    # the characteristic is read as an int first (test_refusals' INT_READS);
    # an int keeps the message of the check it fails
    for char, message in [
        (-1, "invalid field characteristic -1"),
        (1, "invalid field characteristic 1"),
        (4, "field characteristic 4 is not prime"),
    ]:
        with pytest.raises(DomainError) as info:
            BaseField(char)
        assert str(info.value) == message
    assert BaseField(0) == QQ and BaseField(5) == GF(5)


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


@pytest.mark.parametrize("text", ["1_000", "\uff11\uff12"])
def test_residue_literals_are_ascii_integers(text):
    # int() alone would read these as 1000 and 12
    with pytest.raises(DomainError, match="bad residue literal"):
        GF(5).parse(text)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer strings of any length",
)
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_literals_past_the_digit_limit_are_bad_literals(field):
    # int() and Fraction() refuse such a string with ValueError; parse
    # reports it as the literal it cannot read
    text = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(DomainError, match="bad (rational|residue) literal"):
        field.parse(text)


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
    assert {m for m in monos if ring.weight(m) == 2} == {(2, 0, 0), (0, 1, 0)}
    assert {m for m in monos if ring.weight(m) == 3} == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}


def test_frobenius_power():
    ring = CoeffRing(GF(5), 1, 2)
    x = ring.gen(0)
    assert (ring.one() + x) ** 5 == ring.one()


def test_rings_survive_pickle_and_deepcopy():
    # a rebuilt ring must compare equal to the original, or it refuses to
    # mix with it
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
# The monomial-key core against a naive reference: the double loop that
# weighs every monomial pair, with one field operation per term, and the
# Neumann-series inverse.
# ----------------------------------------------------------------------


def _naive_add(a, b):
    field = a.ring.field
    out = dict(a.coeffs)
    for mono, c in b.coeffs.items():
        s = field.coerce(out.get(mono, field.zero()) + c)
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return RingElement(a.ring, out)


def _naive_neg(a):
    return RingElement(a.ring, {m: a.ring.field.coerce(-c) for m, c in a.coeffs.items()})


def _naive_scale(a, k):
    field = a.ring.field
    k = field.coerce(k)
    return RingElement(a.ring, {m: v for m, c in a.coeffs.items() if (v := field.coerce(c * k))})


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
            p = field.coerce(c1 * c2)
            prev = out.get(mono)
            s = field.coerce(prev + p) if prev is not None else p
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
# rings that differ only in weights or only in the degree bound, so that
# monomial keys read with another shape's encoding give one of them wrong
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
            for const in [k] if field.char else [k, Fraction(k, 7)]:  # reflected + and -
                _same(const + a, _naive_add(r1.const(const), a))
                _same(const - a, _naive_add(r1.const(const), _naive_neg(a)))
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


def _canonical(x):
    """Integer numerators over one common denominator, in canonical form,
    and ``coeffs`` reading the same values."""
    ring = x.ring
    p = ring.field.char
    num, den = x._num, x._den
    assert all(type(n) is int and n for n in num.values())
    # the keys decode to surviving monomials, and encoding gives the key back
    monos = {k: ring._monomial(k) for k in num}
    assert all(type(k) is int and 0 <= k for k in num)
    assert all(ring.weight(m) <= ring.degree_bound for m in monos.values())
    assert all(ring._key(m) == k for k, m in monos.items())
    coeffs = x.coeffs
    assert coeffs.keys() == set(monos.values()) and len(coeffs) == len(num)
    if p:
        assert den == 1
        assert all(type(c) is int and 1 <= c < p for c in coeffs.values())
        assert coeffs == {monos[k]: n for k, n in num.items()}
    else:
        assert type(den) is int and den >= 1
        assert gcd(den, *num.values()) == 1
        for m, c in coeffs.items():
            assert type(c) is Fraction and c.denominator > 0
            assert gcd(c.numerator, c.denominator) == 1
            assert c == Fraction(num[ring._key(m)], den)
    assert RingElement(x.ring, coeffs) == x
    return x


def _scalar(field):
    if field.char:
        return st.integers(-7, 7)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.sampled_from([(2, 3, None), (2, 4, (1, 2)), (3, 2, None)]),
    st.data(),
)
def test_ring_results_are_canonical(field, shape, data):
    ring = CoeffRing(field, *shape)
    a, b = data.draw(_element(ring)), data.draw(_element(ring))
    k = data.draw(_scalar(field))
    n = data.draw(st.integers(0, 4))
    for x in (a, b, a * b, a + b, a - b, b - a, -a, a**n, a * k, k * a, 3 - a, a + k):
        _canonical(x)
    unit = _canonical(a if a.is_unit() else a + 1).inverse()
    _canonical(unit)
    _canonical(unit * (a if a.is_unit() else a + 1))
    assert unit * (a if a.is_unit() else a + 1) == ring.one()
    # the same element reached by different routes is the same element
    assert _canonical(a * k - a * k).is_zero()
    if field.char:
        p = field.char
        for j in range(1, p):
            assert (a * j) * pow(j, -1, p) == a
        written, value = -1, p - 1
    else:
        assert (a * Fraction(1, 3)) * 3 == a
        written, value = Fraction(2, 4), Fraction(1, 2)
    for m in ring.monomials():
        x_m = ring.element({m: 1})
        assert _canonical(ring.element({m: written})) == ring.const(value) * x_m
        assert _canonical(ring.element({m: written}) * a) == _canonical(a * value * x_m)


def test_inverse_of_a_negative_constant_term_frozen():
    """Units with constant term -3/2 over Q, at an even and an odd degree
    bound (so c^(K+1) is once negative, once positive); coefficients in
    ``monomials()`` order, expected values from the Fraction-based inverse."""
    expected = {
        4: "-2/3 4/9 -20/27 16/9 -70/27 -40/9 724/81 968/81 -7876/243",
        5: "-2/3 4/9 -20/27 16/9 -70/27 16/3 -164/27 40/3 1588/81 -13904/243 -15722/243 155104/729",
    }
    for bound, want in expected.items():
        ring = CoeffRing(QQ, 2, bound, weights=(1, 2))
        monos = list(ring.monomials())
        unit = ring.element(
            {
                m: Fraction(-3, 2) if i == 0 else Fraction((-1) ** i * (i % 4 + 1), i % 3 + 1)
                for i, m in enumerate(monos)
            }
        )
        inv = _canonical(unit.inverse())
        assert inv == ring.element(dict(zip(monos, map(Fraction, want.split()))))
        assert [str(inv.coefficient(m)) for m in monos] == want.split()
        assert unit * inv == ring.one()


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_ring_elements_survive_pickle_and_deepcopy(field):
    ring = coordinate_ring(field, 3)
    x1, x2 = ring.gen(0), ring.gen(1)
    elements = [ring.zero(), ring.one(), x1, (x1 * 3 + x2 * 2 - 4) * 7, (1 + x1 - x2).inverse()]
    if not field.char:
        elements.append(x1 * Fraction(2, 9) + x2 * Fraction(-5, 6) + Fraction(7, 4))
    for x in elements:
        for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert back == x
            assert repr(sorted(back.coeffs.items())) == repr(sorted(x.coeffs.items()))
            assert _canonical(back + x) == x * 2


# ----------------------------------------------------------------------
# The scalar boundary: one constructor, one operand rule.
# ----------------------------------------------------------------------

BOUNDARY_FIELDS = [QQ, GF(2), GF(3), GF(5)]
BOUNDARY_SHAPES = [(1, 2, None), (2, 3, None), (2, 4, (1, 2))]


def _raw_value(field):
    """A field value as a caller writes it: unreduced residues in
    characteristic p, ints and Fractions over Q."""
    if field.char:
        return st.integers(-20, 20)
    return st.one_of(st.integers(-20, 20), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


def _built(make, ring, coeffs):
    try:
        return make(ring, coeffs)
    except DomainError as exc:
        return ("refused", str(exc))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BOUNDARY_FIELDS), st.sampled_from(BOUNDARY_SHAPES), st.data())
def test_ring_element_is_the_one_constructor(field, shape, data):
    ring = CoeffRing(field, *shape)
    n = ring.num_vars
    # monomials inside the bound and past it, sometimes one of the wrong
    # length or with a negative exponent
    mono = st.tuples(*[st.integers(0, ring.degree_bound + 1)] * n)
    bad = st.one_of(st.tuples(*[st.integers(0, 2)] * (n + 1)), st.tuples(st.just(-1), *[st.just(0)] * (n - 1)))
    monos = st.one_of(mono, bad) if data.draw(st.booleans()) else mono
    coeffs = data.draw(st.dictionaries(monos, _raw_value(field), max_size=6))
    direct = _built(RingElement, ring, coeffs)
    assert direct == _built(CoeffRing.element, ring, coeffs)
    if isinstance(direct, RingElement):
        _canonical(direct)
        assert repr(direct) == repr(ring.element(coeffs))
    else:
        assert direct[1].startswith("bad monomial")


def test_ring_element_reduces_residues_and_drops_heavy_monomials():
    ring = CoeffRing(GF(5), 1, 1)
    assert RingElement(ring, {(1,): 7}) == ring.element({(1,): 2})
    assert repr(RingElement(ring, {(1,): 7})) == "2*x1"
    ring = CoeffRing(QQ, 1, 2)
    assert RingElement(ring, {(3,): 1, (0,): Fraction(2, 4)}) == ring.const(Fraction(1, 2))
    with pytest.raises(DomainError, match="bad monomial"):
        RingElement(CoeffRing(QQ, 1, 2), {(1, 2): 1})


@pytest.mark.parametrize("field", BOUNDARY_FIELDS, ids=repr)
@pytest.mark.parametrize("exponent", [0.5, 1.0, True, False, Fraction(1)], ids=repr)
def test_an_exponent_that_is_not_an_int_is_a_bad_monomial(field, exponent):
    # {(0.5,): 3} once printed as 3*x1, compared unequal to 3*x1 and squared to 9*x1
    ring = CoeffRing(field, 1, 2)
    for make in (RingElement, CoeffRing.element):
        with pytest.raises(DomainError, match="bad monomial"):
            make(ring, {(exponent,): 3})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOUNDARY_FIELDS), st.data())
def test_equality_with_a_scalar_is_equality_with_its_constant(field, data):
    ring = CoeffRing(field, 2, 2)
    x = data.draw(st.one_of(_element(ring), _raw_value(field).map(ring.const)))
    scalars = [data.draw(_raw_value(field)) for _ in range(3)] + [x.constant_term()]
    for c in scalars:
        assert (x == c) == (x == ring.const(c))
        assert (x != c) == (x != ring.const(c))
    if not field.char:
        assert ring.const(Fraction(1, 2)) == Fraction(1, 2)
        assert ring.one() == Fraction(1)


@pytest.mark.parametrize("field", BOUNDARY_FIELDS, ids=repr)
def test_a_bool_is_never_a_ring_element(field):
    one = CoeffRing(field, 1, 2).one()
    assert (one == True) is False  # noqa: E712
    assert (one != True) is True  # noqa: E712
    assert (True == one) is False  # noqa: E712


@pytest.mark.parametrize("field", BOUNDARY_FIELDS, ids=repr)
def test_foreign_scalars_are_no_operands(field):
    ring = CoeffRing(field, 1, 2)
    x = ring.gen(0) + 1
    f = LaurentElement(ring, {-1: x, 0: 1})
    ops = [
        lambda a, b: a + b,
        lambda a, b: b + a,
        lambda a, b: a - b,
        lambda a, b: b - a,
        lambda a, b: a * b,
        lambda a, b: b * a,
    ]
    for value in [True, False] + ([Fraction(1, 2), Fraction(3)] if field.char else []):
        for operand in (x, f):
            for op in ops:
                with pytest.raises(TypeError):
                    op(operand, value)
    # the operands the rule accepts
    for value in [3, -2] + ([] if field.char else [Fraction(1, 2)]):
        c = ring.const(value)
        assert x + value == x + c and value - x == c - x and x * value == x * c
        assert f + value == f + c and value - f == -(f - c) and f * value == f * c


# ----------------------------------------------------------------------
# The multiply-accumulate kernel: sums of products reduced once.
# ----------------------------------------------------------------------

KERNEL_SHAPES = [(2, 3, None), (2, 4, (1, 2)), (3, 3, (1, 2, 3))]


def _operand_of(ring):
    """An element, over Q one over a denominator up to 7 times another,
    so that pairs rarely share one; a constant; or zero."""
    element = _element(ring)
    if not ring.field.char:
        element = st.builds(lambda x, k: x * Fraction(1, k), element, st.integers(1, 7))
    return st.one_of(element, _scalar(ring.field).map(ring.const), st.just(ring.zero()))


def _naive_series_mul(f, g):
    """f * g by a double loop over the terms, products by ``_naive_mul``,
    under the window rule of the laurent module docstring."""
    ring = f.ring
    low_f = min(f.coeffs) if f.coeffs else f.trunc
    low_g = min(g.coeffs) if g.coeffs else g.trunc
    if low_f is None or low_g is None:
        return LaurentElement.zero(ring)
    truncs = [t + low for t, low in ((f.trunc, low_g), (g.trunc, low_f)) if t is not None]
    trunc = min(truncs, default=None)
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            if trunc is None or e < trunc:
                out[e] = _naive_add(out.get(e, ring.zero()), _naive_mul(c1, c2))
    return LaurentElement(ring, out, trunc)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5)]), st.sampled_from(KERNEL_SHAPES), st.data())
def test_sum_of_products_kernel_matches_chained_sums(field, shape, data):
    ring = CoeffRing(field, *shape)
    pairs = data.draw(st.lists(st.tuples(_operand_of(ring), _operand_of(ring)), min_size=2, max_size=5))
    chained = ring.zero()
    for x, y in pairs:
        chained = chained + x * y
    got = _canonical(_sum_products(ring, pairs))
    assert got == chained
    assert repr(got) == repr(chained)

    def series():
        exps = st.integers(-3, 3)
        coeffs = st.dictionaries(exps, _operand_of(ring), max_size=4)
        return st.builds(LaurentElement, st.just(ring), coeffs, st.one_of(st.none(), st.integers(-2, 5)))

    f, g = data.draw(series()), data.draw(series())
    product = f * g
    want = _naive_series_mul(f, g)
    assert product == want
    assert repr(product) == repr(want)
    for c in product.coeffs.values():
        _canonical(c)


# x's rings, some with monomials in three and four variables; targets of
# other shapes: more variables, a lower and a higher bound, weights
SUBSTITUTE_SHAPES = [(2, 4, (1, 2)), (3, 4, None), (4, 4, (1, 1, 1, 2))]
SUBSTITUTE_TARGETS = [(2, 3, None), (3, 4, (1, 1, 2)), (1, 2, None), (2, 5, (2, 1))]


def _image_of(ring):
    """Three times in five an element, over Q one over a denominator up
    to 7 times another, so that the terms of a substitution rarely share
    one; else a constant or zero."""
    element = _element(ring)
    if not ring.field.char:
        element = st.builds(lambda x, k: x * Fraction(1, k), element, st.integers(1, 7))
    others = [_scalar(ring.field).map(ring.const), st.just(ring.zero())]
    return st.sampled_from([element] * 3 + others).flatmap(lambda kind: kind)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.sampled_from(SUBSTITUTE_SHAPES),
    st.sampled_from(SUBSTITUTE_TARGETS),
    st.data(),
)
def test_substitution_kernel_matches_the_ring_map_by_ring_operations(field, shape, target_shape, data):
    """``_substitute`` is sum_m c_m prod_i images[i] ** e_i over the
    monomials of weight <= top, taken by ring operations: images over
    denominators, constant and zero images, tops below x's bound."""
    ring, target = CoeffRing(field, *shape), CoeffRing(field, *target_shape)
    x = data.draw(_element(ring))
    x = x - x.constant_term() + data.draw(_scalar(field))  # the constant term visited last
    if not field.char:
        x = x * Fraction(1, data.draw(st.integers(1, 7)))
    images = [data.draw(_image_of(target)) for _ in range(ring.num_vars)]
    top = data.draw(st.integers(1, ring.degree_bound))
    want = target.zero()
    for mono, c in x.coeffs.items():
        if ring.weight(mono) <= top:
            term = target.const(c)
            for image, e in zip(images, mono):
                term = term * image ** e
            want = want + term
    got = _canonical(_substitute(x, images, target, top))
    assert got == want
    assert repr(got) == repr(want)


# the zero-variable rings the Schur route eliminates in, plain and weighted ones
SUB_PRODUCT_SHAPES = [(0, 0, None), (0, 2, None), (2, 3, None), (2, 4, (1, 2)), (3, 3, (1, 2, 3))]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.sampled_from(SUB_PRODUCT_SHAPES),
    st.sampled_from(["any", "cancel", "near"]),
    st.data(),
)
def test_fused_sub_product_matches_a_minus_b_times_c(field, shape, kind, data):
    """``_sub_product(a, b, c)`` is a - b * c, taken from the naive
    reference, since ring ``-`` and ``*`` run on the kernel under test:
    operands over Q over different denominators, constants and zeros, an
    a equal to b * c so that the result cancels to zero, one that differs
    from it by a little, and operands from equal but distinct ring objects."""
    ring = CoeffRing(field, *shape)
    ra, rb, rc = (CoeffRing(field, *shape) if data.draw(st.booleans()) else ring for _ in range(3))
    b, c = data.draw(_operand_of(rb)), data.draw(_operand_of(rc))
    a = data.draw(_operand_of(ra))
    if kind != "any":
        a = RingElement(ra, (b * c).coeffs) + (a if kind == "near" else 0)
    want = _naive_add(a, _naive_neg(_naive_mul(b, c)))
    got = _canonical(_sub_product(a, b, c))
    assert got == want
    assert repr(got) == repr(want)
    assert got.ring == ra
    if kind == "cancel":
        assert got.is_zero()


def test_fused_sub_product_refuses_elements_of_another_ring():
    """The same refusal, with the same message, as ``a - b * c``."""
    ring, other = CoeffRing(QQ, 1, 2), CoeffRing(QQ, 2, 2)
    one, x, y = ring.one(), ring.gen(0), other.gen(0)
    for a, b, c in ((x, x, y), (x, y, y), (y, x, one)):
        with pytest.raises(RingMismatchError) as want:
            a - b * c
        with pytest.raises(RingMismatchError, match=f"^{re.escape(str(want.value))}$"):
            _sub_product(a, b, c)


def test_sum_of_products_refuses_elements_of_another_ring():
    ring, other = CoeffRing(QQ, 1, 2), CoeffRing(QQ, 2, 2)
    for pair in ((ring.gen(0), other.gen(0)), (other.gen(1), ring.one())):
        with pytest.raises(RingMismatchError, match="^cannot combine elements of"):
            _sum_products(ring, [pair])


def test_tuples_outside_the_ring_read_no_other_coefficient():
    ring = CoeffRing(QQ, 2, 2)
    # every surviving monomial carries its own coefficient, so a lookup that
    # landed on another monomial would show
    x = ring.element({m: i + 1 for i, m in enumerate(ring.monomials())})
    wrong_length = [(1,), (), (1, 0, 0)]
    negative = [(-1, 1), (1, -1), (-1, 2), (-1, 0)]
    # entries equal to ints are not ints: (True, 0) and (1.0, 0) once read x1's
    not_ints = [(True, 0), (1.0, 0), (0, False), (0.4, 0.5), (1, "0")]
    # a value that is not iterable once escaped as an unclassified TypeError
    not_tuples = [5, None]
    heavy = [(3, 0), (2, 1), (0, 3)]
    assert [x.coefficient(m) for m in ring.monomials()] == list(range(1, len(x.coeffs) + 1))
    # the reader and the constructor refuse every tuple that is not a monomial alike
    for mono in wrong_length + negative + not_ints + not_tuples:
        for read in (x.coefficient, lambda m: RingElement(ring, {m: 1})):
            with pytest.raises(DomainError) as info:
                read(mono)
            assert str(info.value) == f"bad monomial {mono!r} for {ring!r}"
    for mono in heavy:
        assert x.coefficient(mono) == 0 and type(x.coefficient(mono)) is Fraction
        assert RingElement(ring, {mono: 1}).is_zero()
        assert RingElement(ring, {mono: 1, (1, 0): 2}) == ring.gen(0) * 2


# plain, weighted (one variable too heavy to survive), zero-variable and bound-0 rings
ROUND_TRIP_SHAPES = [
    (2, 3, None), (2, 4, (1, 2)), (2, 2, (1, 3)), (3, 2, (2, 1, 1)), (0, 2, None), (2, 0, None), (0, 0, None)
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5)]), st.sampled_from(ROUND_TRIP_SHAPES), st.data())
def test_coefficients_read_back_through_the_constructor(field, shape, data):
    ring = CoeffRing(field, *shape)
    a, b = data.draw(_element(ring)), data.draw(_element(ring))
    for x in (a, b, a * b, a - b, (a + 1).inverse() if (a + 1).is_unit() else a):
        coeffs = x.coeffs
        assert RingElement(ring, coeffs) == x
        for m in ring.monomials():
            assert x.coefficient(m) == coeffs.get(m, 0)
