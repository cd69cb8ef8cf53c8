"""Exact scalars and truncated polynomial coefficient rings.

Two layers live here.  ``BaseField`` wraps exact field arithmetic for the
rationals (``fractions.Fraction``) or a prime field (ints reduced mod p).
``CoeffRing`` is the truncated polynomial ring k[x_1..x_m] in which every
monomial whose weighted total degree exceeds the bound is identically
zero.  Weights default to 1 for every variable; rings used for tau/Schur
coordinates assign weight i to x_i so that truncation matches the grading
by partition size.

Truncation makes the ring local: an element is a unit exactly when its
constant term is nonzero, and every non-unit is nilpotent.  That is what
keeps all the series manipulations downstream finite and exact.

An element keys its coefficients by one int per monomial, chosen so that
the product of two monomials is the sum of their keys.  With K the
degree bound, n the number of variables and M = (K+1)^n, the key of m is
w(m)·M + sum_i e_i (K+1)^i.  Weights are at least 1, so a surviving
monomial (w <= K) has every e_i <= K: its code part is below M, and the
key determines the monomial.  For two surviving monomials with
w_1 + w_2 <= K no digit carries, so key_1 + key_2 = key(m_1 m_2), which
is below L = (K+1)·M; if w_1 + w_2 > K the sum is at least L.  So a
product survives exactly when the key sum is below L, and that sum is
its key; the constant monomial has key 0, and w(m) = key // M.  Ring
products therefore do no per-pair monomial work and need no table.
Monomial tuples appear only at the public face: the constructor and
``coefficient`` encode them through one reader, ``CoeffRing._key``, and
``coeffs`` (so ``repr``) decodes keys.

Each kind of value is reduced in one place.  A raw field value, a
``Fraction`` over Q or an int residue, is combined with Python's
operators and reduced once, by ``BaseField.coerce``.  An element stores
integer numerators over one positive common denominator, which is 1 in
characteristic p.  Ring arithmetic and the constructor run on those ints
alone and bring each result to its canonical form once, by ``_reduced``:
a ``% p`` per coefficient in characteristic p, one gcd over the result
over Q.  ``_element`` builds an element from parts already canonical.
``Fraction`` values appear only when ``coeffs``, ``coefficient`` or
``constant_term`` is read, or a raw value over Q is reduced.

Every sum, product and sum of products runs one multiply-accumulate
kernel, ``_accumulate``, the loop over monomial pairs.
``RingElement.__mul__`` is one product, ``_sum_products`` a sum of
x * y, ``_sub_product`` the a - b * c of an elimination step and of ring
``+`` and ``-`` (c = -1 or 1), ``_series_product`` the coefficients of a
product of series, one sum per exponent, and ``_substitute`` a ring
map, a sum of products of powers.  The integer products accumulate over
one common denominator, the lcm of the pair denominators (1 in
characteristic p), and each sum is reduced once.
The canonical form is unique (see ``RingElement``), so the result is
``==`` to, and prints as, the chained ``acc + x * y`` that reduces after
every step.

Which Python values stand for ring elements is decided here alone:
``BaseField.coerce`` reads the values of the one constructor,
``RingElement(ring, coeffs)`` (through ``BaseField._ratio``, its int
ratio), and ``_operand`` the other operand of ring elements and series
alike (see ``RingElement``).  Other modules read the storage only
through private readers here: ``_integer_vector`` (a point's residues
as ints), ``_recast`` (a constant moved to another ring),
``_lowest_weight``, and the two of the JSON layer, ``_from_ratios`` (an
element from (monomial, n, d) int terms, as ``BaseField._parse_ratio``
reads a literal) and ``_ratios`` (an element's terms as (monomial, n,
d), each in lowest terms).

``fractions`` is imported here alone, on first use, by ``_fraction``.
Each CLI call is a fresh process, and that module, with the ``decimal``
it imports, takes about as long to import as the rest of the package
(``python -X importtime``, Python 3.11).  Elements
store ints, and the JSON layer reads and writes int ratios, so a call
loads it only when it reads a Fraction-valued coefficient or field
value (``coeffs``, ``coefficient``, ``constant_term``, ``parse`` or
``coerce`` over Q).  ``_is_fraction`` is ``isinstance(value, Fraction)``
without the import: no value is a Fraction before the module is loaded.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm
from typing import Iterator

from .errors import DomainError, NotInvertibleError, RingMismatchError, _an_int, _at_least

Monomial = tuple[int, ...]

# the serialized scalars, ASCII digits only; Fraction alone would also
# expand "1e2000000", and int alone reads "1_000" and full-width digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _fraction():
    """The class ``fractions.Fraction``, imported on first use (module
    docstring)."""
    from fractions import Fraction

    return Fraction


def _is_fraction(value) -> bool:
    """``isinstance(value, Fraction)``, without importing ``fractions``: no
    value is a Fraction before that module is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


class BaseField:
    """The rationals (char == 0) or the prime field F_p (char == p).

    Values are raw: ``Fraction`` for char 0, ints in [0, p) for char p.
    They combine with Python's ``+``, ``-`` and ``*``, and ``coerce``
    reduces a result once; the field has no arithmetic of its own.  Its
    object is consulted only to reduce, invert, parse and format.
    """

    def __init__(self, char: int = 0):
        if _an_int(char, "field characteristic") < 0 or char == 1:
            raise DomainError(f"invalid field characteristic {char}")
        if char >= 2**64:  # where _is_prime stops being exact
            raise DomainError(f"field characteristic {char} is not below 2^64")
        if char > 1 and not _is_prime(char):
            raise DomainError(f"field characteristic {char} is not prime")
        self.char = char

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseField) and self.char == other.char

    def __hash__(self) -> int:
        return hash(("BaseField", self.char))

    def __repr__(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"

    # -- raw values: combined by Python's operators, reduced by coerce ------

    def coerce(self, value):
        """The field value of ``value``, the one reduction of a raw value:
        an int is read mod p in characteristic p, or as a Fraction over Q;
        a Fraction over Q passes; a bool or anything else is a
        ``DomainError``.  So a sum or product of field values taken with
        Python's operators is reduced by one call."""
        if isinstance(value, bool):
            raise DomainError("booleans are not field values")
        if isinstance(value, int):
            return value % self.char if self.char else _fraction()(value)
        if self.char == 0 and _is_fraction(value):
            return value
        raise DomainError(f"cannot coerce {value!r} into {self!r}")

    def _ratio(self, value) -> tuple[int, int]:
        """``coerce(value)`` as (numerator, positive denominator) in lowest
        terms, refused alike; an int is read without a Fraction."""
        if isinstance(value, int) and not isinstance(value, bool):
            return (value % self.char if self.char else value), 1
        return self.coerce(value).as_integer_ratio()

    def invert(self, a):
        if not a:
            raise NotInvertibleError(f"zero is not invertible in {self!r}")
        if self.char == 0:
            return 1 / a if _is_fraction(a) else _fraction()(1, a)
        return pow(a, -1, self.char)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    # -- parsing / formatting (used by the JSON layer) ------------------

    def parse(self, text: str):
        """Read a scalar from its serialized form: "3/4", "-2", "5"."""
        n, d = self._parse_ratio(text)
        return _fraction()(n, d) if self.char == 0 else n

    def _parse_ratio(self, text: str) -> tuple[int, int]:
        """The serialized scalar ``text`` as ints (n, d), d > 0, not
        reduced; (a residue in [0, p), 1) in characteristic p.  Each part
        is read by ``int``, as ``Fraction`` reads them, so a part past
        sys.get_int_max_str_digits() digits is refused too."""
        text = text.strip()
        if self.char == 0:
            if not _RATIONAL.fullmatch(text):
                raise DomainError(f"bad rational literal {text!r}")
            num, _, den = text.partition("/")
            try:
                n, d = int(num, 10), int(den or "1", 10)
            except ValueError as exc:  # too many digits
                raise DomainError(f"bad rational literal {text!r}") from exc
            if not d:
                raise DomainError(f"bad rational literal {text!r}")
            return n, d
        if not _INTEGER.fullmatch(text):
            raise DomainError(f"bad residue literal {text!r}")
        try:
            return int(text, 10) % self.char, 1
        except ValueError as exc:  # past sys.get_int_max_str_digits() digits
            raise DomainError(f"bad residue literal {text!r}") from exc

    def format(self, value) -> str:
        return str(value)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin: n = 2^s d + 1 with d odd is composite if some base a
    has a^d != 1 and a^(2^r d) != -1 mod n for every r < s.  The first
    twelve prime bases leave no composite below 3.18 * 10^23 undetected
    (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


QQ = BaseField(0)


def GF(p: int) -> BaseField:
    return BaseField(p)


class CoeffRing:
    """Truncated polynomial ring: monomials of weighted degree > bound vanish.

    ``weights`` assigns a positive int weight to each variable (a float or
    bool is refused); the weighted degree of a monomial is sum(w_i * e_i).
    The default weight 1 for every variable gives total-degree truncation.
    """

    def __init__(
        self,
        field: BaseField,
        num_vars: int,
        degree_bound: int,
        weights: tuple[int, ...] | None = None,
    ):
        _at_least(num_vars, 0, "num_vars")
        _at_least(degree_bound, 0, "degree_bound")
        if weights is None:
            weights = (1,) * num_vars
        else:
            weights = tuple(weights)
            if len(weights) != num_vars:
                raise DomainError("weights length must equal num_vars")
            if any(type(w) is not int or w < 1 for w in weights):
                raise DomainError("weights must be positive integers")
        self.field = field
        self.num_vars = num_vars
        self.degree_bound = degree_bound
        self.weights = weights
        # monomial keys (module docstring): digit i of the code part has place
        # value (K+1)^i, a unit of weight is M = (K+1)^n, and L = (K+1)·M
        base = degree_bound + 1
        self._places = tuple(base**i for i in range(num_vars))
        self._step = base**num_vars
        self._limit = base * self._step
        # the keys of 1, x_1, ..., x_n, for the generators within the bound
        self._linear_keys = (0,) + tuple(w * self._step + pl for w, pl in zip(weights, self._places))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, CoeffRing)
            and self.field.char == other.field.char
            and self.num_vars == other.num_vars
            and self.degree_bound == other.degree_bound
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num_vars, self.degree_bound, self.weights))

    def __repr__(self) -> str:
        tag = f"{self.field!r}[x1..x{self.num_vars}]"
        if self.weights != (1,) * self.num_vars:
            tag += f" wt{self.weights}"
        return f"{tag} / (deg > {self.degree_bound})"

    # -- monomial helpers ------------------------------------------------

    def weight(self, mono: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def _key(self, mono) -> int | None:
        """The one reader of a monomial: the key of ``mono``, or None past
        the bound; DomainError unless it is num_vars ints >= 0 (a bool
        or a float is not an int, and 5 or None is no monomial)."""
        try:
            mono = tuple(mono)
        except TypeError:  # not iterable: refused below, as it stands
            pass
        if (
            type(mono) is not tuple
            or len(mono) != self.num_vars
            or any(type(e) is not int or e < 0 for e in mono)
        ):
            raise DomainError(f"bad monomial {mono} for {self!r}")
        w = code = 0
        for e, wi, place in zip(mono, self.weights, self._places):
            w += wi * e
            code += e * place
        return w * self._step + code if w <= self.degree_bound else None

    def _monomial(self, key: int) -> Monomial:
        """The monomial tuple of a key."""
        code, base = key % self._step, self.degree_bound + 1
        return tuple(code // place % base for place in self._places)

    def monomials(self) -> Iterator[Monomial]:
        """All surviving monomials, constant first, in a deterministic order."""

        def rec(i: int, budget: int, prefix: list[int]) -> Iterator[Monomial]:
            if i == self.num_vars:
                yield tuple(prefix)
                return
            w = self.weights[i]
            for e in range(budget // w + 1):
                prefix.append(e)
                yield from rec(i + 1, budget - w * e, prefix)
                prefix.pop()

        yield from rec(0, self.degree_bound, [])

    # -- element constructors --------------------------------------------

    def element(self, coeffs: dict) -> "RingElement":
        """Build an element from {monomial tuple: coefficient}; the same as
        ``RingElement(self, coeffs)``."""
        return RingElement(self, coeffs)

    def const(self, value) -> "RingElement":
        n, d = self.field._ratio(value)
        return _element(self, {0: n} if n else {}, d)

    def zero(self) -> "RingElement":
        return _element(self, {}, 1)

    def one(self) -> "RingElement":
        return _element(self, {0: 1}, 1)

    def gen(self, i: int) -> "RingElement":
        """The variable x_{i+1} (0-based index)."""
        if not 0 <= _an_int(i, "generator index") < self.num_vars:
            raise DomainError(f"no generator {i} in {self!r}")
        key = self._key(tuple(1 if j == i else 0 for j in range(self.num_vars)))
        return self.zero() if key is None else _element(self, {key: 1}, 1)


def power(one, base, n: int):
    """base**n by square-and-multiply, for any multiplication with unit ``one``."""
    if type(n) is not int or n < 0:
        raise DomainError("only nonnegative integer powers are supported")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class RingElement:
    """A sparse element of a ``CoeffRing``, stored as integer numerators
    over one common denominator.

    ``_num`` maps the keys of monomials within the degree bound (module
    docstring) to nonzero ints and ``_den`` is a positive int; the element
    is sum_m _num[key(m)] x^m / _den.
    The form is canonical: in characteristic p the denominator is 1 and
    every numerator lies in [1, p); over Q the gcd of the denominator and
    all numerators is 1.  Over Q it is unique too: if N/D = N'/D', both
    canonical, then D'·N = D·N', so D divides D'·gcd(N); D is prime to
    gcd(N), so D divides D', and by symmetry D = D' and N = N'.  So
    ``==`` compares ring, denominator and numerators directly.

    ``RingElement(ring, coeffs)`` is the one constructor, and
    ``ring.element(coeffs)`` calls it.  It reads each monomial with
    ``CoeffRing._key``, as ``coefficient`` does, which refuses a monomial
    of the wrong length or with an exponent that is not an int (a bool or
    a float included) or is negative.  It reads each value with
    ``BaseField.coerce``, an int or a Fraction over Q, never a bool, and
    then drops the monomials past the bound.  The values, over the lcm of
    their denominators, go through ``_reduced`` like every other result;
    elements whose parts are already canonical are built by ``_element``.

    ``+``, ``-``, ``*`` and ``==`` take an element of an equal ring, an
    int, or a Fraction over Q (``_operand``); anything else, a bool
    included, gives ``TypeError``, or False for ``==``.

    Instances are treated as immutable.
    """

    __slots__ = ("ring", "_num", "_den")

    def __init__(self, ring: CoeffRing, coeffs: dict):
        values = {ring._key(mono): ring.field._ratio(c) for mono, c in coeffs.items()}
        values.pop(None, None)  # the monomials past the bound
        den = lcm(*[d for _, d in values.values()])
        x = _reduced(ring, {m: n * (den // d) for m, (n, d) in values.items()}, den)
        self.ring, self._num, self._den = ring, x._num, x._den

    # -- inspection -------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """{monomial: field value}: Fractions in lowest terms over Q,
        residues in [1, p) in characteristic p.  A fresh dict on every read."""
        mono, value = self.ring._monomial, self._value
        return {mono(k): value(n) for k, n in self._num.items()}

    def _value(self, n: int):
        return n if self.ring.field.char else _fraction()(n, self._den)

    def coefficient(self, mono: Monomial):
        """The coefficient of a monomial of the ring (``CoeffRing._key``),
        0 past the bound."""
        key = self.ring._key(mono)
        return self._value(0 if key is None else self._num.get(key, 0))

    def constant_term(self):
        return self._value(self._num.get(0, 0))

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return self._num.keys() <= {0}

    def is_unit(self) -> bool:
        return 0 in self._num

    def is_nilpotent(self) -> bool:
        return 0 not in self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):  # across rings it is False, not refused
            other = _operand(self.ring, other)
            if other is NotImplemented:
                return NotImplemented
        return self.ring == other.ring and self._den == other._den and self._num == other._num

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        bits = []
        for mono, c in sorted(self.coeffs.items(), key=lambda t: (self.ring.weight(t[0]), t[0])):
            vars_part = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            if vars_part:
                bits.append(f"{c}*{vars_part}" if c != 1 else vars_part)
            else:
                bits.append(str(c))
        return " + ".join(bits)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RingElement":
        other = _operand(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.field.char
        return _sub_product(self, other, _element(self.ring, {0: p - 1 if p else -1}, 1))

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        # negation keeps the form canonical: p - c stays in [1, p), and
        # -N over D has the gcd N over D has
        p = self.ring.field.char
        num = {m: p - c for m, c in self._num.items()} if p else {m: -c for m, c in self._num.items()}
        return _element(self.ring, num, self._den)

    def __sub__(self, other) -> "RingElement":
        other = _operand(self.ring, other)
        return NotImplemented if other is NotImplemented else _sub_product(self, other, self.ring.one())

    def __rsub__(self, other) -> "RingElement":
        other = _operand(self.ring, other)
        return NotImplemented if other is NotImplemented else _sub_product(other, self, self.ring.one())

    def __mul__(self, other) -> "RingElement":
        other = _operand(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        return _reduced(ring, _accumulate(ring, {}, self._num, other._num, 1), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        return power(self.ring.one(), self, n)

    def inverse(self) -> "RingElement":
        """Inverse in the truncated ring, on integers, filled in order of
        weight level.

        Write the element as g / D with g = c + sum_{A != 0} N_A x^A the
        integer numerators and c != 0.  Then g^{-1} = sum_M Y_M x^M /
        c^{w(M)+1} with integers Y_0 = 1 and
        Y_M = -sum_{A != 0} N_A c^{w(A)-1} Y_{M-A}, read off the x^M
        coefficient of g g^{-1} = 1 after multiplying it by c^{w(M)}.
        Every nonzero monomial has weight >= 1 (weights are positive), so
        each Y_{M-A} on the right sits at a lower weight level than M:
        visiting levels in increasing order, a finished Y_B pushes
        Y_B * (-N_A c^{w(A)-1}) into the bucket of B * A, which is final,
        and so equal to Y_{B*A}, by the time its own level is visited.
        The pairs visited have w(B) + w(A) within the bound, so the key of
        B * A is key B + key A (module docstring).
        That is about one product's work.  Over the common denominator
        c^{K+1}, K the degree bound, the inverse D g^{-1} has numerators
        D Y_B c^{K-w(B)}; the reducer makes the denominator positive, or
        divides by it mod p.  In characteristic p every Y is kept mod p.
        """
        ring = self.ring
        c = self._num.get(0)
        if c is None:
            raise NotInvertibleError("element has zero constant term")
        p = ring.field.char
        step = ring._step
        rest = sorted((a // step, a, -n * c ** (a // step - 1)) for a, n in self._num.items() if a)
        bound = ring.degree_bound
        scale = [self._den * c**k for k in range(bound, -1, -1)]  # D c^(K - level)
        levels: list[dict] = [{} for _ in range(bound + 1)]
        levels[0][0] = 1
        out = {}
        for level, bucket in enumerate(levels):
            for mono, y in bucket.items():
                if p:
                    y %= p
                if not y:
                    continue
                out[mono] = y * scale[level]
                for wa, a, q in rest:
                    if level + wa > bound:
                        break
                    target = levels[level + wa]
                    prod = mono + a
                    prev = target.get(prod)
                    target[prod] = q * y if prev is None else prev + q * y
        return _reduced(ring, out, c ** (bound + 1))


def _operand(ring: CoeffRing, other) -> RingElement:
    """``other`` as an element of ``ring``, or NotImplemented: the one rule
    for which values mix with ring elements and series.  An element of an
    equal ring passes and one of another ring is refused; an int, or a
    Fraction over Q, becomes a constant.  A bool never does, nor does a
    Fraction in characteristic p, so Python raises ``TypeError`` for them."""
    if isinstance(other, RingElement):
        if other.ring is not ring and other.ring != ring:
            raise RingMismatchError(f"cannot combine elements of {ring!r} and {other.ring!r}")
        return other
    if isinstance(other, bool) or not (isinstance(other, int) or not ring.field.char and _is_fraction(other)):
        return NotImplemented  # type: ignore[return-value]
    return ring.const(other)


def _accumulate(ring: CoeffRing, out: dict, left: dict, right: dict, scale: int) -> dict:
    """Add scale * left * right into ``out``, all three {key: int}
    numerator dicts, and return ``out``: the one loop over monomial pairs.
    It walks ``right`` in increasing key order, so the first key sum at or
    past the ring's limit ends the row: every later product is past the
    bound too.  A lone constant on either side, a scalar operand say,
    scales the other side's numerators instead."""
    if len(left) == 1 and 0 in left:
        left, right = right, left
    if len(right) == 1 and 0 in right:
        (a,) = right.values()
        a *= scale
        for mono, c in left.items():
            prev = out.get(mono)
            out[mono] = c * a if prev is None else prev + c * a
        return out
    limit = ring._limit
    right = sorted(right.items())
    for m1, c1 in left.items():
        c1 *= scale
        for m2, c2 in right:
            mono = m1 + m2
            if mono >= limit:
                break
            prev = out.get(mono)
            out[mono] = c1 * c2 if prev is None else prev + c1 * c2
    return out


def _onto_lcm(out: dict, den: int, d: int) -> int:
    """The lcm of den and d, with the numerators ``out``, a sum over den,
    scaled in place to stand over it: the common-denominator step of
    ``_sum_products`` and ``_substitute``, taken when d does not divide den."""
    grown = lcm(den, d)
    s = grown // den
    for m in out:
        out[m] *= s
    return grown


def _sum_products(ring: CoeffRing, pairs) -> RingElement:
    """The sum of x * y over the (x, y) in ``pairs``, elements of rings
    equal to ``ring``, brought to canonical form once.

    The numerator products accumulate over one common denominator D, the
    lcm of the pair denominators seen so far (1 in characteristic p), each
    pair's products scaled by D over its own; when a pair grows D, the
    partial sum is scaled up to the new D first.  The sum is then exactly
    the value the chained ``acc + x * y`` reaches, and canonical forms are
    unique, so the two results are ``==`` and print alike."""
    out: dict[int, int] = {}
    den = 1
    for x, y in pairs:
        if not (x._num and y._num):
            continue
        if x.ring is not ring and x.ring != ring or y.ring is not ring and y.ring != ring:
            raise RingMismatchError(f"cannot combine elements of {x.ring!r} and {y.ring!r}")
        d = x._den * y._den
        if den % d:
            den = _onto_lcm(out, den, d)
        _accumulate(ring, out, x._num, y._num, den // d)
    return _reduced(ring, out, den)


def _sub_product(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """a - b * c, elements of equal rings, as an element of a's ring,
    brought to canonical form once: a's numerators over the lcm of a's
    denominator and the product's, and one ``_accumulate`` of -b * c into
    them.  The value is that of ``a - b * c``, so the two are ``==`` and
    print alike, and refuse unequal rings with the same message.  Ring
    ``+`` and ``-`` are this call with c = -1 and c = 1: a constant c
    makes the accumulate one scaled pass over b."""
    ring = a.ring
    if c.ring is not b.ring and c.ring != b.ring:
        raise RingMismatchError(f"cannot combine elements of {b.ring!r} and {c.ring!r}")
    if b.ring is not ring and b.ring != ring:
        raise RingMismatchError(f"cannot combine elements of {ring!r} and {b.ring!r}")
    d1, d2 = a._den, b._den * c._den
    g = gcd(d1, d2)
    s = d2 // g
    out = dict(a._num) if s == 1 else {m: v * s for m, v in a._num.items()}
    return _reduced(ring, _accumulate(ring, out, b._num, c._num, -(d1 // g)), d1 // g * d2)


def _series_product(ring: CoeffRing, left: dict, right: dict, below: int | None) -> dict:
    """The coefficients {e1 + e2: sum left[e1] * right[e2]} of a product
    of two series, each given as {exponent: element of a ring equal to
    ``ring``}, at the exponents below ``below`` (all when None): the
    pairs grouped by exponent, one ``_sum_products`` per exponent; zero
    sums are kept."""
    pairs: dict[int, list] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = e1 + e2
            if below is None or e < below:
                pairs.setdefault(e, []).append((c1, c2))
    return {e: _sum_products(ring, ps) for e, ps in pairs.items()}


def _element(ring: CoeffRing, num: dict, den: int) -> RingElement:
    """The element num / den of ring, already in canonical form."""
    e = object.__new__(RingElement)
    e.ring, e._num, e._den = ring, num, den
    return e


def _linear_form(ring: CoeffRing, coeffs: dict, den: int) -> RingElement:
    """The element sum_k coeffs[k] x_k / den of ring, x_0 = 1 and x_k the
    k-th generator, from ints: each x_k within the degree bound and den
    positive.  One ``_reduced`` call brings it to canonical form."""
    keys = ring._linear_keys
    return _reduced(ring, {keys[k]: c for k, c in coeffs.items()}, den)


def _integer_vector(values: dict, below: int) -> dict[int, int]:
    """The residues of ``values``, {index: element}, at indices below
    ``below``: the nonzero constant terms, nilpotent parts unread, times
    one positive int, the lcm of the elements' canonical denominators (1
    in characteristic p).  A nonzero multiple of a vector spans the same
    line, which is all a field elimination reads."""
    kept = [(i, a, x._den) for i, x in values.items() if i < below and (a := x._num.get(0))]
    den = lcm(*[d for _, _, d in kept])
    return {i: a * (den // d) for i, a, d in kept}


def _from_ratios(ring: CoeffRing, terms) -> RingElement:
    """The element sum n/d x^m of ring over the (m, n, d) in ``terms``, n
    and d ints with d > 0 (and prime to p in characteristic p), a repeated
    monomial adding up: the constructor's values as int ratios.  Each
    monomial is read by ``CoeffRing._key``, in order, before any sum, and
    the monomials past the bound are dropped; one ``_reduced`` call brings
    the sum to canonical form."""
    keyed = [(ring._key(m), n, d) for m, n, d in terms]
    den = lcm(*[d for key, _, d in keyed if key is not None])
    num: dict[int, int] = {}
    for key, n, d in keyed:
        if key is not None:
            num[key] = num.get(key, 0) + n * (den // d)
    return _reduced(ring, num, den)


def _ratios(x: RingElement) -> list[tuple[Monomial, int, int]]:
    """(m, n, d) for each term of x in increasing monomial order, n/d its
    coefficient in lowest terms with d > 0 (so d = 1 in characteristic
    p): ``coeffs``, sorted, as int ratios."""
    mono, den = x.ring._monomial, x._den
    out = []
    for key, n in x._num.items():
        g = gcd(n, den)
        out.append((mono(key), n // g, den // g))
    out.sort()
    return out


def _recast(x: RingElement, ring: CoeffRing) -> RingElement:
    """The constant x as an element of ``ring``, a ring over the same
    field: a constant's canonical numerator and denominator do not
    depend on the ring, and the constant monomial has key 0 in every
    ring."""
    return _element(ring, x._num, x._den)


def _lowest_weight(x: RingElement) -> int:
    """The lowest weight of a monomial of the nonzero element x: the
    weight of its smallest key (module docstring)."""
    return min(x._num) // x.ring._step


def _split_last(x: RingElement, target: CoeffRing) -> dict[int, RingElement]:
    """The nonzero parts x_k, k >= 1, of x = x_0 + sum_k x_k u^k, u the last
    variable of x's ring, each an element of ``target``: the ring of the
    other variables, with their weights, and a degree bound at least x's
    bound less u's weight.  Worked on the keys, x_0 unread: each key is
    split into u's digit and the others, which are re-encoded for
    ``target``, and each part is reduced once."""
    ring = x.ring
    base, step, top = ring.degree_bound + 1, ring._step, ring._places[-1]
    wu = ring.weights[-1]
    parts: dict[int, dict] = {}
    for key, c in x._num.items():
        weight, code = divmod(key, step)
        k, rest = divmod(code, top)
        if not k:
            continue
        new = (weight - wu * k) * target._step
        for place in target._places:
            rest, e = divmod(rest, base)
            new += e * place
        parts.setdefault(k, {})[new] = c
    return {k: _reduced(target, num, x._den) for k, num in parts.items()}


def _reduced(ring: CoeffRing, num: dict, den: int) -> RingElement:
    """The element sum num[m] x^m / den of ring, for any ints and a
    nonzero den, brought to canonical form: in characteristic p one
    ``% p`` per coefficient (after dividing by den mod p), over Q one gcd
    over the result, taken with den's sign; zeros dropped either way."""
    p = ring.field.char
    if p:
        if den != 1:
            k = pow(den, -1, p)
            num = {m: c * k for m, c in num.items()}
        return _element(ring, {m: r for m, c in num.items() if (r := c % p)}, 1)
    num = {m: c for m, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            num = {m: c // g for m, c in num.items()}
    return _element(ring, num, den)


def _powers(ring: CoeffRing, num: dict, top: int) -> list[dict]:
    """[num, num^2, ..., num^top] for the numerators ``num`` of an element
    of ``ring``, each power one ``_accumulate`` on the one before;
    unreduced, so over the denominator raised to the same power."""
    out = [num]
    for _ in range(top - 1):
        out.append(_accumulate(ring, {}, out[-1], num, 1))
    return out


def _substitute(x: RingElement, images: list, target: CoeffRing, top: int) -> RingElement:
    """x at x_i -> images[i - 1], elements of rings equal to ``target``,
    summed over the monomials of x of weight <= ``top`` and brought to
    canonical form once; images[i - 1] is read only where such a monomial
    has x_i.

    It works on numerators.  Each variable's powers are taken once, up to
    the largest exponent a visited monomial gives it (``_powers``).  The
    term of c x^m, with m = (e_1, ..., e_n), has the denominator
    D_m = prod_i den_i^(e_i), den_i that of images[i - 1].  The terms
    accumulate over the lcm of the D_m seen so far (``_onto_lcm``, as in
    ``_sum_products``), and the sum over x's own denominator is reduced
    once.  So the result is the canonical form of
    sum_m c_m prod_i images[i - 1]^(e_i), and is ``==`` to, and prints as,
    that sum taken by ring operations."""
    ring = x.ring
    terms, need = [], [0] * ring.num_vars
    for key, c in x._num.items():
        if key // ring._step > top:
            continue
        exps = [(i, e) for i, e in enumerate(ring._monomial(key)) if e]
        for i, e in exps:
            need[i] = max(need[i], e)
        terms.append((c, exps))
    powers = {i: _powers(target, images[i]._num, e) for i, e in enumerate(need) if e}
    out: dict[int, int] = {}
    den = 1
    for c, exps in terms:
        d = 1
        for i, e in exps:
            d *= images[i]._den ** e
        if den % d:
            den = _onto_lcm(out, den, d)
        scale = c * (den // d)
        if not exps:
            out[0] = out.get(0, 0) + scale
            continue
        factors = [powers[i][e - 1] for i, e in exps]
        part = factors[0]
        for f in factors[1:-1]:
            part = _accumulate(target, {}, part, f, 1)
        _accumulate(target, out, part, factors[-1] if len(factors) > 1 else {0: 1}, scale)
    return _reduced(target, out, den * x._den)
