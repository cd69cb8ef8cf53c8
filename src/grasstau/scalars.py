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

Ring products do no per-pair monomial work.  Rings of one shape share a
product table, filled lazily, that maps a pair of monomials to their
product or to ``None`` once it passes the bound; each entry is weighed
once.  The table is keyed on ``(num_vars, degree_bound, weights)`` and not
on the field, because monomial products do not depend on it, so the
fresh coordinate rings that ``tau_direct`` and ``baker`` build on every
call all find it already filled.  A table lives as long as the process
and holds at most one entry per pair of surviving monomials; each entry
depends only on the key, so sharing cannot change a result.
Coefficients are combined with plain ``+`` and ``*``, with one ``% p``
per accumulated coefficient in characteristic p and zeros dropped once
at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, NotInvertibleError, RingMismatchError

Monomial = tuple[int, ...]

# the serialized rationals; Fraction alone would also expand "1e2000000"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class BaseField:
    """The rationals (char == 0) or the prime field F_p (char == p).

    Values are raw: ``Fraction`` for char 0, ints in [0, p) for char p.
    Keeping values unboxed keeps the inner loops cheap; the field object
    is only consulted at operation sites.
    """

    def __init__(self, char: int = 0):
        if char < 0 or char == 1:
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

    # -- raw value arithmetic -------------------------------------------

    def from_int(self, n: int):
        if self.char == 0:
            return Fraction(n)
        return n % self.char

    def coerce(self, value):
        """Accept ints, Fractions (char 0 only), or already-raw values."""
        if isinstance(value, bool):
            raise DomainError("booleans are not field values")
        if isinstance(value, int):
            return self.from_int(value)
        if self.char == 0 and isinstance(value, Fraction):
            return value
        raise DomainError(f"cannot coerce {value!r} into {self!r}")

    def add(self, a, b):
        return (a + b) if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return (a - b) if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return (a * b) if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def invert(self, a):
        if not a:
            raise NotInvertibleError(f"zero is not invertible in {self!r}")
        if self.char == 0:
            return 1 / a
        return pow(a, -1, self.char)

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    # -- parsing / formatting (used by the JSON layer) ------------------

    def parse(self, text: str):
        """Read a scalar from its serialized form: "3/4", "-2", "5"."""
        text = text.strip()
        if self.char == 0:
            if not _RATIONAL.fullmatch(text):
                raise DomainError(f"bad rational literal {text!r}")
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad rational literal {text!r}") from exc
        try:
            return int(text, 10) % self.char
        except ValueError as exc:
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


# (num_vars, degree_bound, weights) -> {m1: {m2: m1 * m2, or None past the bound}}
_PRODUCT_TABLES: dict[tuple, dict[Monomial, dict[Monomial, Monomial | None]]] = {}


class CoeffRing:
    """Truncated polynomial ring: monomials of weighted degree > bound vanish.

    ``weights`` assigns a positive integer weight to each variable; the
    weighted degree of a monomial is sum(w_i * e_i).  The default weight 1
    for every variable gives plain total-degree truncation.
    """

    def __init__(
        self,
        field: BaseField,
        num_vars: int,
        degree_bound: int,
        weights: tuple[int, ...] | None = None,
    ):
        if num_vars < 0:
            raise DomainError("num_vars must be >= 0")
        if degree_bound < 0:
            raise DomainError("degree_bound must be >= 0")
        if weights is None:
            weights = (1,) * num_vars
        else:
            weights = tuple(weights)
            if len(weights) != num_vars:
                raise DomainError("weights length must equal num_vars")
            if any(w < 1 for w in weights):
                raise DomainError("weights must be positive integers")
        self.field = field
        self.num_vars = num_vars
        self.degree_bound = degree_bound
        self.weights = weights
        self._products = _PRODUCT_TABLES.setdefault((num_vars, degree_bound, weights), {})

    def __eq__(self, other: object) -> bool:
        # one product table per (num_vars, degree_bound, weights)
        return (
            isinstance(other, CoeffRing)
            and self._products is other._products
            and self.field.char == other.field.char
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num_vars, self.degree_bound, self.weights))

    def __reduce__(self):
        # rebuilt through __init__, so a copy or an unpickled ring finds the shared table
        return CoeffRing, (self.field, self.num_vars, self.degree_bound, self.weights)

    def __repr__(self) -> str:
        tag = f"{self.field!r}[x1..x{self.num_vars}]"
        if self.weights != (1,) * self.num_vars:
            tag += f" wt{self.weights}"
        return f"{tag} / (deg > {self.degree_bound})"

    # -- monomial helpers ------------------------------------------------

    def weight(self, mono: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def _product_row(self, m1: Monomial) -> dict[Monomial, Monomial | None]:
        """The shared table's row of m1, created empty on first use."""
        row = self._products.get(m1)
        if row is None:
            row = self._products[m1] = {}
        return row

    def _fill_product(self, row: dict, m1: Monomial, m2: Monomial) -> Monomial | None:
        """Weigh m1 * m2 once and record it in m1's row."""
        mono = tuple(a + b for a, b in zip(m1, m2))
        row[m2] = mono = mono if self.weight(mono) <= self.degree_bound else None
        return mono

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

    def monomials_of_weight(self, w: int) -> list[Monomial]:
        return [m for m in self.monomials() if self.weight(m) == w]

    # -- element constructors --------------------------------------------

    def element(self, coeffs: dict) -> "RingElement":
        """Build an element from {monomial tuple: coefficient}."""
        clean: dict[Monomial, object] = {}
        for mono, c in coeffs.items():
            mono = tuple(mono)
            if len(mono) != self.num_vars or any(e < 0 for e in mono):
                raise DomainError(f"bad monomial {mono} for {self!r}")
            if self.weight(mono) > self.degree_bound:
                continue
            c = self.field.coerce(c)
            if c:
                clean[mono] = c
        return RingElement(self, clean)

    def const(self, value) -> "RingElement":
        c = self.field.coerce(value)
        mono = (0,) * self.num_vars
        return RingElement(self, {mono: c} if c else {})

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.const(1)

    def gen(self, i: int) -> "RingElement":
        """The variable x_{i+1} (0-based index)."""
        if not 0 <= i < self.num_vars:
            raise DomainError(f"no generator {i} in {self!r}")
        mono = tuple(1 if j == i else 0 for j in range(self.num_vars))
        if self.weight(mono) > self.degree_bound:
            return self.zero()
        return RingElement(self, {mono: self.field.one()})


def power(one, base, n: int):
    """base**n by square-and-multiply, for any multiplication with unit ``one``."""
    if not isinstance(n, int) or n < 0:
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
    """A sparse element of a ``CoeffRing``.

    Invariants: no stored zero coefficients and no monomials past the
    degree bound.  Instances are treated as immutable.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    # -- inspection -------------------------------------------------------

    def coefficient(self, mono: Monomial):
        return self.coeffs.get(tuple(mono), self.ring.field.zero())

    def constant_term(self):
        return self.coeffs.get((0,) * self.ring.num_vars, self.ring.field.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        zero_mono = (0,) * self.ring.num_vars
        return all(m == zero_mono for m in self.coeffs)

    def is_unit(self) -> bool:
        return bool(self.constant_term())

    def is_nilpotent(self) -> bool:
        return not self.constant_term()

    def terms(self) -> Iterator[tuple[Monomial, object]]:
        return iter(sorted(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.coeffs:
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

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine elements of {self.ring!r} and {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _reduced(self, coeffs: dict) -> "RingElement":
        """An element of this ring from plainly accumulated coefficients:
        each reduced once mod p in characteristic p, zeros dropped."""
        p = self.ring.field.char
        if p:
            return RingElement(self.ring, {m: r for m, c in coeffs.items() if (r := c % p)})
        return RingElement(self.ring, {m: c for m, c in coeffs.items() if c})

    def __add__(self, other) -> "RingElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            prev = out.get(mono)
            out[mono] = c if prev is None else prev + c
        return self._reduced(out)

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        return self._reduced({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "RingElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            prev = out.get(mono)
            out[mono] = -c if prev is None else prev - c
        return self._reduced(out)

    def __rsub__(self, other) -> "RingElement":
        return (-self) + other

    def __mul__(self, other) -> "RingElement":
        if isinstance(other, (int, Fraction)):
            try:
                c = self.ring.field.coerce(other)
            except DomainError:
                return NotImplemented
            return self._reduced({m: a * c for m, a in self.coeffs.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        right = other.coeffs.items()
        out: dict[Monomial, object] = {}
        for m1, c1 in self.coeffs.items():
            row = ring._product_row(m1)
            for m2, c2 in right:
                try:
                    mono = row[m2]
                except KeyError:
                    mono = ring._fill_product(row, m1, m2)
                if mono is not None:
                    prev = out.get(mono)
                    out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return self._reduced(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElement":
        return power(self.ring.one(), self, n)

    def inverse(self) -> "RingElement":
        """Inverse in the truncated ring, filled in order of weight level.

        Write f = c + sum_{A != 0} p_A x^A.  The inverse y has y_0 = c^{-1}
        and y_M = -c^{-1} sum_{A != 0} p_A y_{M-A}, read off the x^M
        coefficient of f y = 1.  Every nonzero monomial has weight >= 1
        (weights are positive), so each y_{M-A} on the right sits at a
        lower weight level than M: visiting levels in increasing order, a
        finished y_B pushes y_B * (-c^{-1} p_A) into the bucket of B * A,
        which is final, and so equal to y_{B*A}, by the time its own level
        is visited.  That is about one product's work.
        """
        ring = self.ring
        c = self.constant_term()
        if not c:
            raise NotInvertibleError("element has zero constant term")
        p = ring.field.char
        cinv = ring.field.invert(c)
        one = (0,) * ring.num_vars
        rest = sorted(
            ((ring.weight(a), a, -cinv * pa) for a, pa in self.coeffs.items() if a != one),
            key=lambda t: t[0],
        )
        bound = ring.degree_bound
        levels: list[dict] = [{} for _ in range(bound + 1)]
        levels[0][one] = cinv
        out = {}
        for level, bucket in enumerate(levels):
            for mono, y in bucket.items():
                if p:
                    y %= p
                if not y:
                    continue
                out[mono] = y
                row = ring._product_row(mono)
                for wa, a, q in rest:
                    if level + wa > bound:
                        break
                    try:
                        prod = row[a]
                    except KeyError:
                        prod = ring._fill_product(row, mono, a)
                    if prod is not None:
                        target = levels[level + wa]
                        prev = target.get(prod)
                        target[prod] = q * y if prev is None else prev + q * y
        return RingElement(ring, out)
