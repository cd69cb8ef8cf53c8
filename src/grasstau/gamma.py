"""The group of invertible series and its triple factorization.

Every invertible Laurent series over the local coefficient ring splits
uniquely as

    f  =  gminus * unit * gplus * z^n

with gminus = 1 + (nilpotent coefficients at negative exponents), unit
an invertible ring constant, gplus = 1 + (terms at positive exponents),
and n the reduced valuation.  ``GammaElement`` stores the four parts;
``factorize`` computes them.

The factorization solves the Wiener-Hopf condition directly: with
h = z^{-n} f, the inverse Q = gplus^{-1} is the series 1 + O(z) for which
h*Q has no positive exponents.  The lower factors read only q_1..q_r,
and those only modulo m^d (m the maximal ideal), which d fixed-point
passes deliver (see :func:`factorize`); then gminus*unit = [h*Q]_{<=0},
and gplus is recovered in closed form as the exact quotient
(h/unit) / gminus: gminus is 1 plus a nilpotent fringe, the divisor shape
``laurent._divide`` walks down from the top.

For input known only below a truncation order M, the two lower factors
are still exact as long as M - n exceeds d*r (nilpotency degree times
fringe width): changing the unknown tail multiplies f by an element of
1 + z^{>0}(...), which by uniqueness is absorbed entirely into gplus.
gplus itself is then determined below M - n - d*r.

Also here: the exponential maps into the two unipotent wings (char 0),
their product-form replacement that works in any characteristic, Witt
vector addition by coefficient peeling, and the Abel-style embedding
t -> 1 + sum_i t^i z^{-i}.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InternalError, PrecisionError, RingMismatchError, _an_int, _at_least
from .laurent import LaurentElement, _divide
from .scalars import BaseField, CoeffRing, RingElement, _series_product, _sum_products
from .schur import coordinate_ring


class GammaElement:
    """An invertible series in factored form gminus * unit * gplus * z^zpower."""

    __slots__ = ("ring", "gminus", "unit", "gplus", "zpower")

    def __init__(
        self,
        gminus: LaurentElement,
        unit: RingElement,
        gplus: LaurentElement,
        zpower: int = 0,
    ):
        ring = unit.ring
        if gminus.ring != ring or gplus.ring != ring:
            raise RingMismatchError("factor parts live over different rings")
        if gminus.trunc is not None:
            raise DomainError("gminus must be exactly known")
        if gminus.coeffs.get(0) != ring.one():
            raise DomainError("gminus must have constant term 1")
        for e, c in gminus.coeffs.items():
            if e > 0:
                raise DomainError("gminus may not contain positive exponents")
            if e < 0 and not c.is_nilpotent():
                raise DomainError("gminus coefficients below z^0 must be nilpotent")
        if not unit.is_unit():
            raise DomainError("unit part must be invertible in the coefficient ring")
        if any(e < 0 for e in gplus.coeffs):
            raise DomainError("gplus may not contain negative exponents")
        if gplus.trunc is not None and gplus.trunc < 1:
            raise PrecisionError("gplus is not even determined at z^0")
        if gplus.coeffs.get(0, None) != ring.one():
            raise DomainError("gplus must have constant term 1")
        self.ring = ring
        self.gminus = gminus
        self.unit = unit
        self.gplus = gplus
        self.zpower = zpower

    @staticmethod
    def identity(ring: CoeffRing) -> "GammaElement":
        return GammaElement.from_parts(ring)

    @staticmethod
    def from_parts(
        ring: CoeffRing,
        gminus: LaurentElement | None = None,
        unit: RingElement | None = None,
        gplus: LaurentElement | None = None,
        zpower: int = 0,
    ) -> "GammaElement":
        return GammaElement(
            gminus if gminus is not None else LaurentElement.one(ring),
            unit if unit is not None else ring.one(),
            gplus if gplus is not None else LaurentElement.one(ring),
            zpower,
        )

    def as_laurent(self) -> LaurentElement:
        """Multiply the factors back out (window bookkeeping included)."""
        return ((self.gminus * self.unit) * self.gplus).shift(self.zpower)

    def is_identity(self) -> bool:
        return (
            self.zpower == 0
            and self.unit == self.ring.one()
            and self.gminus.coeffs == {0: self.ring.one()}
            and self.gplus.coeffs == {0: self.ring.one()}
        )

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        """Group law: the factorization of a product is the product of
        factorizations, componentwise, since the series ring is commutative."""
        if not isinstance(other, GammaElement):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatchError("Gamma elements over different rings")
        return GammaElement(
            self.gminus * other.gminus,
            self.unit * other.unit,
            self.gplus * other.gplus,
            self.zpower + other.zpower,
        )

    def inverse(self, window: int | None = None) -> "GammaElement":
        """Componentwise inverse.

        gminus and unit invert exactly.  gplus inverts to its own window;
        an exactly-known gplus with a unit coefficient above z^0 needs an
        explicit ``window`` since its inverse is an infinite series.
        """
        return GammaElement(
            self.gminus.inverse(),
            self.unit.inverse(),
            self.gplus.inverse(window=window),
            -self.zpower,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.zpower == other.zpower
            and self.unit == other.unit
            and self.gminus == other.gminus
            and self.gplus == other.gplus
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"GammaElement(gminus={self.gminus!r}, unit={self.unit!r}, "
            f"gplus={self.gplus!r}, zpower={self.zpower})"
        )


def factorize(f: LaurentElement) -> GammaElement:
    """Triple factorization of an invertible Laurent series.

    Let h = z^{-n} f with the unknown tail set to zero, c0 = h_0, and
    Q = gplus^{-1} = 1 + sum_{k>=1} q_k z^k.  The coefficient of z^k in
    h*Q vanishes for every k >= 1, i.e.
    q_k = -c0^{-1} (sum_{j>0} h_j q_{k-j} + sum_{j<0} h_j q_{k-j}).
    Pass p = 1..d fills q_1..q_{r(d-p+1)} in increasing k, taking the
    j > 0 terms from the current pass and the j < 0 terms (higher indices)
    from the previous pass; the first pass starts from zero.  Let m be the
    maximal ideal.  A pass reads the previous one only through the
    nilpotent h_j with j < 0, at most r places further up, so pass p
    reads no q_k past r(d-p+2), all of which pass p-1 filled, and after
    pass p every q_k it filled is right modulo m^p; the last pass fills
    q_1..q_r, right modulo m^d.  That suffices: the coefficient of z^k,
    k <= 0, in L = [h*Q]_{<=0} = gminus*unit reads q_i, i >= 1, only as
    h_{k-i} q_i with k - i < 0, so through a nilpotent factor, and m is
    spanned by monomials of weight >= 1 (every variable weighs at least 1,
    weighted rings included), so m^{d+1} = 0.  Hence L is exact; it is
    the product h*Q cut below z^1, since nothing reads h*Q above z^0.
    Then unit = L_0, inverted once: gminus = L * unit^{-1}, coefficient
    by coefficient, and gplus = h / L, one exact division walking down
    (``laurent._divide``) that is handed the same inverse: L is the unit
    plus a nilpotent fringe of depth s <= r.  The walk fills every
    coefficient of h * L^{-1}, from top(h) down to min(h) - d*s, below
    which the exact quotient has none, so the certification "no negative
    exponents, constant term 1" reads the same coefficients the full
    product would.
    The passes fill r*d(d+1)/2 entries in all; running each to r*d would
    give these the same values and fill others that nothing reads.

    For windowed input the lower factors are exact once trunc - n exceeds
    d*r, and gplus is reported below trunc - n - d*r.  Raises
    NotInvertibleError if f provably has no unit coefficient,
    PrecisionError if the window cannot pin down the valuation or is too
    short to determine the lower factors.
    """
    n, r = f.reduced_valuation()
    ring = f.ring
    d = ring.degree_bound
    if f.trunc is not None and f.trunc - n <= d * r:
        raise PrecisionError(
            f"window too small to determine the factorization: "
            f"need trunc > {n + d * r}, have {f.trunc}"
        )

    h = LaurentElement(ring, {e - n: c for e, c in f.coeffs.items()}, None)
    c0_inv = h.coefficient(0).inverse()
    upper = [(j, c) for j, c in h.coeffs.items() if j > 0]
    fringe = [(j, c) for j, c in h.coeffs.items() if j < 0]
    q = [ring.one()]
    for p in range(1, d + 1):
        prev, q = q, [ring.one()]
        for k in range(1, r * (d - p + 1) + 1):
            # in pass 1, prev holds q_0 alone, which no k - j >= 2 reaches
            pairs = [(c, q[k - j]) for j, c in upper if j <= k]
            pairs += [(c, prev[k - j]) for j, c in fringe if k - j < len(prev)]
            q.append(-(c0_inv * _sum_products(ring, pairs)))

    low = _series_product(ring, h.coeffs, dict(enumerate(q[: r + 1])), 1)
    unit = low[0]
    inv = unit.inverse()
    gminus = LaurentElement(ring, {e: c * inv for e, c in low.items()})
    gplus = _divide(h, LaurentElement(ring, low), None, inv)
    if any(e < 0 for e in gplus.coeffs) or gplus.coeffs.get(0) != ring.one():
        raise InternalError("factorization certification failed")
    if f.trunc is not None:
        gplus = gplus.truncate(f.trunc - n - d * r)
    return GammaElement(gminus, unit, gplus, n)


# ----------------------------------------------------------------------
# Exponentials and Witt-style coordinates
# ----------------------------------------------------------------------


def _elements_of(ring: CoeffRing, values, what: str) -> list[RingElement]:
    """``values`` as a list, each checked to be an element of ``ring``."""
    out = list(values)
    for a in out:
        if not isinstance(a, RingElement) or a.ring != ring:
            raise RingMismatchError(f"{what} must live in the given ring")
    return out


def exp_gamma(
    ring: CoeffRing, coeffs: list[RingElement], sign: int, trunc: int | None = None
) -> GammaElement:
    """exp(sum_i a_i z^(sign*i)) as an element of the matching wing.

    Characteristic zero only: the series needs divided powers.  With
    sign -1 every a_i must be nilpotent and the result is a finite exact
    element of the lower wing.  With sign +1 the exponential is an
    honest infinite series, so a truncation order is required.
    """
    if ring.field.char != 0:
        raise DomainError(
            "the exponential needs characteristic zero; "
            "use witt_product for positive characteristic"
        )
    if type(sign) is not int or sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    if trunc is not None:
        _an_int(trunc, "truncation order")
    coeffs = _elements_of(ring, coeffs, "exponent coefficients")
    if sign < 0:
        if any(not a.is_nilpotent() for a in coeffs):
            raise DomainError(
                "exp into the lower wing needs nilpotent coefficients"
            )
        # finite and exact: a term of t^i, i > d*len, multiplies more
        # than d nilpotents, and m^(d+1) = 0
        trunc, top = None, ring.degree_bound * len(coeffs)
    elif trunc is None:
        raise PrecisionError(
            "exp into the upper wing is an infinite series; a truncation order is required"
        )
    else:
        top = trunc - 1
    terms = _exp_coefficients(ring, coeffs, top)
    total = LaurentElement(ring, {sign * i: c for i, c in enumerate(terms)}, trunc)
    if sign < 0:
        return GammaElement.from_parts(ring, gminus=total)
    return GammaElement.from_parts(ring, gplus=total)


def _exp_coefficients(ring: CoeffRing, args: list[RingElement], top: int) -> list[RingElement]:
    """E_0..E_top of exp(sum_j a_j t^j), a_j = args[j - 1], by the
    recursion i*E_i = sum_j j*a_j*E_(i-j), one sum of products per E_i;
    characteristic zero only."""
    scaled = [a * j for j, a in enumerate(args, start=1)]
    es = [ring.one()]
    for i in range(1, top + 1):
        pairs = [(scaled[j - 1], es[i - j]) for j in range(1, min(i, len(args)) + 1)]
        es.append(_sum_products(ring, pairs) * Fraction(1, i))
    return es


def witt_product(ring: CoeffRing, coeffs: list[RingElement], sign: int) -> LaurentElement:
    """prod_i (1 - a_i z^(sign*i)), exact in any characteristic.

    This finite product replaces the exponential when division by
    factorials is unavailable; with sign -1 and nilpotent a_i it lands in
    the lower wing (see :func:`factorize` to recover the parts).
    """
    if type(sign) is not int or sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    out = LaurentElement.one(ring)
    for i, a in enumerate(_elements_of(ring, coeffs, "coefficients"), start=1):
        if a:
            out = out * LaurentElement(ring, {0: ring.one(), sign * i: -a}, None)
    return out


def witt_peel(f: LaurentElement, length: int) -> list[RingElement]:
    """Components c_1..c_length of f = prod_i (1 - c_i z^i) modulo
    z^(length+1), f = 1 + O(z), each read off its coefficient and divided
    out in turn, one division by 1 - c_i z^i below z^(length+1)
    (``laurent._divide``).  A remainder other than 1 raises InternalError."""
    ring = f.ring
    window = length + 1
    q = f.truncate(window)
    one = ring.one()
    out: list[RingElement] = []
    for i in range(1, length + 1):
        x = q.coefficient(i)
        out.append(-x)
        if x:
            q = _divide(q, LaurentElement(ring, {0: one, i: x}), window)
    if q != LaurentElement(ring, {0: one}, window):
        raise InternalError("Witt peel left a nonzero remainder")
    return out


def witt_add(
    ring: CoeffRing, avec: list[RingElement], bvec: list[RingElement]
) -> list[RingElement]:
    """Witt vector addition: peel components off the product of the two
    product-form series, matching prod(1 - c_i z^i) modulo z^(m+1)."""
    prod = witt_product(ring, avec, 1) * witt_product(ring, bvec, 1)
    return witt_peel(prod, max(len(avec), len(bvec)))


def abel_embed(ring: CoeffRing, points, depth: int | None = None):
    """The embedding t -> 1 + t z^{-1} + t^2 z^{-2} + ... for each point,
    multiplied together.

    Nilpotent points give a finite, exact element of the lower wing.  A
    point with invertible part has an image whose exponents are unbounded
    below, which no series element can represent; passing ``depth``
    returns the Laurent polynomial of all terms with exponent >= -depth
    (exact in that range, silently empty below it).
    """
    pts = _elements_of(ring, points, "points")
    if depth is not None:
        _at_least(depth, 0, "depth")
    nilpotent = all(t.is_nilpotent() for t in pts)
    if not nilpotent and depth is None:
        raise DomainError(
            "a point with invertible part embeds outside the series ring; "
            "pass depth= to truncate the image below z^{-depth}"
        )
    reach = ring.degree_bound if nilpotent else depth
    out = LaurentElement.one(ring)
    for t in pts:
        terms = {0: ring.one()}
        for i in range(1, reach + 1):
            terms[-i] = terms[1 - i] * t
        out = out * LaurentElement(ring, terms, None)
        if not nilpotent:
            out = out.clip_below(-depth)
    if nilpotent:
        return GammaElement.from_parts(ring, gminus=out)
    return out


def universal_v(field: BaseField, d: int) -> GammaElement:
    """The universal lower-wing element 1 + x_1 z^{-1} + ... + x_d z^{-d}
    over the weighted coordinate ring with deg x_i = i, truncated past
    total weight d."""
    if _an_int(d, "d") < 1:
        raise DomainError("d must be at least 1")
    ring = coordinate_ring(field, d)
    terms = {0: ring.one()}
    for i in range(1, d + 1):
        terms[-i] = ring.gen(i - 1)
    return GammaElement.from_parts(ring, gminus=LaurentElement(ring, terms, None))
