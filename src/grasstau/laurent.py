"""Laurent series over a truncated coefficient ring, with precision windows.

An element is stored as a sparse map {exponent: coefficient} plus a
truncation order ``trunc``.  Coefficients at exponents below ``trunc``
are exactly known (absent means zero); at or above ``trunc`` they are
unknown.  ``trunc is None`` means the element is known exactly at every
exponent, i.e. it is a genuine Laurent polynomial.  Exponents and
``trunc`` are ints (never bools); the constructor refuses anything else
with ``DomainError`` and drops zero coefficients and those at or past
``trunc``.  ``+``, ``-`` and ``*`` combine a series with a series over
an equal ring or with any operand that ring elements take
(``scalars._operand``), read as a constant series.

Windows propagate through arithmetic pessimistically but sharply: for a
product the unknown tail of one factor meets the lowest term of the
other, so the result is known strictly below

    min(trunc_f + low_g, trunc_g + low_f)

where ``low`` is the lowest exponent in the known support (or the
truncation order itself when the known part vanishes).

Because the coefficient ring is local, invertibility of a series is
governed by its reduced valuation: the lowest exponent ``n`` carrying a
unit coefficient, together with the gap ``r = n - lowest support``
occupied by purely nilpotent coefficients.  Inversion has one rule:
split h = z^{-n} f as R + N, where R is h_0 plus every unit coefficient
(all at positive exponents) and N, the rest, is nilpotent.  Then

    h^{-1}  =  R^{-1} * sum_k (-N R^{-1})^k,

a geometric series that stops after at most d terms because m^{d+1} = 0.
R^{-1} is exact when R is the lone constant h_0; otherwise it is the
division 1 / R below, and the inverse is reported strictly below
trunc - 2n - d*r (or below ``window=`` for exact input): h is known below
trunc - n, each of the at most d nilpotent factors reaches r places
further down, and z^{-n} moves the result down by n once more.

Division by a series D = D_0 + (terms on one side of z^0), D_0 a unit,
is one exact rule.  The quotient q = num / D satisfies num = q * D, so

    q_e  =  D_0^{-1} (num_e - sum_{j != 0} D_j q_{e-j}),

one sum of products per coefficient, each reading only q's already
found when the walk moves away from z^0 on D's side.  With terms above
z^0 (units allowed) it walks up from num's lowest exponent, and D^{-1}
is an infinite series, so q is given below a requested order (and below
num's window).  With terms below z^0, all nilpotent, it walks down from
num's top exponent, and q is exact: D^{-1} = D_0^{-1} sum_k (-N D_0^{-1})^k,
N = D - D_0.  Let w_j >= 1 be the lowest weight of a monomial of D's
coefficient at z^{-j}.  A term of N^k at z^{-(j_1 + ... + j_k)} is a
product of those coefficients, of weight at least w_{j_1} + ... + w_{j_k},
so it is zero unless that sum is at most d; then
j_1 + ... + j_k <= max_j (j / w_j) * d.  So D^{-1} lives on [-r, 0] with
r = max_j floor(d*j / w_j), and the walk stops at min(num) - r.  That is
-d below num for v = 1 + x_1 z^{-1} + ... + x_d z^{-d} (w_j = j), and
never below min(num) - d*s, s = D's depth.  A unit below z^0 would make
the quotient unbounded below; the routine is private, so that is a
broken invariant.
"""

from __future__ import annotations

from .errors import DomainError, InternalError, NotInvertibleError, PrecisionError, RingMismatchError, _an_int
from .scalars import CoeffRing, RingElement, _lowest_weight, _operand, _series_product, _sum_products, power


def neumann(one, u):
    """The geometric series 1 + u + u^2 + ... for a nilpotent ``u``, which
    ends ``LaurentElement.inverse``.  Over a local ring whose maximal ideal
    m has m^{d+1} = 0, an element or series with coefficients in m has
    u^{d+1} = 0, so the sum ends at u^d and is exactly (1 - u)^{-1}.
    """
    total = term = one
    while True:
        term = term * u
        if term.is_zero():
            return total
        total = total + term


class LaurentElement:
    """Sparse Laurent series with an optional truncation order."""

    __slots__ = ("ring", "coeffs", "trunc")

    def __init__(self, ring: CoeffRing, coeffs: dict, trunc: int | None = None):
        if trunc is not None and type(trunc) is not int:
            raise DomainError(f"truncation order must be an int or None, not {trunc!r}")
        clean: dict[int, RingElement] = {}
        for e, c in coeffs.items():
            if type(e) is not int:
                raise DomainError(f"Laurent exponents must be ints, not {e!r}")
            if not isinstance(c, RingElement):
                c = ring.const(c)
            elif c.ring is not ring and c.ring != ring:
                raise RingMismatchError("coefficient from a different ring")
            if c and (trunc is None or e < trunc):
                clean[e] = c
        self.ring = ring
        self.coeffs = clean
        self.trunc = trunc

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(ring: CoeffRing, trunc: int | None = None) -> "LaurentElement":
        return LaurentElement(ring, {}, trunc)

    @staticmethod
    def one(ring: CoeffRing) -> "LaurentElement":
        return LaurentElement(ring, {0: ring.one()})

    @staticmethod
    def z_power(ring: CoeffRing, n: int) -> "LaurentElement":
        return LaurentElement(ring, {n: ring.one()})

    @staticmethod
    def const(ring: CoeffRing, c) -> "LaurentElement":
        return LaurentElement(ring, {0: c})

    # -- inspection ------------------------------------------------------------

    def _low(self) -> int | None:
        """Lowest possibly-nonzero exponent; None means +infinity (exact zero)."""
        if self.coeffs:
            return min(self.coeffs)
        return self.trunc  # known part vanishes; tail starts at trunc

    @property
    def min_exp(self) -> int:
        """Lowest exponent of the known support (0 for the zero series)."""
        low = self._low()
        return 0 if low is None else low

    def coefficient(self, e: int) -> RingElement:
        if self.trunc is not None and e >= self.trunc:
            raise PrecisionError(
                f"coefficient of z^{e} is beyond the truncation order {self.trunc}"
            )
        return self.coeffs.get(e, self.ring.zero())

    def is_zero(self) -> bool:
        """True when the known part vanishes.  Exact zero iff also trunc is None."""
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        """Strict representation equality (same window, same terms).

        Use :meth:`same_series` for mathematical agreement on the shared
        window.
        """
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def same_series(self, other: "LaurentElement") -> bool:
        """Do the two series agree at every jointly-known exponent?"""
        if not isinstance(other, LaurentElement):
            raise DomainError("same_series compares Laurent elements")
        if self.ring != other.ring:
            raise RingMismatchError("cannot compare series over different rings")
        if self.trunc is None and other.trunc is None:
            return self.coeffs == other.coeffs
        cut = min(t for t in (self.trunc, other.trunc) if t is not None)
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if e >= cut:
                continue
            if self.coeffs.get(e, self.ring.zero()) != other.coeffs.get(e, self.ring.zero()):
                return False
        return True

    def __repr__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            bits = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                cs = repr(c)
                if not c.is_constant() and len(c.coeffs) > 1:
                    cs = f"({cs})"
                if e == 0:
                    bits.append(cs)
                elif e == 1:
                    bits.append(f"{cs}*z" if cs != "1" else "z")
                else:
                    bits.append(f"{cs}*z^{e}" if cs != "1" else f"z^{e}")
            body = " + ".join(bits)
        if self.trunc is not None:
            body += f" + O(z^{self.trunc})"
        return body

    # -- arithmetic ----------------------------------------------------------

    def _series(self, other) -> "LaurentElement":
        """``other`` as a series over this ring, or NotImplemented; a ring
        element or a scalar ``scalars._operand`` takes is a constant series."""
        if isinstance(other, LaurentElement):
            if other.ring != self.ring:
                raise RingMismatchError("Laurent elements over different coefficient rings")
            return other
        if not isinstance(other, RingElement):
            other = _operand(self.ring, other)
            if other is NotImplemented:
                return NotImplemented
        return LaurentElement(self.ring, {0: other})

    def _plus(self, other: "LaurentElement", sign: int) -> "LaurentElement":
        """self + sign * other, sign = 1 or -1, in one pass; known below
        the narrower window."""
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if sign < 0:
                out[e] = -c if s is None else s - c
            else:
                out[e] = c if s is None else s + c
        truncs = [t for t in (self.trunc, other.trunc) if t is not None]
        return LaurentElement(self.ring, out, min(truncs, default=None))

    def __add__(self, other):
        other = self._series(other)
        return NotImplemented if other is NotImplemented else self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentElement":
        return LaurentElement(self.ring, {e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        other = self._series(other)
        return NotImplemented if other is NotImplemented else self._plus(other, -1)

    def __rsub__(self, other):
        other = self._series(other)
        return NotImplemented if other is NotImplemented else other._plus(self, -1)

    def __mul__(self, other):
        other = self._series(other)
        if other is NotImplemented:
            return NotImplemented
        low_s, low_o = self._low(), other._low()
        # an exact zero annihilates everything, unknown tails included
        if low_s is None or low_o is None:
            return LaurentElement.zero(self.ring)
        truncs = [t + low for t, low in ((self.trunc, low_o), (other.trunc, low_s)) if t is not None]
        trunc = min(truncs, default=None)
        ring = self.ring
        return LaurentElement(ring, _series_product(ring, self.coeffs, other.coeffs, trunc), trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentElement":
        return power(LaurentElement.one(self.ring), self, n)

    def shift(self, n: int) -> "LaurentElement":
        """Multiply by z^n."""
        return LaurentElement(
            self.ring,
            {e + n: c for e, c in self.coeffs.items()},
            None if self.trunc is None else self.trunc + n,
        )

    def truncate(self, order: int) -> "LaurentElement":
        """Forget everything at exponent >= order."""
        t = order if self.trunc is None else min(self.trunc, order)
        return LaurentElement(self.ring, self.coeffs, t)

    def clip_below(self, n: int) -> "LaurentElement":
        """Drop all terms at exponents < n (a projection, not a window change)."""
        return LaurentElement(
            self.ring, {e: c for e, c in self.coeffs.items() if e >= n}, self.trunc
        )

    def derivative(self) -> "LaurentElement":
        out = {}
        for e, c in self.coeffs.items():
            if e != 0:
                out[e - 1] = c * e
        trunc = None if self.trunc is None else self.trunc - 1
        return LaurentElement(self.ring, out, trunc)

    def residue(self) -> RingElement:
        """The coefficient of z^{-1}; raises if the window ends at or below it."""
        return self.coefficient(-1)

    # -- valuation and inversion ----------------------------------------------

    def reduced_valuation(self) -> tuple[int, int]:
        """(n, r): n = lowest exponent with a unit coefficient, r = n - min support.

        Raises NotInvertibleError when the element provably has no unit
        coefficient (exactly-known, all nilpotent or zero) and
        PrecisionError when a unit could still be hiding past the window.
        """
        unit_exp = None
        for e in sorted(self.coeffs):
            if self.coeffs[e].is_unit():
                unit_exp = e
                break
        if unit_exp is None:
            if self.trunc is None:
                raise NotInvertibleError(
                    "series has no unit coefficient; it is not invertible"
                )
            raise PrecisionError("valuation undetermined at this precision")
        low = min(self.coeffs)
        return unit_exp, unit_exp - low

    def inverse(self, window: int | None = None) -> "LaurentElement":
        """Multiplicative inverse, on the one path the module docstring states.

        Exact when the input is exact and has no unit coefficient above its
        valuation; otherwise the inverse is an infinite series, so a window
        is required: the input's own truncation order (which bounds what
        is determined anyway) or an explicit ``window=`` for exact input.
        """
        if window is not None:
            _an_int(window, "window")
        n, r = self.reduced_valuation()
        h = self.shift(-n)  # unit constant term, nilpotent fringe on [-r, 0)
        ring = self.ring
        d = ring.degree_bound
        # every unit coefficient of h sits at z^0 or above
        regular = {e: c for e, c in h.coeffs.items() if c.is_unit()}
        nil = LaurentElement(
            ring, {e: c for e, c in h.coeffs.items() if not c.is_unit()}, h.trunc
        )

        if self.trunc is not None:
            # determined strictly below trunc - 2n - d*r in absolute exponent
            trunc_out = self.trunc - 2 * n - d * r
            if window is not None:
                trunc_out = min(trunc_out, window)
        elif len(regular) > 1:
            if window is None:
                raise DomainError(
                    "inverse is an infinite series; pass window= for exact input"
                )
            trunc_out = window
        else:
            trunc_out = None

        # with unit terms above z^0, R^{-1} leaves room for the nilpotent
        # part to push the window down by up to d*r
        below = max(1, trunc_out + n + d * r + 1) if len(regular) > 1 else None
        reg_inv = _divide(LaurentElement.one(ring), LaurentElement(ring, regular), below)
        h_inv = (reg_inv * neumann(LaurentElement.one(ring), -(nil * reg_inv))).shift(-n)
        return h_inv if trunc_out is None else h_inv.truncate(trunc_out)


def _divide(
    num: LaurentElement, den: LaurentElement, below: int | None, inv0: RingElement | None = None
) -> LaurentElement:
    """num / den by the division rule of the module docstring, for a
    ``num`` that is not the exact zero and an exact ``den`` with a unit at
    z^0 and its other terms on one side of z^0.  ``inv0`` is the inverse
    of that unit when the caller already holds it.

    Terms above z^0: the quotient is given strictly below ``below`` and
    below num's window.  Terms below z^0, all nilpotent, and ``below``
    None: the quotient of an exact ``num`` is exact.  Any other shape is
    a caller's broken invariant and raises InternalError.
    """
    ring = num.ring
    c0 = den.coeffs.get(0)
    rest = [(j, c) for j, c in den.coeffs.items() if j]
    up = below is not None
    if up:
        misplaced = any(j < 0 for j, _ in rest)
    else:
        misplaced = num.trunc is not None or any(j > 0 or c.is_unit() for j, c in rest)
    if den.trunc is not None or c0 is None or not c0.is_unit() or misplaced:
        raise InternalError("division needs an exact one-sided divisor with a unit at z^0")
    one = ring.one()
    if inv0 is None:
        inv0 = one if c0 == one else c0.inverse()
    scaled = [(j, -(c if inv0 is one else inv0 * c)) for j, c in rest]
    if up:
        top = below if num.trunc is None else min(below, num.trunc)
        walk = range(num._low(), top)
    else:
        top = None
        d = ring.degree_bound
        stop = min(num.coeffs) - max((d * -j // _lowest_weight(c) for j, c in rest), default=0)
        walk = range(max(num.coeffs), stop - 1, -1)
    q: dict[int, RingElement] = {}
    for e in walk:  # q holds the nonzero coefficients found so far
        pairs = [(c, q[e - j]) for j, c in scaled if e - j in q]
        x = num.coeffs.get(e)
        if x is not None:
            pairs.append((inv0, x))
        if pairs and (qe := _sum_products(ring, pairs)):
            q[e] = qe
    return LaurentElement(ring, q, top)
