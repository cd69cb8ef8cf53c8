"""Residue and commutator pairings on invertible series.

The residue pairing of two series is res(f * dg/dz): bilinear in the
additive sense and the infinitesimal shadow of the multiplicative one.

The commutator pairing is the Contou-Carrere symbol of two valuation-zero
series, the corner determinant of the commutator of their multiplication
operators compressed onto the nonnegative half-space (Anderson and Pablos
Romo).  It is multiplicative in each slot and skew, and constants or two
elements of one wing pair to 1.  So factor f = f- u f+ and g = g- u' g+
(:func:`factorize`) and peel the wings into Witt components,
f- = prod_i (1 - a_i z^{-i}) and f+ = prod_j (1 - b_j z^j): only the
cross terms survive, and <1 - a z^{-i}, 1 - b z^j> = (1 - a^{j/h} b^{i/h})^{-h}
with h = gcd(i, j) gives <f, g> = S(g-, f+) / S(f-, g+), where
S(L, U) = prod_{i,j} (1 - a_i^{j/h} b_j^{i/h})^h over the components a of
L and b of U.  :func:`commutator_pairing` bounds both products.  They
read each argument only below z^(d(r1+r2)+1), with r1 and r2 the fringe
widths and m^(d+1) = 0, so a windowed argument is refused exactly when its
trunc <= d(r1+r2), and any other value does not depend on the unknown tail.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError, PrecisionError, RingMismatchError
from .gamma import factorize, witt_peel
from .laurent import LaurentElement
from .scalars import CoeffRing, RingElement


def residue_pairing(f: LaurentElement, g: LaurentElement) -> RingElement:
    """res(f * g'), the coefficient of z^{-1} of f times the derivative of g."""
    if f.ring != g.ring:
        raise RingMismatchError("residue pairing needs a common ring")
    return (f * g.derivative()).residue()


def _powers(x: RingElement, top: int) -> list[RingElement]:
    """[x, x^2, ..., x^top] as a running product, cut before the first zero
    power, since every later one is zero too."""
    out = []
    while x and len(out) < top:
        out.append(x)
        x = x * out[0]
    return out


def _symbol(ring: CoeffRing, lower: list[RingElement], upper: list[RingElement]) -> RingElement:
    """S(L, U) for the Witt components a of L and b of U (module docstring).
    A pair whose power a^(j/h) or b^(i/h) is zero contributes 1."""
    out = one = ring.one()
    a_powers = [_powers(a, len(upper)) for a in lower]
    b_powers = [_powers(b, len(lower)) for b in upper]
    for i, pa in enumerate(a_powers, start=1):
        for j, pb in enumerate(b_powers, start=1):
            h = gcd(i, j)
            if j // h <= len(pa) and i // h <= len(pb):
                out = out * (one - pa[j // h - 1] * pb[i // h - 1]) ** h
    return out


def commutator_pairing(f1: LaurentElement, f2: LaurentElement) -> RingElement:
    """The Contou-Carrere symbol <f1, f2> in the module docstring's closed form.

    Both series need reduced valuation zero, and a windowed argument needs
    trunc > d(r1+r2), r1 and r2 the fringe widths (PrecisionError otherwise).

    Peel lengths.  With m the maximal ideal (m^(d+1) = 0) and r an
    argument's fringe width, its lower wing is 1 + sum_{k<=r} c_k z^{-k},
    c_k in m, and a_i is a sum of products of c_k whose subscripts add up
    to i, so of at least i/r factors: a_i lies in m^ceil(i/r) and vanishes
    past i = d*r, where the peel must leave exactly 1 (InternalError
    otherwise).  In S(L, U), a_i^(j/h) lies in m^((i/r)(j/h)), inside
    m^(j/r) as h <= i, so U is peeled only to j = d*r_other.  A windowed
    upper wing is known that far: factorize gives it below trunc - d*r,
    and trunc > d(r1+r2).  All refusals come first, so factorize never
    refuses here.
    """
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
    num = _symbol(ring, witt_peel(fac2.gminus, -1, dr2), witt_peel(fac1.gplus, 1, dr2))
    den = _symbol(ring, witt_peel(fac1.gminus, -1, dr1), witt_peel(fac2.gplus, 1, dr1))
    return num * den.inverse()
