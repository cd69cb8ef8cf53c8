"""Residue and commutator pairings on invertible series.

The residue pairing of two series is res(f * dg/dz): bilinear in the
additive sense and the infinitesimal shadow of the multiplicative one.

The commutator pairing is the Contou-Carrere symbol of two valuation-zero
series, the corner determinant of the commutator of their multiplication
operators compressed onto the nonnegative half-space (Anderson and Pablos
Romo).  It is multiplicative in each slot and skew, and constants or two
elements of one wing pair to 1.  So factor f = f- u f+ and g = g- u' g+
(:func:`factorize`): only the cross terms survive, and
<f, g> = S(g-, f+) / S(f-, g+), where S(L, U) pairs a lower wing L with
an upper wing U and is one norm.

Let L = 1 + c_1 z^{-1} + ... + c_D z^{-D}, every c_k nilpotent, and
P(t) = t^D + c_1 t^(D-1) + ... + c_D, which is monic.  Then S(L, U) is
the determinant of multiplication by U(t) on R[t]/(P), a D x D matrix.
Write L = prod_k (1 - alpha_k z^{-1}) and a polynomial U =
prod_l (1 - beta_l z) with formal roots.  S of two such single factors
is 1 - alpha beta, so the cross-term product is
prod_{k,l} (1 - alpha_k beta_l) = prod_k U(alpha_k), and as the alpha_k
are the roots of P, that is the norm of U(t) from R[t]/(P) down to R.
Both sides are polynomials in the c's and U's coefficients with integer
coefficients, so the identity holds over every R, in characteristic p
too.  D = 0 gives the empty determinant, which is 1.  In Witt components,
L = prod_i (1 - a_i z^{-i}) and U = prod_j (1 - b_j z^j), the same
product is prod_{i,j} (1 - a_i^{j/h} b_j^{i/h})^h with h = gcd(i, j);
:func:`commutator_pairing` uses that form only to bound what it reads.
Both norms read each argument only below z^(d(r1+r2)+1), with r1 and r2
the fringe widths and m^(d+1) = 0, so a windowed argument is refused
exactly when its trunc <= d(r1+r2), and any other value does not depend
on the unknown tail.
"""

from __future__ import annotations

from .errors import DomainError, PrecisionError, RingMismatchError
from .gamma import factorize
from .laurent import LaurentElement
from .linalg import det_ring
from .scalars import RingElement, _sum_products


def residue_pairing(f: LaurentElement, g: LaurentElement) -> RingElement:
    """res(f * g'), the coefficient of z^{-1} of f times the derivative of g."""
    if f.ring != g.ring:
        raise RingMismatchError("residue pairing needs a common ring")
    return (f * g.derivative()).residue()


def _norm(lower: LaurentElement, upper: LaurentElement) -> RingElement:
    """S(lower, upper) as the determinant of multiplication by U(t) on
    R[t]/(P) (module docstring), U read up to z^(d*D) (see
    :func:`commutator_pairing`).  Column k holds t^k U(t) mod P, one sum
    of products per entry over the powers t^j mod P, each power reduced
    from the one before by t^D = -(c_1 t^(D-1) + ... + c_D)."""
    ring = lower.ring
    depth = -lower.min_exp
    zero, one = ring.zero(), ring.one()
    terms = [(j, u) for j in range(ring.degree_bound * depth + 1) if (u := upper.coefficient(j))]
    # t^D mod P is sum_i drop[i] t^i
    drop = [-lower.coeffs.get(i - depth, zero) for i in range(depth)]
    powers = [[one if i == j else zero for i in range(depth)] for j in range(depth)]
    for _ in range(depth, terms[-1][0] + depth):
        prev = powers[-1]
        shifted = [zero] + prev[:-1]
        powers.append([_sum_products(ring, ((one, s), (c, prev[-1]))) for s, c in zip(shifted, drop)])
    mat = [
        [_sum_products(ring, ((u, powers[j + k][i]) for j, u in terms)) for k in range(depth)]
        for i in range(depth)
    ]
    return det_ring(mat, ring)


def commutator_pairing(f1: LaurentElement, f2: LaurentElement) -> RingElement:
    """The Contou-Carrere symbol <f1, f2> = S(f2-, f1+) / S(f1-, f2+), each
    S the module docstring's norm.

    Both series need reduced valuation zero, and a windowed argument needs
    trunc > d(r1+r2), r1 and r2 the fringe widths (PrecisionError otherwise).

    Window.  With m the maximal ideal (m^(d+1) = 0) and r an argument's
    fringe width, its lower wing L is 1 + sum_{k<=r} c_k z^{-k}, c_k in m,
    with c_r != 0 (factorize keeps the lowest term), so D = r.  Its Witt
    component a_i is a sum of products of c_k whose subscripts add up to
    i, so of at least i/r factors: a_i lies in m^ceil(i/r).  Split the
    upper wing as U = U' V with U' its terms up to z^(d*r) and
    V = prod_{j > d*r} (1 - b_j z^j).  t is nilpotent in R[t]/(P), as t^D
    is m times lower powers, so U(t) makes sense and the norm is
    multiplicative; the norm of one factor 1 - b t^j is
    prod_i (1 - a_i^(j/h) b^(i/h))^h, and a_i^(j/h) lies in
    m^((i/r)(j/h)), inside m^(j/r) as h <= i, which is zero for j > d*r.
    So S(L, U) = S(L, U'): U is read only to z^(d*r_other) for the other
    argument's lower wing.  A windowed upper wing is known that far:
    factorize gives it below trunc - d*r, and trunc > d(r1+r2).  All
    refusals come first, so factorize never refuses here.
    """
    if f1.ring != f2.ring:
        raise RingMismatchError("commutator pairing needs a common ring")
    d = f1.ring.degree_bound
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
    return _norm(fac2.gminus, fac1.gplus) * _norm(fac1.gminus, fac2.gplus).inverse()
