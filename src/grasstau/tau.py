"""Tau polynomials, the Baker function, and the KP residual.

The tau polynomial of a point U (over the base field, in the vacuum
chart) at degree bound d is the vacuum minor of v.U divided by the
vacuum minor of U, where v = 1 + x_1 z^{-1} + ... + x_d z^{-d} is the
universal lower-wing element over the weighted coordinate ring.  Two
independent routes compute it:

* ``tau_direct``: move the point by v and take the minor ratio;
* ``tau_schur``: expand the vacuum minor of v.U over the charts of U,
  which gives sum_lam F_lam * (minor_lam(U) / vacuum minor).

They must agree exactly; keeping both is the point of the design.

``baker`` produces the associated wave series psi, the unique series with
z^{-1} psi in the point and v psi = 1 + O(z) (Segal-Wilson, in this
lower-wing convention).  That is one linear condition on the vacuum block
of v.U, which the tau routes already build: solve it over the coordinate
ring and multiply by v^{-1}.  Sato's formula, psi = v^{-1} times the
shifted tau over tau, gives the same series; the tests keep it as the
reference.

``kp_residual`` evaluates the bilinear residue identity that
characterizes tau functions, in time coordinates T_j (weight j) with
x_i = H_i(T) the complete homogeneous functions of the times.  The shift
by [z^{-1}] has closed forms H_i -> H_i - H_{i-1} u respectively
H_i -> sum_k H_{i-k} u^k (u = 1/z), so both sides are short polynomials
in u and the residue is a single finite double sum.  The residual of a
degree-d tau polynomial is provably exact in joint weight <= d - 1, so
checking through weight order+2 needs order <= d - 3.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DomainError,
    InternalError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
)
from .gamma import GammaElement, universal_v
from .grassmann import GrassPoint, act, plucker
from .laurent import LaurentElement
from .linalg import solve_ring
from .partitions import MayaDiagram, partitions_up_to
from .scalars import CoeffRing, RingElement
from .schur import coordinate_ring, is_coordinate_ring, schur_polynomial


def _lift_point(point: GrassPoint, target: CoeffRing) -> GrassPoint:
    """Re-read a point over the base field inside a coordinate ring."""
    if point.ring.field != target.field:
        raise RingMismatchError("point and coordinate ring use different base fields")
    cols = []
    for c in point.columns:
        out = {}
        for e, coeff in c.coeffs.items():
            if not coeff.is_constant():
                raise DomainError("tau needs a point with scalar coefficients")
            out[e] = target.const(coeff.constant_term())
        cols.append(LaurentElement(target, out, c.trunc))
    return GrassPoint(target, point.tail_depth, cols)


def _vacuum_unit(point: GrassPoint) -> RingElement:
    delta = plucker(point, MayaDiagram.vacuum())
    if not delta.is_unit():
        raise NotInvertibleError(
            "point is not in the vacuum chart; the tau normalization needs "
            "an invertible vacuum minor"
        )
    return delta


def _require_window(point: GrassPoint, need: int) -> None:
    m = point.window_high
    if m is not None and m < need:
        raise PrecisionError(
            f"columns are known only below z^{m}; degree bound needs z^{need}"
        )


def tau_direct(point: GrassPoint, bound: int) -> RingElement:
    """Vacuum minor of v.point over the vacuum minor of point."""
    if bound < 1:
        raise DomainError("degree bound must be >= 1")
    _require_window(point, bound)
    v = universal_v(point.ring.field, bound)
    return tau_eval(_lift_point(point, v.ring), v)


def tau_schur(point: GrassPoint, bound: int) -> RingElement:
    """Chart expansion: sum over |lam| <= bound of F_lam times the
    normalized lam-minor of the point."""
    if bound < 1:
        raise DomainError("degree bound must be >= 1")
    _require_window(point, bound)
    ring_d = coordinate_ring(point.ring.field, bound)
    delta = _vacuum_unit(point)
    dinv = delta.inverse()
    total = ring_d.zero()
    for lam in partitions_up_to(bound):
        minor = plucker(point, MayaDiagram.from_partition(lam))
        if minor.is_zero():
            continue
        coeff = minor * dinv
        if not coeff.is_constant():
            raise DomainError("tau needs a point with scalar coefficients")
        total = total + schur_polynomial(ring_d, lam) * ring_d.const(
            coeff.constant_term()
        )
    return total


def tau_crosscheck(point: GrassPoint, bound: int) -> RingElement:
    """Run both routes and insist they agree exactly."""
    a = tau_direct(point, bound)
    b = tau_schur(point, bound)
    if a != b:
        raise InternalError("the two tau routes disagree")
    return a


def tau_eval(point: GrassPoint, g: GammaElement, promote: int | None = None) -> RingElement:
    """Normalized vacuum minor of g.point, over the point's own ring.

    Multiplicative up to a central unit: with lower-triangular factors
    (and no promotion) tau(g1 g2 at U) equals tau(g1 at g2 U) times
    tau(g2 at U) on the nose; for general factors the two sides differ
    by a unit that depends on the wings of g1, g2 and the tail depth,
    but not on the point.
    """
    delta = _vacuum_unit(point)
    moved = act(g, point, promote=promote)
    return plucker(moved, MayaDiagram.vacuum()) * delta.inverse()


# ----------------------------------------------------------------------
# Baker function
# ----------------------------------------------------------------------


def baker(point: GrassPoint, bound: int, window: int) -> LaurentElement:
    """The wave series of the point, with coefficients in the degree-
    ``bound`` coordinate ring, exact at every z-exponent below ``window``.

    psi is the unique series with z^{-1} psi in the point and
    v psi = 1 + O(z), v = universal_v(field, bound).  With the columns c_j
    moved to v.c_j (tail reduced), solve B a = (0, ..., 0, 1) for the
    vacuum block B of v.point, a unit since its residue is the point's
    vacuum block; then sum_j a_j v.c_j = z^{-1} + O(1), so
    w = z sum_j a_j v.c_j = 1 + O(z) and psi = v^{-1} w, read from w
    below z^(window + bound) since v^{-1} stops at z^{-bound}.  The
    unknown tail of every column is read as zero, which is harmless: each
    unit of x-weight moves a column index up by at most one, and weights
    stop at ``bound``, so psi's z^k coefficient reads the columns only up
    to z^(k + bound - 1), inside the window the precondition below asks for.

    The point's columns must be known to z^(bound + window).
    """
    if bound < 1:
        raise DomainError("degree bound must be >= 1")
    if window < 1:
        raise DomainError("window must be >= 1")
    _require_window(point, bound + window)
    v = universal_v(point.ring.field, bound)
    ring = v.ring
    lifted = _lift_point(point, ring)
    _vacuum_unit(lifted)
    exact = [LaurentElement(ring, c.coeffs) for c in lifted.columns]
    moved = act(v, GrassPoint(ring, lifted.tail_depth, exact)).columns
    n = len(moved)
    block = [[c.coefficient(e) for c in moved] for e in range(-n, 0)]
    (a,) = solve_ring(block, [[ring.one() if e == -1 else ring.zero() for e in range(-n, 0)]], ring)
    w = LaurentElement.one(ring)
    for a_j, c in zip(a, moved):
        w = w + (c * a_j).shift(1).clip_below(1)
    return (v.gminus.inverse() * w.truncate(window + bound)).truncate(window)


# ----------------------------------------------------------------------
# KP residual
# ----------------------------------------------------------------------


def kp_residual(tau_poly: RingElement, order: int) -> RingElement:
    """Residue of tau(T - [1/z]) tau(T' + [1/z]) exp(sum (T_j - T'_j) z^j),
    as a polynomial in the times, computed through joint weight order+2.

    Identically zero exactly when the polynomial is a genuine tau (the
    residual is the generating function of the quadratic chart
    relations).  Needs characteristic zero and order <= bound - 3.
    """
    ring = tau_poly.ring
    if not is_coordinate_ring(ring):
        raise DomainError("kp_residual expects the weighted coordinate ring")
    field = ring.field
    if field.char != 0:
        raise DomainError("the residue identity uses exponentials: characteristic zero only")
    if order < 0:
        raise DomainError("order must be >= 0")
    d = ring.degree_bound
    w = order + 2
    if d < w + 1:
        raise DomainError(
            f"order {order} needs degree bound >= {order + 3}, have {d}"
        )

    joint = CoeffRing(field, 2 * w, w, weights=tuple(range(1, w + 1)) * 2)
    times = [joint.gen(i) for i in range(w)]
    times_p = [joint.gen(w + i) for i in range(w)]

    def h_family(vals: list[RingElement]) -> list[RingElement]:
        """Complete homogeneous functions of a weighted variable family:
        i*H_i = sum_j (j*vals_j)*H_{i-j}."""
        hs = [joint.one()]
        for i in range(1, d + 1):
            acc = joint.zero()
            for j in range(1, min(i, w) + 1):
                if vals[j - 1]:
                    acc = acc + vals[j - 1] * j * hs[i - j]
            hs.append(acc * Fraction(1, i))
        return hs

    h = h_family(times)
    hp = h_family(times_p)
    e_ser = h_family([times[j] - times_p[j] for j in range(w)])

    cap = w + 2  # u-degrees that can still reach E_{k+m-1} with k+m-1 <= w

    def umul(a: list[RingElement], b: list[RingElement]) -> list[RingElement]:
        out = [joint.zero()] * min(len(a) + len(b) - 1, cap)
        for i, ai in enumerate(a):
            if i >= cap or not ai:
                continue
            for j, bj in enumerate(b):
                if i + j >= cap:
                    break
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return out

    def upow(base: list[RingElement], e: int) -> list[RingElement]:
        out = [joint.one()]
        for _ in range(e):
            out = umul(out, base)
        return out

    a_side = [joint.zero()] * cap
    b_side = [joint.zero()] * cap
    for mono, coeff in tau_poly.coeffs.items():
        term_a = [joint.const(coeff)]
        term_b = [joint.const(coeff)]
        for i, e in enumerate(mono, start=1):
            if not e:
                continue
            shift_a = [h[i], -h[i - 1]]
            shift_b = [hp[i - k] for k in range(i + 1)]
            term_a = umul(term_a, upow(shift_a, e))
            term_b = umul(term_b, upow(shift_b, e))
        for k, v in enumerate(term_a):
            if v:
                a_side[k] = a_side[k] + v
        for k, v in enumerate(term_b):
            if v:
                b_side[k] = b_side[k] + v

    residual = joint.zero()
    for k, ak in enumerate(a_side):
        if not ak:
            continue
        for m, bm in enumerate(b_side):
            n = k + m - 1
            if n < 0 or n > w or not bm:
                continue
            if e_ser[n]:
                residual = residual + ak * bm * e_ser[n]
    return residual
