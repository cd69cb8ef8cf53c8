"""Tau polynomials, the Baker function, and the KP residual.

The tau polynomial of a point U (over the base field, in the vacuum
chart) at degree bound d is the vacuum minor of v.U divided by the
vacuum minor of U, where v = 1 + x_1 z^{-1} + ... + x_d z^{-d} is the
universal lower-wing element over the weighted coordinate ring.  Two
independent routes compute it:

* ``tau_direct``: move the point by v and take the minor ratio;
* ``tau_schur``: expand the vacuum minor of v.U over the charts of U,
  which gives sum_lam F_lam * (minor_lam(U) / vacuum minor), a family
  of chart coefficients that ``schur.bosonize`` sums.

They must agree exactly; keeping both is the point of the design.
``tau_direct``, ``tau_schur`` and ``baker`` read the point through one
reader, ``_scalar_columns``, which checks the degree bound, the window,
scalar coefficients and the vacuum chart in that order before v is
built, so all three refuse the same input with the same error.

``baker`` produces the associated wave series psi, the unique series with
z^{-1} psi in the point and v psi = 1 + O(z) (Segal-Wilson, in this
lower-wing convention).  That is one linear condition on the vacuum block
B of v.U, which ``tau_direct`` and ``baker`` read as the vacuum chart
block that ``grassmann.plucker`` reads: tau is det B, normalized; psi
solves B a = e_n over the coordinate ring and is multiplied by v^{-1}.
Sato's formula, psi = v^{-1} times the shifted tau over tau, gives the
same series; the tests keep it as the reference.

``kp_residual`` evaluates the bilinear residue identity that
characterizes tau functions, in time coordinates T_j (weight j) with
x_i = H_i(T) the complete homogeneous functions of the times.  The shift
by [z^{-1}] has closed forms H_i -> H_i - H_{i-1} u respectively
H_i -> sum_k H_{i-k} u^k (u = 1/z), so substituting them into tau gives
two series in u, truncated above the last degree the residue reads, and
the residue is one sum over the coefficients of their product.  The
residual of a degree-d tau polynomial is provably exact in joint weight
<= d - 1, so checking through weight order+2 needs order <= d - 3.
"""

from __future__ import annotations

from .errors import DomainError, InternalError, NotInvertibleError, PrecisionError
from .gamma import GammaElement, _exp_coefficients, universal_v
from .grassmann import GrassPoint, _chart_block, act, plucker
from .laurent import LaurentElement
from .linalg import det_ring, solve_ring
from .partitions import MayaDiagram, partitions_up_to
from .scalars import CoeffRing, RingElement
from .schur import bosonize, coordinate_ring, is_coordinate_ring


def _vacuum_unit(point: GrassPoint) -> RingElement:
    delta = plucker(point, MayaDiagram.vacuum())
    if not delta.is_unit():
        raise NotInvertibleError(
            "point is not in the vacuum chart; the tau normalization needs "
            "an invertible vacuum minor"
        )
    return delta


def _scalar_columns(point: GrassPoint, bound: int, need: int):
    """Every check the tau routes make on their input, in one order, and
    the point read over the base field.

    A degree bound >= 1, columns known below z^need, scalar coefficients,
    then the vacuum chart.  Returns the columns as {exponent: scalar}
    dicts and the vacuum minor, a unit.
    """
    if bound < 1:
        raise DomainError("degree bound must be >= 1")
    m = point.window_high
    if m is not None and m < need:
        raise PrecisionError(
            f"columns are known only below z^{m}; degree bound needs z^{need}"
        )
    cols = []
    for c in point.columns:
        if not all(coeff.is_constant() for coeff in c.coeffs.values()):
            raise DomainError("tau needs a point with scalar coefficients")
        cols.append({e: coeff.constant_term() for e, coeff in c.coeffs.items()})
    return cols, _vacuum_unit(point)


def _moved_vacuum_block(point: GrassPoint, bound: int, need: int):
    """(v, the columns of v.point, their vacuum block B), v = universal_v.

    The point passes ``_scalar_columns`` first, need >= bound.  Its
    columns are re-read over v's ring with their unknown tails as zero,
    which no entry of B sees: the row of z^e, e < 0, reads a column up to
    z^(e + bound) (``baker`` shows the same for the rest of the moved
    columns it reads).  B is the vacuum chart block of v.point: one row
    per exponent -n, ..., -1 and one column per moved column, n of each,
    since a vacuum minor that is a unit is square.
    """
    cols, _ = _scalar_columns(point, bound, need)
    v = universal_v(point.ring.field, bound)
    ring = v.ring
    moved = act(v, GrassPoint(ring, point.tail_depth, [LaurentElement(ring, c) for c in cols]))
    return v, moved.columns, _chart_block(moved, MayaDiagram.vacuum())


def tau_direct(point: GrassPoint, bound: int) -> RingElement:
    """Vacuum minor of v.point over the vacuum minor of point.

    The first is det B for the moved vacuum block B.  The second is the
    constant term of det B: v = 1 modulo the maximal ideal, so B reduces
    to the point's own vacuum block.
    """
    v, _, block = _moved_vacuum_block(point, bound, bound)
    det = det_ring(block, v.ring)
    return det * v.ring.const(det.constant_term()).inverse()


def tau_schur(point: GrassPoint, bound: int) -> RingElement:
    """Chart expansion: sum over |lam| <= bound of F_lam times the
    normalized lam-minor of the point, a scalar since the point is.  The
    empty partition's normalized minor is the vacuum minor over itself."""
    _, delta = _scalar_columns(point, bound, bound)
    dinv = delta.inverse()
    coords = {(): 1}
    for lam in partitions_up_to(bound)[1:]:
        minor = plucker(point, MayaDiagram.from_partition(lam))
        if not minor.is_zero():
            coords[lam] = (minor * dinv).constant_term()
    return bosonize(coordinate_ring(point.ring.field, bound), coords)


def tau_crosscheck(point: GrassPoint, bound: int) -> RingElement:
    """Run both routes and insist they agree exactly."""
    a = tau_direct(point, bound)
    b = tau_schur(point, bound)
    if a != b:
        raise InternalError("the two tau routes disagree")
    return a


def tau_eval(point: GrassPoint, g: GammaElement) -> RingElement:
    """Normalized vacuum minor of g.point, over the point's own ring.

    Unlike the tau routes it reads the point as it is, with no scalar
    check.  Multiplicative up to a central unit: with lower-triangular
    factors tau(g1 g2 at U) equals tau(g1 at g2 U) times tau(g2 at U) on
    the nose; for general factors the two sides differ by a unit that
    depends on the wings of g1, g2 and the tail depth, but not on the
    point.
    """
    delta = _vacuum_unit(point)
    return plucker(act(g, point), MayaDiagram.vacuum()) * delta.inverse()


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
    v, moved, block = _moved_vacuum_block(point, bound, bound + window)
    ring = v.ring
    e_n = [ring.one() if e == -1 else ring.zero() for e in range(-len(moved), 0)]
    (a,) = solve_ring(block, [e_n], ring)
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

    Zero for every genuine tau (the residual is the generating function
    of the quadratic chart relations), so a nonzero residual proves the
    polynomial is not a tau.  The converse needs every order: at order 0
    (joint weight <= 2) the residual of every polynomial is zero, so
    order 0 flags nothing.  Needs characteristic zero and order <= bound - 3.
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

    # complete homogeneous functions H_i of the times: sum_i H_i u^i = exp(sum_j T_j u^j)
    h = _exp_coefficients(joint, times, d)
    hp = _exp_coefficients(joint, times_p, d)
    e_ser = _exp_coefficients(joint, [times[j] - times_p[j] for j in range(w)], w)

    cap = w + 2  # u-degrees past w + 1 never reach a residue term

    def substitute(images: list[LaurentElement]) -> LaurentElement:
        """tau at x_i -> images[i - 1], a series in u known below u^cap;
        each power images[i] ** e is taken once."""
        powers: dict[tuple[int, int], LaurentElement] = {}
        total = LaurentElement.zero(joint, cap)
        for mono, coeff in tau_poly.coeffs.items():
            term = LaurentElement(joint, {0: coeff}, cap)
            for i, e in enumerate(mono):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i] ** e
                    term = term * powers[i, e]
            total = total + term
        return total

    a_images = [LaurentElement(joint, {0: h[i], 1: -h[i - 1]}, cap) for i in range(1, d + 1)]
    b_images = [
        LaurentElement(joint, {k: hp[i - k] for k in range(i + 1)}, cap) for i in range(1, d + 1)
    ]
    ab = substitute(a_images) * substitute(b_images)
    residual = joint.zero()
    for n in range(w + 1):  # u^(n+1) z^n is z^-1
        residual = residual + ab.coefficient(n + 1) * e_ser[n]
    return residual
