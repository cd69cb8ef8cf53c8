"""Tau polynomials, the Baker function, and the KP residual.

The tau polynomial of a point U (over the base field, in the vacuum
chart) at degree bound d is the vacuum minor of v.U divided by the
vacuum minor of U, where v = 1 + x_1 z^{-1} + ... + x_d z^{-d} is the
universal lower-wing element over the weighted coordinate ring.  Two
independent routes compute it:

* ``tau_direct``: bring the point to its Sato normal form over the
  field, columns z^{-i} + (terms at z^0 and above), cut to depth
  m = min(depth, d), move that by v and take one m x m determinant;
* ``tau_schur``: expand the vacuum minor of v.U over the charts of U,
  which gives sum_lam F_lam * (minor_lam(U) / vacuum minor), a family
  of chart coefficients that ``schur.bosonize`` sums.

They must agree exactly; keeping both is the point of the design.
``tau_direct``, ``tau_schur`` and ``baker`` read the point through one
reader, ``_scalar_columns``, which checks the degree bound, the window
and scalar coefficients in that order before v is built.  The vacuum
chart comes last, decided by the first thing each route computes: the
normal form for ``tau_direct``, the vacuum minor for the other two, with
one error and message.  So all three refuse the same input with the
same error.

``baker`` produces the associated wave series psi, the unique series with
z^{-1} psi in the point and v psi = 1 + O(z) (Segal-Wilson, in this
lower-wing convention).  That is one linear condition on the vacuum block
B of v.U, which ``tau_direct`` and ``baker`` read as the vacuum chart
block that ``grassmann.plucker`` reads: tau is det B on the cut normal
form; psi solves B a = e_n over the coordinate ring and is multiplied
by v^{-1}.
Sato's formula, psi = v^{-1} times the shifted tau over tau, gives the
same series; the tests keep it as the reference.

``kp_residual`` evaluates the bilinear residue identity that
characterizes tau functions, in time coordinates T_j (weight j) with
x_i = H_i(T) the complete homogeneous functions of the times.  The shift
by [z^{-1}] has closed forms H_i -> H_i - H_{i-1} u respectively
H_i -> sum_k H_{i-k} u^k (u = 1/z), so substituting them into tau gives
two series in u, truncated above the last degree the residue reads, and
the residue is one sum over the coefficients of their product; tau's
monomials past the weight the residue reads are skipped.  The
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
from .scalars import CoeffRing, RingElement, _sum_products
from .schur import bosonize, coordinate_ring, is_coordinate_ring


_OFF_CHART = (
    "point is not in the vacuum chart; the tau normalization needs an invertible vacuum minor"
)


def _vacuum_unit(point: GrassPoint) -> RingElement:
    delta = plucker(point, MayaDiagram.vacuum())
    if not delta.is_unit():
        raise NotInvertibleError(_OFF_CHART)
    return delta


def _scalar_columns(point: GrassPoint, bound: int, need: int) -> list[dict]:
    """The checks every tau route makes first, in one order, and the point
    read over the base field.

    A degree bound >= 1, columns known below z^need, scalar coefficients.
    Returns the columns as {exponent: scalar} dicts.  The vacuum chart is
    checked next, by ``_sato_normal_form`` or ``_vacuum_unit``.
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
    return cols


def _sato_normal_form(cols: list[dict], depth: int, bound: int, field) -> list[dict]:
    """The Sato normal form of the columns, cut to depth m = min(depth,
    bound) and to exponents below z^bound: c'_i = z^{-i} + a_i, a_i at
    z^0, ..., z^(bound-1), for i = m, ..., 1 (Segal-Wilson, Publ. Math.
    IHES 61, 1985, sections 2-3).

    One column elimination over the field on the vacuum rows, the deepest
    first.  Row z^e is cleared from every other column by the first column
    that has it, scaled to 1.  That pivot is dropped when e < -bound and
    kept in the top m rows, where clearing runs through the kept columns
    too and leaves them zero at every other vacuum row.  Exponents at
    z^bound and above are never read: no moved vacuum block at this bound
    sees them.  A row with no pivot, or a column count other than depth,
    means a vacuum minor of zero: the point is refused as outside the
    vacuum chart.
    """
    if len(cols) != depth:
        raise NotInvertibleError(_OFF_CHART)
    p = field.char
    rest = [{e: a for e, a in c.items() if e < bound} for c in cols]
    kept: list[dict] = []
    for e in range(-depth, 0):
        j = next((j for j, c in enumerate(rest) if e in c), None)
        if j is None:
            raise NotInvertibleError(_OFF_CHART)
        pivot = rest.pop(j)
        if pivot[e] != 1:
            inv = field.invert(pivot[e])
            pivot = {k: a * inv % p if p else a * inv for k, a in pivot.items()}
        for c in rest + kept:
            f = c.get(e)
            if f:
                for k, a in pivot.items():
                    val = c.get(k, 0) - f * a
                    if p:
                        val %= p
                    if val:
                        c[k] = val
                    else:
                        del c[k]
        if e >= -bound:
            kept.append(pivot)
    return kept


def _moved_vacuum_block(field, cols: list[dict], bound: int):
    """(v, the columns of v.U, their vacuum block B), v = universal_v, for
    the point U spanned by n scalar columns over a tail of depth n.

    The columns come from ``_scalar_columns`` and passed the vacuum chart
    check, so they are as many as the tail depth.  They are re-read over
    v's ring with their unknown tails as zero, which no entry of B sees:
    the row of z^e, e < 0, reads a column up to z^(e + bound) (``baker``
    shows the same for the rest of the moved columns it reads).  B is the
    vacuum chart block of v.U: one row per exponent -n, ..., -1 and one
    column per moved column.
    """
    v = universal_v(field, bound)
    ring = v.ring
    moved = act(v, GrassPoint(ring, len(cols), [LaurentElement(ring, c) for c in cols]))
    return v, moved.columns, _chart_block(moved, MayaDiagram.vacuum())


def tau_direct(point: GrassPoint, bound: int) -> RingElement:
    """Vacuum minor of v.point over the vacuum minor of point, read off
    the point's Sato normal form cut to depth m = min(depth, bound): the
    m x m determinant of the moved vacuum block of span{c'_m, ..., c'_1}.

    The ratio is det B / det B0 in any basis of the point, B the moved
    vacuum block and B0 the point's own, since a change of basis over the
    field multiplies both by one determinant.  In the full normal basis
    c'_i = z^{-i} + a_i(z), i = n, ..., 1, B0 = 1 and B = I + L + R, with
    L[r][j] = x_{r-j} below the diagonal (v on z^{-j}) and
    R[r][j] = sum_k x_{k+r} a_{j,k}, of weight >= r (v on a_j).  In a term
    of det B each factor in row r, column s has weight >= r - s, plus s if
    it comes from R; along a cycle of the permutation the r - s sum to
    zero, so a term that reads a_j has weight >= j, and every a_j with
    j > bound drops out past the degree bound.  With those a_j zero, the
    columns past m are z^{-j}, part of the tail at depth m, and B is block
    lower triangular with a unitriangular block there, so det B is the
    m x m minor: the moved vacuum block of span{c'_m, ..., c'_1} over the
    tail of depth m.  Its constant term is det B0 = 1, so no normalization
    is left.
    """
    field = point.ring.field
    normal = _sato_normal_form(_scalar_columns(point, bound, bound), point.tail_depth, bound, field)
    v, _, block = _moved_vacuum_block(field, normal, bound)
    return det_ring(block, v.ring)


def tau_schur(point: GrassPoint, bound: int) -> RingElement:
    """Chart expansion: sum over |lam| <= bound of F_lam times the
    normalized lam-minor of the point, a scalar since the point is.  The
    empty partition's normalized minor is the vacuum minor over itself.
    Every minor is the point's own Plucker coordinate, so this route
    shares nothing with ``tau_direct`` past the input checks."""
    _scalar_columns(point, bound, bound)
    dinv = _vacuum_unit(point).inverse()
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
    cols = _scalar_columns(point, bound, bound + window)
    _vacuum_unit(point)
    v, moved, block = _moved_vacuum_block(point.ring.field, cols, bound)
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
        each power images[i] ** e is taken once.

        Both families of images are homogeneous: x_i goes to a series
        whose u^k coefficient has joint weight i - k.  So a monomial of
        weight W gives terms of total degree W, and the residue term n
        reads u^(n+1) times e_n (weight n) at joint weight <= w, that is
        products of total degree <= w + 1.  A monomial of weight past
        w + 1 contributes nothing and is skipped."""
        powers: dict[tuple[int, int], LaurentElement] = {}
        total = LaurentElement.zero(joint, cap)
        for mono, coeff in tau_poly.coeffs.items():
            if ring.weight(mono) > w + 1:
                continue
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
    # u^(n+1) z^n is z^-1
    return _sum_products(joint, ((ab.coefficient(n + 1), e_ser[n]) for n in range(w + 1)))
