"""Tau polynomials, the Baker function, and the KP residual.

The tau polynomial of a point U (over the base field, in the vacuum
chart) at degree bound d is the vacuum minor of v.U divided by the
vacuum minor of U, where v = 1 + x_1 z^{-1} + ... + x_d z^{-d} is the
universal lower-wing element over the weighted coordinate ring.  Two
independent routes compute it:

* ``tau_direct``: bring the point to its Sato normal form over the
  field (``linalg._echelon``, fraction-free over Q), columns
  z^{-i} + (terms at z^0 and above), cut to depth m = min(depth, d), and
  take one m x m determinant of v times it;
* ``tau_schur``: expand the vacuum minor of v.U over the charts of U,
  which gives sum_lam F_lam * (pi_lam(U) / pi_0(U)), a family of
  Plucker ratios that ``schur.bosonize`` sums.  One elimination on the
  point's columns gives its chart coordinates A, and each ratio is a
  signed r x r minor of A, r^2 <= |lam| (Frobenius coordinates).

They must agree exactly; keeping both is the point of the design.  Past
the input checks they share only ``linalg._eliminate``: the direct route
runs it inside ``det_ring`` on v times the normal form, the Schur route
on the point's own columns, and neither reads the other's normal form or
moved rows.
``tau_direct``, ``tau_schur`` and ``baker`` run the same checks,
``_check_point``: the degree bound, the window, scalar coefficients and
as many columns as the tail depth, in that order, before v is built.
Only ``tau_direct`` and ``baker`` then read the values over the field
(``grassmann._residues``), each column as one int vector, a nonzero
multiple of it; ``tau_schur`` eliminates on the point's own coefficients
and hands each nonzero ratio to ``schur._bosonized`` as a constant of
the coordinate ring.  No ``Fraction`` is built between the point and tau.
The rest of the vacuum chart comes last, decided by the first thing each
route computes: the field elimination for ``tau_direct``, the ring
elimination for ``tau_schur``, the solve on the moved vacuum block for
``baker``, with one error and message.  So all three refuse the same
input with the same error.

The rows of v.U are written off the scalar columns as linear forms,
(v.c)_e = sum_{k=0..d} x_k c_{e+k} with x_0 = 1, unknown tails as zero,
each from int numerators over one denominator;
``tau_direct`` and ``baker`` argue that nothing they return sees those.

``baker`` produces the associated wave series psi, the unique series with
z^{-1} psi in the point and v psi = 1 + O(z) (Segal-Wilson, in this
lower-wing convention).  That is one linear condition on the vacuum block
B of v.U, the block ``grassmann.plucker`` reads: tau is det B on the
cut normal form; psi solves B a = e_n over the coordinate ring, and
psi = w / v, w = z sum_j a_j v.c_j, is one series division.
Sato's formula, psi = v^{-1} times the shifted tau over tau, gives the
same series; the tests keep it as the reference.

``kp_residual`` evaluates the bilinear residue identity that
characterizes tau functions in tau's own coordinates x_i = H_i(T), the
complete homogeneous functions of the times T_j (weight j): there the
two Miwa shifts by [z^{-1}] are substitutions with integer coefficients,
with u = 1/z a ring variable of weight 1, and the exponential is one
series division.  That frame depends only on the field and the order,
and is built once for each.  Only a nonzero residual is pulled back to
the times.
The residual of a degree-d tau polynomial is provably exact in joint
weight <= d - 1, so checking through weight order+2 needs order <= d - 3.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, InternalError, NotInvertibleError, PrecisionError, _at_least
from .gamma import GammaElement, _exp_coefficients, universal_v
from .grassmann import GrassPoint, _residues, _rows, act, plucker
from .laurent import LaurentElement, _divide
from .linalg import _back_reduce, _echelon, _eliminate, det_ring, solve_ring
from .partitions import MayaDiagram, conjugate, partitions_up_to
from .scalars import (
    CoeffRing,
    RingElement,
    _linear_form,
    _recast,
    _split_last,
    _substitute,
    _sum_products,
)
from .schur import _bosonized, coordinate_ring, is_coordinate_ring


_OFF_CHART = (
    "point is not in the vacuum chart; the tau normalization needs an invertible vacuum minor"
)


def _check_point(point: GrassPoint, bound: int, need: int) -> None:
    """The checks every tau route makes first, in one order: an int degree
    bound >= 1, columns known below z^need, scalar coefficients, and as
    many columns as the tail depth, since any other count makes the
    vacuum minor zero.  A ring with no variables, or with degree bound 0,
    holds only constants, so the scalar scan runs only on other rings.
    The rest of the vacuum chart is decided by what each route computes
    first: the elimination of ``tau_direct`` and of ``tau_schur``, the
    solve of ``baker``."""
    _at_least(bound, 1, "degree bound")
    m = point.window_high
    if m is not None and m < need:
        raise PrecisionError(
            f"columns are known only below z^{m}; degree bound needs z^{need}"
        )
    ring = point.ring
    if ring.num_vars and ring.degree_bound:
        for c in point.columns:
            if not all(coeff.is_constant() for coeff in c.coeffs.values()):
                raise DomainError("tau needs a point with scalar coefficients")
    if len(point.columns) != point.tail_depth:
        raise NotInvertibleError(_OFF_CHART)


def _moved_rows(cols: list[tuple[dict, int]], rows, ring: CoeffRing) -> list[list[RingElement]]:
    """The rows of v.U at the exponents ``rows``, over the coordinate ring
    ``ring`` of bound d, U spanned by the scalar columns c = vec / den
    given as (vec, den) pairs, vec an {exponent: int} dict: entry (e, j)
    is the linear form (v.c_j)_e = sum_{k=0..d} x_k c_{j,e+k}, x_0 = 1, a
    missing c_{j,e+k} read as zero.  Tail reduction drops only rows below
    -depth."""
    d = ring.degree_bound
    return [
        [_linear_form(ring, {k: c[e + k] for k in range(d + 1) if e + k in c}, den) for c, den in cols]
        for e in rows
    ]


def tau_direct(point: GrassPoint, bound: int) -> RingElement:
    """Vacuum minor of v.point over the vacuum minor of point, read off
    the point's Sato normal form cut to depth m = min(depth, bound): the
    m x m determinant of the moved vacuum block of span{c'_m, ..., c'_1},
    rows (v.c')_e = sum_{k=0..bound} x_k c'_{e+k}, e = -m, ..., -1, x_0 = 1.

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
    is left.  Row -1 reads c' below z^bound, so no unknown tail enters.

    The normal form (Segal-Wilson, Publ. Math. IHES 61, 1985, sections
    2-3) is ``linalg._echelon`` on the columns cut below z^bound, which no
    moved vacuum block at this bound reads, with the rows -n..-1 taken
    deepest first; a row with no pivot means a zero vacuum minor, and the
    point is refused.  Back reduction of the last m pivots alone gives
    the last m columns of the full Gauss-Jordan form, c'_m, ..., c'_1,
    each as an int vector over its entry at its pivot (1 in
    characteristic p), from ``grassmann._residues`` of the columns below
    the cut, each a nonzero multiple of its column.
    """
    _check_point(point, bound, bound)
    field = point.ring.field
    n = point.tail_depth
    pivots, _ = _echelon(_residues(point.columns, bound), range(-n, 0), field)
    if len(pivots) < n:
        raise NotInvertibleError(_OFF_CHART)
    normal = [(c, c[e]) for e, c in _back_reduce(pivots[n - min(n, bound):], field)]
    ring = coordinate_ring(field, bound)
    return det_ring(_moved_rows(normal, range(-len(normal), 0), ring), ring)


def tau_schur(point: GrassPoint, bound: int) -> RingElement:
    """Chart expansion: sum over |lam| <= bound of F_lam times the Plucker
    ratio pi_lam / pi_0 of the point, every ratio read off one
    elimination on its columns (Sato and Sato; Segal-Wilson, sections 2-3).

    Let n be the tail depth and m = min(n, bound).  The ratios with
    |lam| <= bound read the columns at exponents -n..bound-1 only, and a
    change of basis of the point, a column operation, multiplies every
    pi_lam by one determinant.  A partition longer than n has a zero
    minor; every other such chart keeps the deep vacuum rows -n..-m-1,
    as its holes are -1-beta_j >= -l(lam) >= -m.  Elimination on unit
    pivots along those rows leaves n - m columns that are triangular
    there and m columns that vanish there, so each minor is the
    triangular block's determinant, common to all charts, times the minor
    of the m shallow columns.  Their rows -m..-1 form H and rows
    0..bound-1 form P.  With det H a unit, the columns P H^{-1} give the
    chart coordinates A(a, h) of the point: column h is z^h plus
    sum_a A(a, h) z^a up to z^bound, for h = -m..-1 and a >= 0.  A column
    count other than n, or a singular deep block or H, means pi_0 = 0:
    the point is outside the vacuum chart.

    In that basis a chart lam, with Frobenius coordinates
    (alpha_1 > ... > alpha_r | beta_1 > ... > beta_r), alpha_i = lam_i - i
    and beta_i = lam'_i - i for the r indices with lam_i >= i, has the
    particles alpha_i and the holes -1-beta_j; it picks the unit rows
    of the kept holes and the particle rows alpha_i.  Expanding along the
    unit rows leaves det[A(alpha_i, -1-beta_j)] with rows alpha_r, ...,
    alpha_1 and columns -1-beta_1, ..., -1-beta_r; moving the hole columns
    past the unit columns to their right takes sum_j beta_j - r(r-1)/2
    transpositions, and reversing the rows r(r-1)/2 more.  So
    pi_lam / pi_0 = (-1)^(beta_1 + ... + beta_r) det[A(alpha_i, -1-beta_j)],
    an r x r minor with r^2 <= |lam|: the entry itself for r = 1.  The
    alpha_i, the holes and the sign of each lam come from ``_chart_table``,
    made once per (field, bound), and F_lam is fetched only for a nonzero
    ratio.  A ratio is a constant of the point's ring, and goes to the
    coordinate ring as it is (``scalars._recast``).
    """
    _check_point(point, bound, bound)
    n = point.tail_depth
    m = min(n, bound)
    deep = n - m
    mat = [list(col) for col in zip(*_rows(point.columns, range(-n, bound)))]
    if _eliminate(mat, deep)[0] < deep:
        raise NotInvertibleError(_OFF_CHART)
    shallow = mat[deep:]
    ring = point.ring
    try:
        chart = solve_ring(
            [row[deep:n] for row in shallow],
            [[row[n + a] for row in shallow] for a in range(bound)],
            ring,
        )
    except NotInvertibleError:
        raise NotInvertibleError(_OFF_CHART) from None
    coord_ring, charts = _chart_table(ring.field, bound)
    coords = [((), coord_ring.one())]
    for lam, particles, holes, odd in charts:
        if len(lam) > n:
            continue
        if len(particles) == 1:
            ratio = chart[particles[0]][holes[0] + m]
        else:
            ratio = det_ring([[chart[a][h + m] for h in holes] for a in particles], ring)
        if ratio:
            coords.append((lam, _recast(-ratio if odd else ratio, coord_ring)))
    return _bosonized(coord_ring, coords)


@lru_cache(maxsize=None)
def _chart_table(field, bound: int) -> tuple[CoeffRing, tuple]:
    """What ``tau_schur`` reads of the partitions at a degree bound, made
    once per (field, bound): the coordinate ring, and for each nonempty
    lam with |lam| <= bound the tuple (lam, particles, holes, odd), with
    particles alpha_i = lam_i - i, holes -1 - beta_j and odd the parity
    of sum_j beta_j."""
    charts = []
    for lam in partitions_up_to(bound)[1:]:
        particles = tuple(p - i - 1 for i, p in enumerate(lam) if p > i)
        # hole -1 - beta_j, beta_j = lam'_j - j
        holes = tuple(j - c for j, c in enumerate(conjugate(lam)[: len(particles)]))
        odd = (len(holes) + sum(holes)) % 2 == 1  # sum beta_j, beta_j = -1 - h_j
        charts.append((lam, particles, holes, odd))
    return coordinate_ring(field, bound), tuple(charts)


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
    delta = plucker(point, MayaDiagram.vacuum())
    if not delta.is_unit():
        raise NotInvertibleError(_OFF_CHART)
    return plucker(act(g, point), MayaDiagram.vacuum()) * delta.inverse()


# ----------------------------------------------------------------------
# Baker function
# ----------------------------------------------------------------------


def baker(point: GrassPoint, bound: int, window: int) -> LaurentElement:
    """The wave series of the point, with coefficients in the degree-
    ``bound`` coordinate ring, exact at every z-exponent below ``window``.

    psi is the unique series with z^{-1} psi in the point and
    v psi = 1 + O(z), v = universal_v(field, bound).  The rows
    (v.c_j)_e = sum_{k=0..bound} x_k c_{j,e+k}, x_0 = 1, at e = -n..-1 are
    the vacuum block B of v.point.  Its residue is the point's vacuum
    block, so B is invertible exactly in the vacuum chart, and the solve
    of B a = (0, ..., 0, 1) is the chart check.  Then
    w = z sum_j a_j v.c_j = 1 + O(z), w_{e+1} = sum_j a_j (v.c_j)_e, and
    psi = w / v is one series division (``laurent._divide``).  Below
    z^window it reads w below z^(window + bound) only, since v^{-1} stops
    at z^{-bound}, so w is taken as the polynomial of those terms.  The
    columns are read as ``grassmann._residues`` of their part below
    z^(bound + window), the part ``_check_point`` found known: each times
    the lcm of its denominators, a scale that cancels from w, and its
    unknown tail as zero, which is harmless: each unit of x-weight moves
    a column index up by at most one, and weights stop at ``bound``, so
    psi's z^k coefficient reads the columns only up to z^(k + bound - 1),
    inside the window the precondition below asks for.

    The point's columns must be known to z^(bound + window).
    """
    _at_least(bound, 1, "degree bound")
    _at_least(window, 1, "window")
    _check_point(point, bound, bound + window)
    cols = [(c, 1) for c in _residues(point.columns, bound + window)]
    v = universal_v(point.ring.field, bound).gminus
    ring = v.ring
    vacuum = range(-len(cols), 0)
    e_n = [ring.one() if e == -1 else ring.zero() for e in vacuum]
    try:
        (a,) = solve_ring(_moved_rows(cols, vacuum, ring), [e_n], ring)
    except NotInvertibleError:
        raise NotInvertibleError(_OFF_CHART) from None
    w = {0: ring.one()}
    for e, row in enumerate(_moved_rows(cols, range(window + bound - 1), ring)):
        w[e + 1] = _sum_products(ring, zip(row, a))
    return _divide(LaurentElement(ring, w), v, None).truncate(window)


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

    The identities.  Write X(s) = sum_i x_i s^i = exp(sum_j T_j s^j),
    x_0 = 1, so x_i = H_i(T), and X'(s) likewise in T'.  The shift
    T - [u], T_j -> T_j - u^j/j, multiplies X(s) by exp(-sum_j (us)^j/j)
    = 1 - us, so x_i -> x_i - u x_{i-1}; the shift T' + [u] divides X'(s)
    by 1 - us, so x'_i -> sum_k x'_{i-k} u^k = x'_i + u (x'_{i-1}'s image);
    and exp(sum_j (T_j - T'_j) z^j) = X(z) / X'(z), whose z^n coefficient
    e_n comes from one division of two exact series with constant term 1
    (``laurent._divide``).  With u = 1/z, u^(n+1) z^n is z^-1, so the
    residual in x and x' is Phi = sum_n e_n times the u^(n+1) part of the
    product of the two substituted taus.

    The pullback.  The result is R(T, T') = Phi(H(T), H(T')).  The map
    x_i -> H_i(T) = T_i + (a polynomial in T_1..T_{i-1}) keeps weights and
    is unitriangular, so it is an automorphism of the truncated ring: its
    inverse has the same form, solved for T_i by induction on i.  So R is
    zero exactly when Phi is; a zero Phi is returned as it is, the zero of
    the ring of the times, and a nonzero one is substituted once, with
    the H_i read off exp(sum_j T_j s^j).

    The cut.  With w = order + 2 every image has its variable's weight,
    so tau's monomials of weight W give terms of weight W.  The residue
    reads the u^(n+1) part of the product times e_n (weight n) at joint
    weight <= w, so terms of weight <= w + 1 only: the ring of x, x' and u
    is cut past w + 1, and tau's heavier monomials are skipped.  In weight
    w + 1, x_{w+1} and x'_{w+1} stand alone, against the other factor's
    constant term, so their u^0 parts reach only the u^0 part of the
    product, which the residue never reads: they map to their u parts,
    and the ring needs no variable for them.

    The frame.  The two rings, the images of the shifts, the e_n and the
    H_i of the pullback depend only on the field and w, not on tau:
    ``_kp_frame`` builds them once per (field, w), after the refusals.
    """
    ring = tau_poly.ring
    if not is_coordinate_ring(ring):
        raise DomainError("kp_residual expects the weighted coordinate ring")
    field = ring.field
    if field.char != 0:
        raise DomainError("the residue identity uses exponentials: characteristic zero only")
    _at_least(order, 0, "order")
    d = ring.degree_bound
    w = order + 2
    if d < w + 1:
        raise DomainError(f"order {order} needs degree bound >= {order + 3}, have {d}")
    joint, shifted, a_images, b_images, e, h = _kp_frame(field, w)
    a, b = (_substitute(tau_poly, images, shifted, w + 1) for images in (a_images, b_images))
    split = _split_last(a * b, joint)  # u^k parts
    phi = _sum_products(joint, ((split[n + 1], e[n]) for n in range(w + 1) if n + 1 in split))
    if not phi:
        return phi
    return _substitute(phi, h, joint, w)


@lru_cache(maxsize=None)
def _kp_frame(field, w: int) -> tuple:
    """What ``kp_residual`` reads besides tau at w = order + 2, made once
    per (field, w): the ring of x and x' (the ring of the result), the
    ring with u, the images of the two Miwa shifts, the e_n, n <= w, of
    X / X', and the images H_i(T), H_i(T') of x_i and x'_i."""
    weights = tuple(range(1, w + 1)) * 2
    joint = CoeffRing(field, 2 * w, w, weights=weights)
    shifted = CoeffRing(field, 2 * w + 1, w + 1, weights=weights + (1,))
    one, u = shifted.one(), shifted.gen(2 * w)
    xs = [one] + [shifted.gen(i) for i in range(w)]
    # x_i -> x_i - u x_(i-1), x'_i -> x'_i + u (x'_(i-1)'s image); x_(w+1) and
    # x'_(w+1) keep only their u parts
    a_images = [xs[i] - u * xs[i - 1] for i in range(1, w + 1)] + [-(u * xs[w])]
    b_images, image = [], one
    for i in range(w):
        image = shifted.gen(w + i) + u * image
        b_images.append(image)
    b_images.append(u * image)
    x, xp = (
        LaurentElement(joint, {0: joint.one(), **{i: joint.gen(s + i - 1) for i in range(1, w + 1)}})
        for s in (0, w)
    )
    e = _divide(x, xp, w + 1).coeffs  # e_n, n <= w: X / X' = exp(sum (T_j - T'_j) z^j)
    # x_i = H_i(T), x'_i = H_i(T'): sum_i H_i s^i = exp(sum_j T_j s^j)
    h, hp = (_exp_coefficients(joint, [joint.gen(s + j) for j in range(w)], w)[1:] for s in (0, w))
    return joint, shifted, tuple(a_images), tuple(b_images), tuple(e[n] for n in range(w + 1)), tuple(h + hp)
