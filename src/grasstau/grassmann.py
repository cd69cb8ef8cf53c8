"""Points of the series Grassmannian and their chart coordinates.

A point is a discrete submodule of the Laurent series space that agrees
with the standard tail span{z^e : e <= -(tail_depth+1)} from some depth
on.  It is stored as that tail depth plus the finitely many explicit
columns, each a Laurent element supported at exponents >= -tail_depth
(components inside the tail are reduced away; that is a column operation
and changes no minors).

The base point has tail depth N and columns z^{-N}, ..., z^{-1}: the
span of all negative exponents.

Charts are labelled by Maya diagrams S.  The minor of a point in chart S
is the determinant of the rows S picks out of the column matrix, rows
sorted by increasing exponent, columns in frame order.  The infinite
tail contributes an identity block that sits strictly below every
explicit row, so it never introduces a sign, and the base point's vacuum
minor is exactly 1.  A point lies in chart S when its minor there is a unit.

The index of a point is rank(window matrix over the residue field) minus
the tail depth.  The rank is the number of pivots ``linalg._echelon``
finds on the columns' residues (``_residues``), as are the finite
quotients'; tau reads points the same way.  For points in the zero-index
sector the charge-zero Maya diagrams (equivalently partitions) index the
charts that can be hit.
"""

from __future__ import annotations

from .errors import DomainError, NotInvertibleError, PrecisionError, RingMismatchError, _at_least
from .gamma import GammaElement
from .laurent import LaurentElement
from .linalg import _echelon, det_ring
from .partitions import MayaDiagram
from .scalars import CoeffRing, RingElement, _integer_vector


class GrassPoint:
    """tail span {z^e : e <= -(tail_depth+1)} plus explicit columns."""

    __slots__ = ("ring", "tail_depth", "columns")

    def __init__(self, ring: CoeffRing, tail_depth: int, columns):
        _at_least(tail_depth, 0, "tail_depth")
        cols = list(columns)
        for c in cols:
            if not isinstance(c, LaurentElement) or c.ring != ring:
                raise RingMismatchError("columns must be Laurent elements over the ring")
            if any(e < -tail_depth for e in c.coeffs):
                raise DomainError(
                    "column has components inside the tail; reduce them away first"
                )
        self.ring = ring
        self.tail_depth = tail_depth
        self.columns = cols

    @staticmethod
    def base_point(ring: CoeffRing, depth: int) -> "GrassPoint":
        """The span of all negative exponents, with the given tail depth."""
        cols = [LaurentElement.z_power(ring, e) for e in range(-depth, 0)]
        return GrassPoint(ring, depth, cols)

    @property
    def window_high(self) -> int | None:
        """Exponent where column knowledge ends (None: all columns exact)."""
        truncs = [c.trunc for c in self.columns if c.trunc is not None]
        return min(truncs) if truncs else None

    def __repr__(self) -> str:
        return (
            f"GrassPoint(tail_depth={self.tail_depth}, "
            f"columns={len(self.columns)}, window_high={self.window_high})"
        )


def index(point: GrassPoint) -> int:
    """rank of the window matrix over the residue field, minus tail depth.

    The rank r is the pivot count on the residues below the window
    (module docstring); with no columns there is no pivot, so r = 0.
    Requires the window to reach z^0; if truncated columns turn out
    dependent on the visible window the index cannot be pinned down and a
    PrecisionError is raised (exactly-known dependent columns are
    honestly dependent and just lower the rank).
    """
    depth = point.tail_depth
    m = point.window_high
    if m is not None and m < 0:
        raise PrecisionError("index needs the column window to reach z^0")
    if m is None:
        m = 1 + max((max(c.coeffs) for c in point.columns if c.coeffs), default=-depth)
    r = len(_echelon(_residues(point.columns, m), range(-depth, m), point.ring.field)[0])
    if r < len(point.columns) and point.window_high is not None:
        raise PrecisionError("columns are dependent on the visible window; index undetermined")
    return r - depth


def _rows(columns: list[LaurentElement], exponents) -> list[list]:
    """The matrix of the columns at the given exponents: one row per
    exponent in the order given, one entry per column in frame order.
    Coefficients past a column's window read as zero; callers that need
    them known check the window first."""
    zero = columns[0].ring.zero() if columns else None
    return [[c.coeffs.get(e, zero) for c in columns] for e in exponents]


def _residues(columns: list[LaurentElement], below: int) -> list[dict]:
    """Each column's residues below z^below as one {exponent: int} vector,
    a nonzero multiple of them (``scalars._integer_vector``)."""
    return [_integer_vector(c.coeffs, below) for c in columns]


def _chart_rows(point: GrassPoint, maya: MayaDiagram) -> list[int] | None:
    """The exponents of the rows the diagram selects, increasing, as many
    as the point's columns, or None when every minor in the chart
    vanishes: a tail exponent is missing, or the number of rows differs
    from the number of columns.  Raises PrecisionError, naming the first
    selected row at or past the point's window, when there is one."""
    for e in range(maya.tail_start, -point.tail_depth):
        if e not in maya.members:
            return None
    rows = maya.members_from(-point.tail_depth)
    if len(rows) != len(point.columns):
        return None
    m = point.window_high
    late = [e for e in rows if m is not None and e >= m]
    if late:
        raise PrecisionError(f"minor needs the coefficient of z^{late[0]}, beyond the window")
    return rows


def plucker(point: GrassPoint, maya: MayaDiagram) -> RingElement:
    """The minor of the point in the chart labelled by the diagram.

    Zero when the diagram misses part of the tail or selects a number of
    rows different from the number of columns; PrecisionError when a
    selected row lies beyond a column's window.
    """
    rows = _chart_rows(point, maya)
    if rows is None:
        return point.ring.zero()
    return det_ring(_rows(point.columns, rows), point.ring)


def in_chart(point: GrassPoint, maya: MayaDiagram) -> bool:
    """Does the point lie in the chart: is its minor there a unit?
    False is definitive; PrecisionError means the window cannot tell."""
    return plucker(point, maya).is_unit()


def chart_transition(point: GrassPoint, chart_a: MayaDiagram, chart_b: MayaDiagram) -> RingElement:
    """Ratio minor(A) / minor(B); the point must lie in chart B."""
    denom = plucker(point, chart_b)
    if not denom.is_unit():
        raise NotInvertibleError("point is not in the denominator chart")
    return plucker(point, chart_a) * denom.inverse()


def act(g: GammaElement, point: GrassPoint, promote: int | None = None) -> GrassPoint:
    """Multiply the point by a group element (zpower must be 0).

    The lower factor preserves the tail module exactly, so its action is
    just column multiplication followed by tail reduction.  The unit
    rescales the explicit columns (same module; minors pick up unit
    factors).  The upper factor does not preserve the tail, so the top
    ``promote`` tail columns are made explicit before multiplying; the
    result then has every minor correct for diagrams reaching at most
    ``promote`` below the old tail depth (default: the old tail depth).
    """
    if g.ring != point.ring:
        raise RingMismatchError("group element and point live over different rings")
    if g.zpower != 0:
        raise DomainError("action with a z-power shifts the index sector; split it off first")
    p = point.tail_depth if promote is None else _at_least(promote, 0, "promote")
    ring = point.ring
    depth = point.tail_depth
    cols = point.columns

    gm = g.gminus
    if gm.coeffs != {0: ring.one()}:
        cols = [(gm * c).clip_below(-depth) for c in cols]

    if g.unit != ring.one():
        cols = [c * g.unit for c in cols]

    gp = g.gplus
    if gp.coeffs != {0: ring.one()} or gp.trunc is not None:
        promoted = [
            gp.shift(-(depth + j)) for j in range(p, 0, -1)
        ]
        cols = promoted + [gp * c for c in cols]
        depth = depth + p

    return GrassPoint(ring, depth, cols)


# ----------------------------------------------------------------------
# Finite quotients L'/L and their embedding back into the Grassmannian
# ----------------------------------------------------------------------


def quotient_basis(small: GrassPoint, big: GrassPoint) -> list[LaurentElement]:
    """A deterministic basis of big/small, as explicit Laurent columns.

    Requires nested tails (big.tail_depth <= small.tail_depth), exactly
    known columns over a residue-field-like coefficient ring (residues
    are used), and small <= big, which is verified on the window.
    The basis consists of the tail gap exponents plus whichever columns
    of ``big`` add new pivots after ``small`` is reduced.
    """
    if small.ring != big.ring:
        raise RingMismatchError("points live over different rings")
    if big.tail_depth > small.tail_depth:
        raise DomainError("containment needs big.tail_depth <= small.tail_depth")
    if small.window_high is not None or big.window_high is not None:
        raise PrecisionError("quotient basis needs exactly known columns")
    ring = small.ring
    field = ring.field
    n = small.tail_depth

    # generators of big relative to small's tail: the tail gap, then the
    # explicit columns of big (reduced to exponents >= -n)
    gap = [LaurentElement.z_power(ring, e) for e in range(-n, -big.tail_depth)]
    gens = gap + [c.clip_below(-n) for c in big.columns]

    top = max([0] + [max(c.coeffs) + 1 for c in small.columns + gens if c.coeffs])
    # eliminating the rows {column index: residue} of [small | gens] in
    # column order, the pivot columns past small are the generators that
    # add to the span of everything before them; small <= big on the
    # window exactly when small adds nothing to the rank of gens, the
    # pivots at gens' indices of a copy of the rows (each is chosen by
    # its entry there, and each clear combines whole rows)
    k = len(small.columns)
    cols = _residues(small.columns + gens, top)
    rows = [{j: c[e] for j, c in enumerate(cols) if e in c} for e in range(-n, top)]
    pivots, _ = _echelon([dict(r) for r in rows], range(len(cols)), field)
    if len(pivots) != len(_echelon(rows, range(k, len(cols)), field)[0]):
        raise DomainError("the small point is not contained in the big one")
    return [gens[c - k] for c, _ in pivots if c >= k]


def embed_finite(
    vectors: list[list], small: GrassPoint, big: GrassPoint
) -> GrassPoint:
    """Embed a subspace of the finite quotient big/small as a point.

    ``vectors`` are coordinate rows with respect to
    ``quotient_basis(small, big)``.  The image is small plus the span of
    the corresponding combinations; its index is index(small) plus the
    rank of ``vectors``.
    """
    basis = quotient_basis(small, big)
    ring = small.ring
    field = ring.field
    new_cols = []
    for vec in vectors:
        if len(vec) != len(basis):
            raise DomainError(
                f"coordinate vector length {len(vec)} != quotient dimension {len(basis)}"
            )
        acc = LaurentElement.zero(ring)
        for a, b in zip(vec, basis):
            a = field.coerce(a)
            if a:
                acc = acc + b * ring.const(a)
        new_cols.append(acc)
    return GrassPoint(ring, small.tail_depth, small.columns + new_cols)
