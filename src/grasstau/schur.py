"""Schur polynomials in the weighted chart coordinates, and the
coefficient-to-polynomial dictionary.

The coordinate ring for degree bound d has variables x_1..x_d with
weight(x_i) = i, truncated past total weight d.  In these coordinates
x_i plays the role of the i-th complete homogeneous symmetric function,
and the polynomial attached to a partition is the Jacobi-Trudi
determinant

    F_lam = det( x_{lam_i - i + j} )    (x_0 = 1, x_{<0} = 0).

F_lam is weighted-homogeneous of weight |lam|, and the F_lam with
|lam| <= d form a basis that is unitriangular against the monomials.
Read the monomial x^A as the partition with A_i parts equal to i, so that
x^lam = x_{lam_1} x_{lam_2} ... .  Expanding the determinant, F_lam is
x^lam plus monomials whose partitions dominate lam, hence are
lexicographically larger (Macdonald, Symmetric Functions and Hall
Polynomials, 2nd ed., I.6).  So if p = sum c_lam F_lam, the
lexicographically smallest partition mu among p's monomials is the
smallest lam with c_lam != 0, and its coefficient is c_mu: no other F_lam
in the sum reaches x^mu.  ``to_schur_coords`` records c_mu, subtracts
c_mu F_mu and repeats until p is zero.  Each step removes one term of the
sum and divides by nothing, so this holds over every base field.

``bosonize`` sends a family of chart coefficients to the corresponding
polynomial; ``duality_pair`` is the bilinear form that makes the F_lam
orthonormal.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, RingMismatchError
from .linalg import det_ring
from .partitions import Partition, check_partition, partition_size
from .scalars import BaseField, CoeffRing, RingElement, _sum_products


def coordinate_ring(field: BaseField, bound: int) -> CoeffRing:
    """The canonical weighted chart-coordinate ring for a degree bound."""
    if bound < 0:
        raise DomainError("bound must be >= 0")
    return CoeffRing(field, bound, bound, weights=tuple(range(1, bound + 1)))


def is_coordinate_ring(ring: CoeffRing) -> bool:
    return (
        ring.weights == tuple(range(1, ring.num_vars + 1))
        and ring.degree_bound <= ring.num_vars
    )


def _require_coordinate_ring(ring: CoeffRing) -> None:
    if not is_coordinate_ring(ring):
        raise DomainError(
            "Schur machinery needs the weighted coordinate ring "
            "(weights 1..m, degree bound <= m)"
        )


@lru_cache(maxsize=None)
def schur_polynomial(ring: CoeffRing, lam: Partition) -> RingElement:
    """Jacobi-Trudi determinant for the partition; identically zero once
    |lam| exceeds the degree bound (the whole weight component vanishes)."""
    _require_coordinate_ring(ring)
    lam = check_partition(lam)
    if partition_size(lam) > ring.degree_bound:
        return ring.zero()
    ell = len(lam)

    def h(k: int) -> RingElement:
        if k < 0:
            return ring.zero()
        if k == 0:
            return ring.one()
        return ring.gen(k - 1)  # k <= lam_1 + ell - 1 <= |lam| <= num_vars

    mat = [
        [h(lam[i] - (i + 1) + (j + 1)) for j in range(ell)]
        for i in range(ell)
    ]
    return det_ring(mat, ring)


def _partition_of(mono) -> Partition:
    """The partition with mono[i] parts equal to i + 1, largest first."""
    return tuple(i + 1 for i in reversed(range(len(mono))) for _ in range(mono[i]))


def to_schur_coords(p: RingElement) -> dict[Partition, object]:
    """Write p as sum c_lam F_lam by peeling; returns the nonzero coefficients."""
    ring = p.ring
    _require_coordinate_ring(ring)
    out: dict[Partition, object] = {}
    while p:
        coeffs = p.coeffs
        mu, mono = min((_partition_of(m), m) for m in coeffs)
        c = out[mu] = coeffs[mono]
        p = p - schur_polynomial(ring, mu) * c
    return out


def bosonize(ring: CoeffRing, coords: dict) -> RingElement:
    """sum of c_lam F_lam for a finite family of chart coefficients, each
    a field scalar.  Partitions of size beyond the degree bound contribute
    nothing.
    """
    _require_coordinate_ring(ring)
    return _bosonized(ring, ((check_partition(lam), ring.const(c)) for lam, c in coords.items()))


def _bosonized(ring: CoeffRing, terms) -> RingElement:
    """sum of c_lam F_lam over (lam, c) pairs whose partitions are
    already checked and whose c are constants of the coordinate ring."""
    return _sum_products(ring, ((schur_polynomial(ring, lam), c) for lam, c in terms))


def duality_pair(p: RingElement, q: RingElement):
    """The bilinear form with <F_lam, F_mu> = delta; returns a field value."""
    if p.ring != q.ring:
        raise RingMismatchError("duality pairing needs a common ring")
    cp = to_schur_coords(p)
    cq = to_schur_coords(q)
    field = p.ring.field
    total = field.zero()
    for lam, a in cp.items():
        b = cq.get(lam)
        if b is not None:
            total = field.add(total, field.mul(a, b))
    return total
