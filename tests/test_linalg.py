"""Determinants and inverses of matrices over the truncated rings.

``det_ring`` is checked against the Leibniz sum over all permutations, an
oracle that shares no code with the elimination.  The frozen values were
computed by the earlier cofactor-expansion ``det_ring`` and agree with
the current one under ``==``.  ``echelon_field`` is checked against the
dense Gauss-Jordan elimination it ran before the sparse kernel.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GrassPoint,
    LaurentElement,
    NotInvertibleError,
    coordinate_ring,
    tau_crosscheck,
)
from grasstau.linalg import (
    _back_reduce,
    _echelon,
    det_field,
    det_ring,
    echelon_field,
    inv_ring,
    mat_mul_ring,
    rank_field,
    solve_field,
    solve_ring,
)
from grasstau.scalars import RingElement

# plain rings (weights 1) and weighted coordinate rings; degree bounds 2
# and 3, so a nilpotent block of size <= 6 falls on both sides of them;
# and the zero-variable rings of scalar points, which tau_schur eliminates in
RINGS = (
    [CoeffRing(f, 2, 2) for f in (QQ, GF(2), GF(3), GF(5))]
    + [coordinate_ring(f, 3) for f in (QQ, GF(2), GF(3), GF(5))]
    + [CoeffRing(f, 0, 0) for f in (QQ, GF(5))]
)


def _scalar(rng: Random, field, nonzero: bool):
    while True:
        if field.char:
            v = field.from_int(rng.randrange(field.char))
        else:
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if v or not nonzero:
            return v


def _entry(rng: Random, ring: CoeffRing, unit_share: float):
    """Zero a quarter of the time; else a unit with probability
    ``unit_share``, plus up to two nilpotent monomials."""
    if rng.random() < 0.25:
        return ring.zero()
    coeffs = {}
    if rng.random() < unit_share:
        coeffs[(0,) * ring.num_vars] = _scalar(rng, ring.field, nonzero=True)
    nilpotent = [m for m in ring.monomials() if any(m)]
    for mono in rng.sample(nilpotent, min(rng.randint(0, 2), len(nilpotent))):
        coeffs[mono] = _scalar(rng, ring.field, nonzero=False)
    return ring.element(coeffs)


def _matrix(rng: Random, ring: CoeffRing, n: int, unit_share: float):
    return [[_entry(rng, ring, unit_share) for _ in range(n)] for _ in range(n)]


def _leibniz(rows, ring):
    total = ring.zero()
    for perm in permutations(range(len(rows))):
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
            if not term:
                break
        if term:
            inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
            total = total - term if inversions % 2 else total + term
    return total


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(RINGS),
    st.integers(0, 6),
    st.sampled_from([0, 0.1, 0.3, 0.7]),
    st.integers(0, 2**32 - 1),
)
def test_det_ring_matches_the_leibniz_sum(ring, n, unit_share, seed):
    rng = Random(seed)
    rows = _matrix(rng, ring, n, unit_share)
    if n and rng.random() < 0.1:
        rows[rng.randrange(n)].pop()
        with pytest.raises(DomainError):
            det_ring(rows, ring)
        return
    snapshot = [list(r) for r in rows]
    assert det_ring(rows, ring) == _leibniz(rows, ring)
    assert rows == snapshot


def test_det_ring_of_a_nilpotent_14_by_14_frozen():
    ring = CoeffRing(QQ, 2, 20)
    x1, x2 = ring.gen(0), ring.gen(1)
    rng = Random(14)
    a = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(14 * 14)]
    rows = [[x1 * a[14 * i + j][0] + x2 * a[14 * i + j][1] for j in range(14)] for i in range(14)]
    expected = {
        (0, 14): 673287678,
        (1, 13): 2333718221,
        (2, 12): -5737230055,
        (3, 11): -20167357888,
        (4, 10): -32702010907,
        (5, 9): 38855784665,
        (6, 8): 13270490291,
        (7, 7): 120081982751,
        (8, 6): 64200257156,
        (9, 5): -33408689238,
        (10, 4): -48827341136,
        (11, 3): -83465357108,
        (12, 2): -14415544383,
        (13, 1): 4523521756,
        (14, 0): -2481905940,
    }
    got = det_ring(rows, ring)
    assert got == ring.element(expected)
    # the extreme coefficients are determinants over the field
    for k, mono in ((0, (14, 0)), (1, (0, 14))):
        field_rows = [[QQ.from_int(a[14 * i + j][k]) for j in range(14)] for i in range(14)]
        assert got.coefficient(mono) == det_field(field_rows, QQ)


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(RINGS),
    st.integers(0, 5),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_inv_ring_inverts_exactly_when_the_residue_matrix_does(ring, n, unit_share, seed):
    rows = _matrix(Random(seed), ring, n, unit_share)
    residues = [[e.constant_term() for e in row] for row in rows]
    if not det_field(residues, ring.field):
        with pytest.raises(NotInvertibleError):
            inv_ring(rows, ring)
        return
    inverse = inv_ring(rows, ring)
    identity = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    assert mat_mul_ring(rows, inverse, ring) == identity
    assert mat_mul_ring(inverse, rows, ring) == identity


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(RINGS),
    st.integers(0, 5),
    st.integers(0, 3),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_solve_ring_solves_exactly_when_the_residue_matrix_is_invertible(ring, n, k, unit_share, seed):
    rng = Random(seed)
    rows = _matrix(rng, ring, n, unit_share)
    rhs = [[_entry(rng, ring, unit_share) for _ in range(n)] for _ in range(k)]
    residues = [[e.constant_term() for e in row] for row in rows]
    if not det_field(residues, ring.field):
        with pytest.raises(NotInvertibleError):
            solve_ring(rows, rhs, ring)
        return
    cols = solve_ring(rows, rhs, ring)
    assert len(cols) == k
    for x, b in zip(cols, rhs):
        assert [row[0] for row in mat_mul_ring(rows, [[e] for e in x], ring)] == b


def test_elimination_takes_no_ring_difference(monkeypatch):
    """Each entry an elimination or a back substitution updates is one
    fused a - b * c, reduced once: with ``RingElement.__sub__`` raising,
    ``det_ring`` and ``solve_ring`` still return, and return the same."""
    rng = Random(23)
    cases = []
    for ring in RINGS:
        rows = _matrix(rng, ring, 5, 0.7)
        while not det_field([[e.constant_term() for e in row] for row in rows], ring.field):
            rows = _matrix(rng, ring, 5, 0.7)
        rhs = [[_entry(rng, ring, 0.7) for _ in range(5)] for _ in range(2)]
        cases.append((ring, rows, rhs, det_ring(rows, ring), solve_ring(rows, rhs, ring)))

    def refuse(self, other):
        raise AssertionError("RingElement.__sub__ called")

    monkeypatch.setattr(RingElement, "__sub__", refuse)
    for ring, rows, rhs, det, cols in cases:
        assert det_ring(rows, ring) == det
        assert solve_ring(rows, rhs, ring) == cols


def test_solve_ring_refuses_bad_shapes():
    ring = RINGS[0]
    one = ring.one()
    with pytest.raises(DomainError, match="^solve_ring needs a square matrix$"):
        solve_ring([[one, one]], [[one]], ring)
    with pytest.raises(DomainError, match="^right-hand side length does not match$"):
        solve_ring([[one]], [[one, one]], ring)


def test_solve_field_refuses_an_inconsistent_system():
    # the second row is twice the first, the right-hand side is not
    assert solve_field([[1, 2], [2, 4]], [1, 3], GF(5)) is None
    assert solve_field([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [1, 3], QQ) is None


def test_solve_field_sets_free_variables_to_zero_on_a_rank_deficient_system():
    a = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    b = [Fraction(5), Fraction(10), Fraction(1)]
    x = solve_field(a, b, QQ)
    assert x == [Fraction(2), Fraction(0), Fraction(1)]
    assert [sum(aij * xj for aij, xj in zip(row, x)) for row in a] == b


def _reference_echelon(rows, field):
    """Dense Gauss-Jordan on every entry, with field operations."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv_p = field.invert(mat[r][c])
        mat[r] = [field.mul(inv_p, v) for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def _field_matrix(rng: Random, field, nrows: int, ncols: int):
    """Entries zero half the time and 1 a sixth of it, so zero rows and
    columns and pivots already 1 are common; over Q a Fraction or an int.
    Some rows are combinations of the first two, so the rank drops."""

    def entry():
        u = rng.random()
        v = 0 if u < 0.5 else 1 if u < 0.65 else rng.randint(-4, 4)
        if field.char:
            return v % field.char
        return Fraction(v, rng.randint(1, 3)) if rng.random() < 0.5 else v

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for i in range(2, nrows):
        if rng.random() < 0.3:
            a, b = entry(), entry()
            rows[i] = [field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(rows[0], rows[1])]
    return rows


FIELDS = (QQ, GF(2), GF(3), GF(5))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_echelon_field_matches_dense_gauss_jordan(field, nrows, ncols, seed):
    rows = _field_matrix(Random(seed), field, nrows, ncols)
    snapshot = [list(r) for r in rows]
    rref, pivots = echelon_field(rows, field)
    assert (rref, pivots) == _reference_echelon(rows, field)
    assert rank_field(rows, field) == len(pivots)
    assert rows == snapshot


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(FIELDS),
    st.integers(0, 6),
    st.integers(0, 7),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_back_reduce_of_the_last_pivots_is_the_last_rows(field, nrows, ncols, k, seed):
    """What lets ``tau_direct`` back-reduce only the pivots it keeps;
    the rows are taken in a random order.  The vectors hold ints, each row
    over Q times the lcm of its denominators.  One rule in every
    characteristic: a pivot is its line's reduced vector, primitive with
    a positive entry at its index e (1 in characteristic p), and a
    back-reduced row read as vec / vec[e] is the dense Gauss-Jordan row
    on the columns taken in the pivot order."""
    rng = Random(seed)
    rows = _field_matrix(rng, field, nrows, ncols)
    ints = rows
    if not field.char:
        dens = [lcm(*[Fraction(v).denominator for v in r]) for r in rows]
        ints = [[int(v * d) for v in r] for r, d in zip(rows, dens)]
    vectors = [{c: v for c, v in enumerate(r) if v} for r in ints]
    order = rng.sample(range(ncols), ncols)
    pivots, rest = _echelon(vectors, order, field)
    assert len(pivots) + len(rest) == nrows
    assert all(type(a) is int for _, vec in pivots for a in vec.values())
    assert all(vec[e] > 0 and gcd(*vec.values()) == 1 for e, vec in pivots)
    assert not field.char or all(vec[e] == 1 for e, vec in pivots)
    full = _back_reduce(pivots, field)
    assert _back_reduce(pivots[k:], field) == full[k:]
    dense, dense_pivots = _reference_echelon([[r[c] for c in order] for r in rows], field)
    assert [e for e, _ in full] == [order[c] for c in dense_pivots]
    for (e, vec), row in zip(full, dense):
        inv = field.invert(vec[e])
        assert [field.mul(vec.get(c, 0), inv) for c in order] == row


def test_tau_crosscheck_at_tail_depth_14_frozen():
    ring = CoeffRing(QQ, 0, 0)
    cols = []
    for j in range(14, 0, -1):
        coeffs = {-j: 1}
        for e in range(-j + 1, 4):
            c = (j * j + 3 * e + j * e) % 5 - 2
            if c:
                coeffs[e] = c
        cols.append(LaurentElement(ring, coeffs))
    tau = tau_crosscheck(GrassPoint(ring, 14, cols), 3)
    x1, x2, x3 = (tau.ring.gen(i) for i in range(3))
    assert tau == 1 - x1 + 2 * x2 - 4 * x1 * x1 + 11 * x3 - 12 * x1 * x2 + 3 * x1 * x1 * x1
