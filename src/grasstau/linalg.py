"""Small dense linear algebra over coefficient rings and base fields.

Two flavours are needed.  Matrices of ``RingElement`` values live over a
local ring with nilpotents.  Their determinants go through Gaussian
elimination on unit pivots, finishing a block whose next column has no
unit by Berkowitz's division-free recursion (or by zero, when that
column is zero); their linear systems and inverses go through
Gauss-Jordan with unit pivots, which always exist when the matrix is
invertible.  Matrices of raw field values use ordinary row reduction;
those power rank, solve, and determinant checks over the residue field.

Everything here is exact and runs in polynomial time: ``tau_direct``
takes dense minors as large as the tail depth.  The ring loops skip zero
entries, which most identity-block and Jacobi-Trudi entries are.
"""

from __future__ import annotations

from .errors import DomainError, NotInvertibleError
from .scalars import BaseField, CoeffRing, RingElement

# ----------------------------------------------------------------------
# Ring-valued matrices (entries are RingElement)
# ----------------------------------------------------------------------


def det_ring(rows: list[list[RingElement]], ring: CoeffRing) -> RingElement:
    """Determinant of a square matrix over the ring.

    Gaussian elimination on unit pivots.  Step k pivots on the first unit
    in column k, swapped to (k, k), which flips the sign.  If the pivot
    row is zero right of the pivot, or the pivot column zero below it,
    Laplace expansion along it gives det = pivot * det(minor) with no
    inverse; otherwise subtracting multiples of the pivot row, scaled by
    the pivot's inverse, clears column k below the pivot without changing
    the determinant, which again is pivot * det(minor).  A column with no
    unit left is either zero, and so is the determinant, or nilpotent,
    and Berkowitz's division-free recursion finishes the remaining block.
    A unit determinant never gets there: over a local ring its residue
    matrix is invertible, so every column of the remaining block has a
    unit.  The empty matrix has determinant one, which is what makes
    vacuum minors come out right.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DomainError("det_ring needs a square matrix")
    mat = [list(r) for r in rows]
    det = ring.one()
    negate = False
    for k in range(n):
        pr = next((i for i in range(k, n) if mat[i][k].is_unit()), None)
        if pr is None:
            if not any(row[k] for row in mat[k:]):
                return ring.zero()
            det = det * _berkowitz([row[k:] for row in mat[k:]], ring)
            break
        if pr != k:
            mat[k], mat[pr] = mat[pr], mat[k]
            negate = not negate
        prow = mat[k]
        pivot = prow[k]
        det = det * pivot
        live = [j for j in range(k + 1, n) if prow[j]]
        below = [row for row in mat[k + 1:] if row[k]]
        if not live or not below:
            continue
        inv_p = pivot.inverse()
        for row in below:
            factor = row[k] * inv_p
            for j in live:
                row[j] = row[j] - factor * prow[j]
    return -det if negate else det


def _berkowitz(a: list[list[RingElement]], ring: CoeffRing) -> RingElement:
    """Determinant by Berkowitz's recursion (Inf. Proc. Letters 18, 1984).

    Division-free over any commutative ring.  ``poly`` holds the
    characteristic polynomial det(x - A_r) of the leading r x r block,
    highest coefficient first.  Bordering A_r by column c, row s and
    corner a multiplies it by the lower-triangular Toeplitz matrix with
    first column (1, -a, -s c, -s A_r c, ..., -s A_r^{r-1} c).
    """
    n = len(a)
    zero = ring.zero()
    poly = [ring.one()]
    for r in range(n):
        block = [row[:r] for row in a[:r]]
        border = a[r][:r]
        col = [row[r] for row in a[:r]]
        toeplitz = [ring.one(), -a[r][r]]
        for i in range(r):
            toeplitz.append(-_dot(border, col, zero))
            if i < r - 1:
                col = [_dot(row, col, zero) for row in block]
        poly = [_dot(toeplitz[i::-1], poly, zero) for i in range(r + 2)]
    return -poly[n] if n % 2 else poly[n]


def _dot(u: list[RingElement], v: list[RingElement], zero: RingElement) -> RingElement:
    acc = zero
    for x, y in zip(u, v):
        if x and y:
            acc = acc + x * y
    return acc


def mat_mul_ring(
    a: list[list[RingElement]], b: list[list[RingElement]], ring: CoeffRing
) -> list[list[RingElement]]:
    if any(len(row) != len(b) for row in a):
        raise DomainError("inner dimensions do not match")
    cols = list(zip(*b))
    return [[_dot(row, col, ring.zero()) for col in cols] for row in a]


def solve_ring(
    mat: list[list[RingElement]], rhs_columns: list[list[RingElement]], ring: CoeffRing
) -> list[list[RingElement]]:
    """The columns x with mat x = b, one for each column b of ``rhs_columns``.

    Gauss-Jordan on [mat | b ...], always pivoting on a unit entry.  Over a
    local ring a matrix is invertible iff its residue matrix is, in which
    case a unit pivot exists in every elimination column.
    """
    n = len(mat)
    for r in mat:
        if len(r) != n:
            raise DomainError("solve_ring needs a square matrix")
    if any(len(b) != n for b in rhs_columns):
        raise DomainError("right-hand side length does not match")
    aug = [list(row) + [b[i] for b in rhs_columns] for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col].is_unit()), None)
        if pivot_row is None:
            raise NotInvertibleError("matrix has no unit pivot; not invertible over the ring")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [e * inv_p if e else e for e in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor:
                aug[r] = [er - factor * ec if ec else er for er, ec in zip(aug[r], aug[col])]
    return [[row[n + k] for row in aug] for k in range(len(rhs_columns))]


def inv_ring(rows: list[list[RingElement]], ring: CoeffRing) -> list[list[RingElement]]:
    """Inverse of a square matrix over the (local) ring: ``solve_ring``
    against the identity, whose columns are its rows."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DomainError("inv_ring needs a square matrix")
    eye = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    return [list(row) for row in zip(*solve_ring(rows, eye, ring))]


# ----------------------------------------------------------------------
# Field-valued matrices (entries are raw field values)
# ----------------------------------------------------------------------


def echelon_field(rows: list[list], field: BaseField) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.  Returns (rref rows, pivot column list)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if mat[i][c]:
                pivot = i
                break
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


def rank_field(rows: list[list], field: BaseField) -> int:
    _, pivots = echelon_field(rows, field)
    return len(pivots)


def det_field(rows: list[list], field: BaseField):
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DomainError("det_field needs a square matrix")
    if n == 0:
        return field.one()
    mat = [list(r) for r in rows]
    det = field.one()
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            return field.zero()
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = field.neg(det)
        det = field.mul(det, mat[c][c])
        inv_p = field.invert(mat[c][c])
        for i in range(c + 1, n):
            if mat[i][c]:
                f = field.mul(inv_p, mat[i][c])
                mat[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(mat[i], mat[c])]
    return det


def solve_field(a: list[list], b: list, field: BaseField) -> list | None:
    """One solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so for square invertible systems this
    is the unique solution.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if len(b) != nrows:
        raise DomainError("right-hand side length does not match")
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    rref, pivots = echelon_field(aug, field)
    for row in rref:
        if row[-1] and not any(row[c] for c in range(ncols)):
            return None
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[c] = rref[r][-1]
    return x


def inv_field(rows: list[list], field: BaseField) -> list[list]:
    n = len(rows)
    aug = [list(row) + [field.one() if i == j else field.zero() for j in range(n)]
           for i, row in enumerate(rows)]
    rref, pivots = echelon_field(aug, field)
    if pivots != list(range(n)):
        raise NotInvertibleError("field matrix is singular")
    return [row[n:] for row in rref]
