"""Small dense linear algebra over coefficient rings and base fields.

Two flavours are needed.  Matrices of ``RingElement`` values live over a
local ring with nilpotents.  One forward elimination on unit pivots
brings them to upper triangular form until a column has no unit left.
A determinant is then the product of the diagonal, finished by
Berkowitz's division-free recursion on the remaining block (or by zero,
when its first column is zero); a linear system, run on [A | b ...],
finishes by back substitution, and an inverse is a system against the
identity.  Unit pivots always exist when the matrix is invertible.

Raw field values have one elimination: ``_echelon`` on sparse {index:
int} vectors, rows in a given order, each pivot cleared from the
vectors left; ``_back_reduce`` finishes Gauss-Jordan on the pivots its
caller keeps.  It is fraction-free in every characteristic, with one
rule: the vectors hold ints, a vector stands for the line it spans, a
clear by the pivot v is c <- (v_e c - c_e v) / gcd(v_e, c_e), each
pivot is its line's reduced vector (``_reduced_line``), and the normal
form's row is vec / vec[e].  The characteristic decides only how a
value or a line is reduced: in characteristic p each entry mod p and a
pivot scaled to 1 at e by one inverse, so a clear there never rescales;
over Q each cleared vector over its content and a pivot primitive with
a positive entry at e.  ``echelon_field`` is the pair on dense rows of
raw values, a shell no point reaches (``grassmann._residues`` reads
points).  ``det_field`` keeps its own loop, as an oracle.

Everything here is exact and runs in polynomial time: ``plucker``
takes dense minors as large as the tail depth.  The ring loops skip zero
entries, which most identity-block and Jacobi-Trudi entries are, and
reduce each elimination entry once: the row update a - factor * p and
each step b - a * x of a back substitution is one fused
``scalars._sub_product``, not a product and a difference.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DomainError, NotInvertibleError
from .scalars import BaseField, CoeffRing, RingElement, _sub_product, _sum_products

# ----------------------------------------------------------------------
# Ring-valued matrices (entries are RingElement)
# ----------------------------------------------------------------------


def _eliminate(mat: list[list[RingElement]], n: int) -> tuple[int, bool]:
    """Forward elimination on unit pivots in the first n columns, in place.

    Step k swaps the first unit of column k to (k, k) and subtracts
    multiples of the pivot row, scaled by the pivot's inverse, from the
    rows below; when the pivot row is zero right of the pivot, or the
    column zero below it, no inverse is taken.  Entries below the pivots
    go stale and are never read.  Returns the first column with no unit
    on or below the diagonal (n if none) and the parity of the swaps.
    """
    odd = False
    for k in range(n):
        pr = next((i for i in range(k, len(mat)) if mat[i][k].is_unit()), None)
        if pr is None:
            return k, odd
        if pr != k:
            mat[k], mat[pr] = mat[pr], mat[k]
            odd = not odd
        prow = mat[k]
        live = [j for j in range(k + 1, len(prow)) if prow[j]]
        below = [row for row in mat[k + 1:] if row[k]]
        if not live or not below:
            continue
        inv_p = prow[k].inverse()
        for row in below:
            factor = row[k] * inv_p
            for j in live:
                row[j] = _sub_product(row[j], factor, prow[j])
    return n, odd


def det_ring(rows: list[list[RingElement]], ring: CoeffRing) -> RingElement:
    """Determinant of a square matrix over the ring.

    ``_eliminate`` changes the determinant only by the sign of its swaps,
    and Laplace expansion down the pivot columns leaves the product of the
    pivots times the determinant of the remaining block.  That block's
    first column has no unit: if it is zero, so is the determinant; else
    Berkowitz's division-free recursion finishes the block.  A unit
    determinant never gets there, as over a local ring its residue matrix
    is invertible.  The empty matrix has determinant one, which is what
    makes vacuum minors come out right.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DomainError("det_ring needs a square matrix")
    mat = [list(r) for r in rows]
    k, odd = _eliminate(mat, n)
    det = ring.one()
    for i in range(k):
        det = det * mat[i][i]
    if k < n:
        if not any(row[k] for row in mat[k:]):
            return ring.zero()
        det = det * _berkowitz([row[k:] for row in mat[k:]], ring)
    return -det if odd else det


def _berkowitz(a: list[list[RingElement]], ring: CoeffRing) -> RingElement:
    """Determinant by Berkowitz's recursion (Inf. Proc. Letters 18, 1984).

    Division-free over any commutative ring.  ``poly`` holds the
    characteristic polynomial det(x - A_r) of the leading r x r block,
    highest coefficient first.  Bordering A_r by column c, row s and
    corner a multiplies it by the lower-triangular Toeplitz matrix with
    first column (1, -a, -s c, -s A_r c, ..., -s A_r^{r-1} c).
    """
    n = len(a)
    poly = [ring.one()]
    for r in range(n):
        block = [row[:r] for row in a[:r]]
        border = a[r][:r]
        col = [row[r] for row in a[:r]]
        toeplitz = [ring.one(), -a[r][r]]
        for i in range(r):
            toeplitz.append(-_sum_products(ring, zip(border, col)))
            if i < r - 1:
                col = [_sum_products(ring, zip(row, col)) for row in block]
        poly = [_sum_products(ring, zip(toeplitz[i::-1], poly)) for i in range(r + 2)]
    return -poly[n] if n % 2 else poly[n]


def mat_mul_ring(
    a: list[list[RingElement]], b: list[list[RingElement]], ring: CoeffRing
) -> list[list[RingElement]]:
    if any(len(row) != len(b) for row in a):
        raise DomainError("inner dimensions do not match")
    cols = list(zip(*b))
    return [[_sum_products(ring, zip(row, col)) for col in cols] for row in a]


def solve_ring(
    mat: list[list[RingElement]], rhs_columns: list[list[RingElement]], ring: CoeffRing
) -> list[list[RingElement]]:
    """The columns x with mat x = b, one for each column b of ``rhs_columns``.

    ``_eliminate`` on [mat | b ...] makes mat upper triangular with units
    on the diagonal; back substitution then reads x from the last row
    up.  Over a local ring a matrix is invertible iff its residue matrix
    is, in which case a unit pivot exists in every elimination column.
    """
    n = len(mat)
    for r in mat:
        if len(r) != n:
            raise DomainError("solve_ring needs a square matrix")
    if any(len(b) != n for b in rhs_columns):
        raise DomainError("right-hand side length does not match")
    aug = [list(row) + [b[i] for b in rhs_columns] for i, row in enumerate(mat)]
    if _eliminate(aug, n)[0] < n:
        raise NotInvertibleError("matrix has no unit pivot; not invertible over the ring")
    inv_diag = [aug[i][i].inverse() for i in range(n)]
    out = []
    for c in range(n, n + len(rhs_columns)):
        x: list[RingElement] = [ring.zero()] * n
        for i in reversed(range(n)):
            row = aug[i]
            acc = row[c]
            for j in range(i + 1, n):
                if row[j] and x[j]:
                    acc = _sub_product(acc, row[j], x[j])
            x[i] = acc * inv_diag[i] if acc else acc
        out.append(x)
    return out


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


def _clear(vectors, e: int, pivot: dict, p: int) -> None:
    """Clear index e of each vector c with the pivot v, in place:
    c <- (v_e c - c_e v) / gcd(v_e, c_e), reduced mod p in characteristic
    p (where a pivot's v_e is 1) and over its content over Q.  The scale
    is positive, so c keeps its signs where v is zero."""
    pe = pivot[e]
    for c in vectors:
        f = c.get(e)
        if not f:
            continue
        g = gcd(pe, f)
        s, f = pe // g, f // g
        if s != 1:
            for k in c:
                c[k] = c[k] * s % p if p else c[k] * s
        for k, a in pivot.items():
            val = c.get(k, 0) - f * a
            if p:
                val %= p
            if val:
                c[k] = val
            else:
                del c[k]
        if not p:
            g = gcd(*c.values())
            if g > 1:
                for k in c:
                    c[k] //= g


def _reduced_line(vec: dict, e: int, p: int) -> dict:
    """The reduced vector of vec's line, for a pivot at e: 1 at e in
    characteristic p, primitive with a positive entry at e over Q."""
    if p:
        if vec[e] != 1:
            s = pow(vec[e], -1, p)
            vec = {k: a * s % p for k, a in vec.items()}
        return vec
    g = gcd(*vec.values())
    if vec[e] < 0:
        g = -g
    return vec if g == 1 else {k: a // g for k, a in vec.items()}


def _echelon(vectors: list[dict], order, field: BaseField) -> tuple[list[tuple[int, dict]], list[dict]]:
    """Forward elimination on sparse {index: nonzero int} vectors,
    residues in characteristic p, which it reduces in place.
    For each index e in ``order`` the first vector still remaining that
    has e becomes the pivot at e, reduced (``_reduced_line``), and e is
    cleared from the vectors after it (``_clear``).  A pivot's
    normal-form row is vec / vec[e].  Returns the pivots as
    (e, vector) pairs in order, each zero at the indices of the pivots
    before it, and the vectors left over, zero at every pivot index."""
    p = field.char
    rest = list(vectors)
    pivots = []
    for e in order:
        if not rest:
            break
        j = next((j for j, c in enumerate(rest) if e in c), None)
        if j is None:
            continue
        pivot = _reduced_line(rest.pop(j), e, p)
        _clear(rest, e, pivot, p)
        pivots.append((e, pivot))
    return pivots, rest


def _back_reduce(pivots: list[tuple[int, dict]], field: BaseField) -> list[tuple[int, dict]]:
    """Gauss-Jordan on pivots from ``_echelon``: copies of them, each
    cleared at the indices of the pivots after it, so the last k rows of
    the result are the result on the last k pivots.  Each copy keeps its
    entry at its own index e, and its row is vec / vec[e]."""
    done: list[tuple[int, dict]] = []
    for e, pivot in pivots:
        _clear((c for _, c in done), e, pivot, field.char)
        done.append((e, dict(pivot)))
    return done


def echelon_field(rows: list[list], field: BaseField) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.  Returns (rref rows, pivot column list).
    Each row is cleared of its denominators before the elimination (an
    int's is 1), and row e of the result is read as vec / vec[e]."""
    ncols = len(rows[0]) if rows else 0
    vectors = []
    for r in rows:
        den = lcm(*[v.denominator for v in r])
        vectors.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(r) if v})
    pivots, _ = _echelon(vectors, range(ncols), field)
    zero = field.zero()
    rref = []
    for e, vec in _back_reduce(pivots, field):
        inv = field.invert(vec[e])
        rref.append([field.mul(vec[c], inv) if c in vec else zero for c in range(ncols)])
    rref += [[zero] * ncols for _ in range(len(rows) - len(pivots))]
    return rref, [c for c, _ in pivots]


def rank_field(rows: list[list], field: BaseField) -> int:
    _, pivots = echelon_field(rows, field)
    return len(pivots)


def det_field(rows: list[list], field: BaseField):
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DomainError("det_field needs a square matrix")
    mat = [list(r) for r in rows]
    det = field.one()
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
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
    if ncols in pivots:  # a pivot in b's column is a row 0 = b_i != 0
        return None
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][-1]
    return x

