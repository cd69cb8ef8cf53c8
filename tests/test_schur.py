"""Schur layer, checked against a tableau-enumeration oracle.

``schur_polynomial`` produces polynomials in the h-coordinates via a
determinant.  The oracle below never touches that route: it expands the
same symmetric function as the content generating function of
semistandard tableaux in honest variables y_1..y_m, then expands the
h-coordinate answer in the same variables and compares monomial by
monomial.  Agreement for every shape of weight <= 5 pins the whole
family down.
"""

from fractions import Fraction
import itertools

import pytest
from hypothesis import given, strategies as st

from grasstau import (
    GF,
    QQ,
    bosonize,
    coordinate_ring,
    duality_pair,
    partitions_up_to,
    schur_polynomial,
    to_schur_coords,
)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def ssyt_monomials(lam, m):
    """Content monomials of the semistandard tableaux of shape ``lam``
    with entries in 1..m, as {exponent tuple of length m: count}."""
    shape = list(lam)
    if not shape:
        return {(0,) * m: 1}

    def rows_of(length, above, prev_start):
        # weakly increasing row; strictly below the row above, cell by cell
        def rec(i, prev):
            if i == length:
                yield ()
                return
            lo = prev
            if above is not None:
                lo = max(lo, above[i] + 1)
            for v in range(lo, m + 1):
                for rest in rec(i + 1, v):
                    yield (v,) + rest

        yield from rec(0, prev_start)

    def tableaux(row_idx, above):
        for row in rows_of(shape[row_idx], above, 1):
            if row_idx == len(shape) - 1:
                yield (row,)
            else:
                for rest in tableaux(row_idx + 1, row):
                    yield (row,) + rest

    out = {}
    for tab in tableaux(0, None):
        exps = [0] * m
        for row in tab:
            for v in row:
                exps[v - 1] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def h_monomials(k, m):
    """Complete homogeneous polynomial h_k in m variables, same format."""
    out = {}
    for combo in itertools.combinations_with_replacement(range(m), k):
        exps = [0] * m
        for i in combo:
            exps[i] += 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + 1
    return out


def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def expand_in_variables(p, m):
    """Expand a coordinate-ring element into y_1..y_m via x_i -> h_i(y)."""
    d = p.ring.num_vars
    hs = [h_monomials(k, m) for k in range(1, d + 1)]
    total = {}
    for mono, c in p.coeffs.items():
        term = {(0,) * m: Fraction(1)}
        for i, e in enumerate(mono):
            for _ in range(e):
                term = poly_mul(term, hs[i])
        for key, v in term.items():
            total[key] = total.get(key, 0) + Fraction(c) * v
    return {k: v for k, v in total.items() if v}


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", partitions_up_to(5), ids=str)
def test_schur_polynomial_matches_the_tableau_sum(lam):
    m = max(sum(lam), 1)
    ring = coordinate_ring(QQ, 5)
    expanded = expand_in_variables(schur_polynomial(ring, lam), m)
    expected = {k: Fraction(v) for k, v in ssyt_monomials(lam, m).items()}
    assert expanded == expected


def test_jacobi_trudi_frozen_values():
    ring = coordinate_ring(QQ, 3)
    x1, x2, x3 = (ring.gen(i) for i in range(3))
    assert schur_polynomial(ring, (1,)) == x1
    assert schur_polynomial(ring, (2,)) == x2
    assert schur_polynomial(ring, (1, 1)) == x1 * x1 - x2
    assert schur_polynomial(ring, (2, 1)) == x1 * x2 - x3
    assert schur_polynomial(ring, (1, 1, 1)) == x1 ** 3 - 2 * x1 * x2 + x3


def test_weight_above_the_bound_collapses_to_zero():
    ring = coordinate_ring(QQ, 3)
    assert schur_polynomial(ring, (4,)).is_zero()
    assert schur_polynomial(ring, (2, 2)).is_zero()
    assert not schur_polynomial(ring, (2, 1)).is_zero()


def test_weight_homogeneity():
    ring = coordinate_ring(QQ, 4)
    for lam in partitions_up_to(4):
        p = schur_polynomial(ring, lam)
        assert all(ring.weight(m) == sum(lam) for m in p.coeffs)


# ---------------------------------------------------------------------------
# duality and the coordinate change
# ---------------------------------------------------------------------------


def test_duality_pairing_is_orthonormal():
    ring = coordinate_ring(QQ, 4)
    lams = partitions_up_to(4)
    for lam in lams:
        for mu in lams:
            val = duality_pair(
                schur_polynomial(ring, lam), schur_polynomial(ring, mu)
            )
            assert val == (1 if lam == mu else 0)


def test_duality_pairing_positive_characteristic():
    ring = coordinate_ring(GF(5), 3)
    s = schur_polynomial(ring, (2, 1))
    assert duality_pair(s, s) == 1
    assert duality_pair(s, schur_polynomial(ring, (3,))) == 0


def test_schur_coordinates_of_a_square():
    ring = coordinate_ring(QQ, 2)
    x1 = ring.gen(0)
    assert to_schur_coords(x1 * x1) == {(2,): 1, (1, 1): 1}


def test_pieri_step_frozen():
    ring = coordinate_ring(QQ, 3)
    x1 = ring.gen(0)
    p = x1 * schur_polynomial(ring, (2,))
    assert to_schur_coords(p) == {(3,): 1, (2, 1): 1}


RING3 = coordinate_ring(QQ, 3)
MONOS3 = list(RING3.monomials())

elements3 = st.builds(
    lambda cs: RING3.element(dict(zip(MONOS3, cs))),
    st.lists(st.integers(-5, 5), min_size=len(MONOS3), max_size=len(MONOS3)),
)


@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(0, 6), st.data())
def test_bosonize_inverts_the_coordinate_change(field, d, data):
    ring = coordinate_ring(field, d)
    monos = list(ring.monomials())
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(monos), max_size=len(monos)))
    p = ring.element(dict(zip(monos, coeffs)))
    assert bosonize(ring, to_schur_coords(p)) == p


@given(elements3, elements3)
def test_coordinate_change_is_linear(p, q):
    cp = to_schur_coords(p)
    cq = to_schur_coords(q)
    cs = to_schur_coords(p + q)
    keys = set(cp) | set(cq) | set(cs)
    for k in keys:
        assert cs.get(k, 0) == cp.get(k, 0) + cq.get(k, 0)
