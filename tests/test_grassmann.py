"""Points, minors, charts, the group action, and the finite model.

The two-column point used throughout has the window matrix

        exp   col1  col2
        -2     1     0
        -1     0     1
         0     1     2
         1     1     3

so every 2x2 minor is computable by hand; the frozen table below is that
computation.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import grasstau.scalars as scalars
from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GammaElement,
    GrassPoint,
    LaurentElement,
    MayaDiagram,
    NotInvertibleError,
    PrecisionError,
    act,
    chart_transition,
    embed_finite,
    exp_gamma,
    factorize,
    in_chart,
    index,
    partitions_up_to,
    plucker,
    quotient_basis,
)
from grasstau.grassmann import _rows

RING = CoeffRing(QQ, 1, 2)

MINORS = {(): 1, (1,): 2, (2,): 3, (1, 1): -1, (2, 1): -1, (2, 2): 1}


def two_column_point(ring=RING):
    c1 = LaurentElement(ring, {-2: 1, 0: 1, 1: 1})
    c2 = LaurentElement(ring, {-1: 1, 0: 2, 1: 3})
    return GrassPoint(ring, 2, [c1, c2])


def test_plucker_minors_frozen():
    pt = two_column_point()
    for lam, val in MINORS.items():
        assert plucker(pt, MayaDiagram.from_partition(lam)) == RING.const(val)


def test_base_point_is_the_vacuum():
    pt = GrassPoint.base_point(RING, 3)
    assert index(pt) == 0
    assert plucker(pt, MayaDiagram.vacuum()) == RING.one()
    assert in_chart(pt, MayaDiagram.vacuum())
    assert not in_chart(pt, MayaDiagram.from_partition((1,)))


def test_minor_vanishes_on_charge_mismatch():
    pt = two_column_point()
    assert plucker(pt, MayaDiagram.from_partition((), charge=1)).is_zero()
    assert plucker(pt, MayaDiagram.from_partition((1,), charge=-1)).is_zero()


def test_chart_transition_frozen():
    pt = two_column_point()
    vac = MayaDiagram.vacuum()
    box = MayaDiagram.from_partition((1,))
    t = chart_transition(pt, box, vac)
    assert t == RING.const(2)
    assert chart_transition(pt, vac, box) * t == RING.one()


def test_chart_transitions_compose():
    pt = two_column_point()
    a, b, c = (MayaDiagram.from_partition(l) for l in [(), (1,), (2, 1)])
    assert chart_transition(pt, a, b) * chart_transition(pt, b, c) == chart_transition(
        pt, a, c
    )
    assert chart_transition(pt, a, a) == RING.one()


def test_transition_needs_an_invertible_minor():
    pt = GrassPoint.base_point(RING, 2)
    with pytest.raises(NotInvertibleError):
        chart_transition(pt, MayaDiagram.vacuum(), MayaDiagram.from_partition((1,)))


def test_index_counts_columns_against_the_tail():
    assert index(GrassPoint(RING, 2, [])) == -2
    assert index(two_column_point()) == 0
    cols = [
        LaurentElement(RING, {-1: 1}),
        LaurentElement(RING, {0: 1}),
        LaurentElement(RING, {1: 1}),
    ]
    assert index(GrassPoint(RING, 1, cols)) == 2


def test_dependent_columns_do_not_raise_the_index():
    c = LaurentElement(RING, {-1: 1, 0: 2})
    pt = GrassPoint(RING, 1, [c, c + c])
    assert index(pt) == 0


PAST_WINDOW = r"^minor needs the coefficient of z\^0, beyond the window$"


def test_a_chart_block_past_the_window_names_its_first_row():
    # known below z^0: the vacuum rows (-2, -1) are readable, the (2,2)
    # rows (0, 1) are not, and both ways of reading the block say so alike
    pt = GrassPoint(RING, 2, [c.truncate(0) for c in two_column_point().columns])
    assert plucker(pt, MayaDiagram.vacuum()) == RING.one()
    assert in_chart(pt, MayaDiagram.vacuum())
    block = MayaDiagram.from_partition((2, 2))
    for call in (plucker, in_chart):
        with pytest.raises(PrecisionError, match=PAST_WINDOW):
            call(pt, block)


def test_index_refuses_what_the_window_cannot_decide():
    with pytest.raises(PrecisionError, match=r"^index needs the column window to reach z\^0$"):
        index(GrassPoint(RING, 2, [LaurentElement(RING, {-2: 1}, trunc=-1)]))
    # exactly known, c and 2c are honestly dependent (see above); windowed,
    # the unseen tails might still tell them apart
    c = LaurentElement(RING, {-1: 1, 0: 2}, trunc=1)
    with pytest.raises(
        PrecisionError, match="^columns are dependent on the visible window; index undetermined$"
    ):
        index(GrassPoint(RING, 1, [c, c + c]))


def test_columns_inside_the_tail_are_rejected():
    with pytest.raises(DomainError):
        GrassPoint(RING, 1, [LaurentElement(RING, {-2: 1})])


# ---------------------------------------------------------------------------
# group action
# ---------------------------------------------------------------------------


def test_lower_action_fixes_the_vacuum_minor():
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    g = exp_gamma(ring, [x], -1)
    pt = act(g, GrassPoint.base_point(ring, 2))
    assert plucker(pt, MayaDiagram.vacuum()) == ring.one()
    assert index(pt) == 0


def test_upper_action_with_promotion_keeps_the_index():
    ring = CoeffRing(QQ, 1, 2)
    x = ring.gen(0)
    g = exp_gamma(ring, [x], 1, trunc=6)
    out = act(g, GrassPoint.base_point(ring, 2), promote=2)
    assert out.tail_depth == 4
    assert len(out.columns) == 4
    assert index(out) == 0


def test_upper_action_refuses_a_negative_promotion():
    ring = CoeffRing(QQ, 1, 2)
    g = exp_gamma(ring, [ring.gen(0)], 1, trunc=6)
    with pytest.raises(DomainError, match="^promote must be >= 0$"):
        act(g, GrassPoint.base_point(ring, 2), promote=-1)


def test_unit_action_scales_minors_by_column_count():
    ring = RING
    g = factorize(LaurentElement.const(ring, 3))
    pt = two_column_point()
    moved = act(g, pt)
    for lam, val in MINORS.items():
        assert plucker(moved, MayaDiagram.from_partition(lam)) == ring.const(9 * val)


def test_z_power_action_is_rejected():
    g = factorize(LaurentElement.z_power(RING, 1))
    with pytest.raises(DomainError):
        act(g, GrassPoint.base_point(RING, 2))


# ---------------------------------------------------------------------------
# finite model
# ---------------------------------------------------------------------------


def test_finite_quotient_frozen():
    ring = CoeffRing(GF(2), 1, 1)
    small = GrassPoint(ring, 2, [])
    big = GrassPoint(
        ring,
        2,
        [
            LaurentElement(ring, {-2: 1}),
            LaurentElement(ring, {-1: 1}),
            LaurentElement(ring, {0: 1}),
            LaurentElement(ring, {1: 1}),
        ],
    )
    basis = quotient_basis(small, big)
    assert [sorted(b.coeffs) for b in basis] == [[-2], [-1], [0], [1]]
    assert index(small) == -2
    assert index(big) == 2

    # a rank-2 subspace of the quotient
    emb = embed_finite([[1, 0, 1, 0], [0, 1, 0, 0]], small, big)
    assert index(emb) == 0
    assert emb.tail_depth == 2
    # columns z^-2 + 1 and z^-1: vacuum rows (-2,-1) and (1,1)-rows (-1,0)
    # are invertible, the (1,)-rows (-2,0) are not
    assert plucker(emb, MayaDiagram.vacuum()) == ring.one()
    assert plucker(emb, MayaDiagram.from_partition((1, 1))) == ring.one()
    assert not in_chart(emb, MayaDiagram.from_partition((1,)))


def test_embed_finite_checks_vector_length():
    ring = CoeffRing(GF(2), 1, 1)
    small = GrassPoint(ring, 2, [])
    big = GrassPoint(ring, 2, [LaurentElement(ring, {-2: 1})])
    with pytest.raises(DomainError):
        embed_finite([[1, 0]], small, big)


def test_quotient_needs_containment():
    ring = CoeffRing(GF(2), 1, 1)
    small = GrassPoint(ring, 1, [LaurentElement(ring, {0: 1})])
    big = GrassPoint(ring, 1, [LaurentElement(ring, {1: 1})])
    with pytest.raises(DomainError):
        quotient_basis(small, big)


def test_point_repr_names_its_fields():
    ring = CoeffRing(QQ, 1, 2)
    col = LaurentElement(ring, {-1: 1, 0: 2}, trunc=3)
    assert repr(GrassPoint(ring, 1, [col])) == "GrassPoint(tail_depth=1, columns=1, window_high=3)"
    assert repr(GrassPoint.base_point(ring, 2)) == "GrassPoint(tail_depth=2, columns=2, window_high=None)"


# ---------------------------------------------------------------------------
# the residue reader against the dense path
# ---------------------------------------------------------------------------


def _dense_pivots(mat, field):
    """The pivot columns of dense Gauss-Jordan on the field values
    ``mat``, each step's value reduced by ``field.coerce``: written out
    here, so that the dense path shares no elimination with the code under
    test."""
    mat = [list(row) for row in mat]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.invert(mat[r][c])
        mat[r] = [field.coerce(inv * v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.coerce(v - f * w) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots


def _dense_rank(mat, field):
    return len(_dense_pivots([[a.constant_term() for a in row] for row in mat], field))


def _dense_index(point):
    """``index`` on the dense matrix of the entries' ``constant_term``
    values, ranked by ``_dense_pivots``."""
    depth = point.tail_depth
    if not point.columns:
        return -depth
    m = point.window_high
    if m is not None and m < 0:
        raise PrecisionError("index needs the column window to reach z^0")
    if m is None:
        m = max((max(c.coeffs) for c in point.columns if c.coeffs), default=-depth) + 1
    r = _dense_rank(_rows(point.columns, range(-depth, m)), point.ring.field)
    if r < len(point.columns):
        if point.window_high is None:
            return r - depth
        raise PrecisionError("columns are dependent on the visible window; index undetermined")
    return len(point.columns) - depth


def _dense_in_chart(point, maya):
    """``in_chart`` as the rank of the dense square block of the chart."""
    if any(e not in maya.members for e in range(maya.tail_start, -point.tail_depth)):
        return False
    rows = maya.members_from(-point.tail_depth)
    if len(rows) != len(point.columns):
        return False
    m = point.window_high
    late = [e for e in rows if m is not None and e >= m]
    if late:
        raise PrecisionError(f"minor needs the coefficient of z^{late[0]}, beyond the window")
    return _dense_rank(_rows(point.columns, rows), point.ring.field) == len(rows)


def _dense_quotient_basis(small, big):
    """``quotient_basis`` from the pivot columns of ``_dense_pivots`` on the
    dense matrix [small | gens] and on gens' block."""
    if big.tail_depth > small.tail_depth:
        raise DomainError("containment needs big.tail_depth <= small.tail_depth")
    if small.window_high is not None or big.window_high is not None:
        raise PrecisionError("quotient basis needs exactly known columns")
    ring, n, k = small.ring, small.tail_depth, len(small.columns)
    gens = [LaurentElement.z_power(ring, e) for e in range(-n, -big.tail_depth)]
    gens += [c.clip_below(-n) for c in big.columns]
    top = max([0] + [max(c.coeffs) + 1 for c in small.columns + gens if c.coeffs])
    mat = [[a.constant_term() for a in row] for row in _rows(small.columns + gens, range(-n, top))]
    pivots = _dense_pivots(mat, ring.field)
    if len(pivots) != len(_dense_pivots([row[k:] for row in mat], ring.field)):
        raise DomainError("the small point is not contained in the big one")
    return [gens[c - k] for c in pivots if c >= k]


def _reader_point(rng, field, num_vars, depth, extra):
    """A point with depth + extra columns below z^4, entries often zero,
    some with a nilpotent part or with a zero residue, some columns a
    multiple of an earlier one plus nilpotent noise, known below a random
    window or exactly; and the same columns exactly known."""
    ring = CoeffRing(field, num_vars, 2 if num_vars else 0)

    def residue():
        if rng.random() < 0.3:
            return 0
        return rng.randrange(field.char) if field.char else Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def nilpotent():
        if num_vars and rng.random() < 0.5:
            return ring.gen(rng.randrange(num_vars)) * rng.randint(1, 3)
        return ring.zero()

    cols = []
    for _ in range(max(0, depth + extra)):
        if cols and rng.random() < 0.3:
            k = residue()
            col = {e: a * k + nilpotent() for e, a in rng.choice(cols).items()}
        else:
            col = {e: ring.const(residue()) + nilpotent() for e in range(-depth, rng.randint(0, 4))}
        cols.append(col)
    trunc = rng.choice([None, None, -1, 0, 1, 2, 4])
    windowed = GrassPoint(ring, depth, [LaurentElement(ring, c, trunc) for c in cols])
    exact = GrassPoint(ring, depth, [LaurentElement(ring, c) for c in cols])
    return windowed, exact


def _reader_calls(rng, windowed, exact):
    """index, in_chart on every |lam| <= 3 at charges -1, 0 and 1, and two
    quotient bases: a subset of the exact point's columns in it, and the
    point in the span of z^e, e < top, for a random depth and top."""
    ring, depth = exact.ring, exact.tail_depth
    calls = [(index, _dense_index, (windowed,))]
    for lam in partitions_up_to(3):
        for charge in (-1, 0, 1):
            maya = MayaDiagram.from_partition(lam, charge=charge)
            calls.append((in_chart, _dense_in_chart, (windowed, maya)))
    sub = GrassPoint(ring, depth, rng.sample(exact.columns, rng.randint(0, len(exact.columns))))
    big_depth, big_top = rng.randint(0, depth + 1), rng.randint(0, 5)
    big = GrassPoint(ring, big_depth, [LaurentElement.z_power(ring, e) for e in range(-big_depth, big_top)])
    calls += [(quotient_basis, _dense_quotient_basis, (sub, exact))]
    calls += [(quotient_basis, _dense_quotient_basis, (windowed, big))]
    return calls


def _outcome(call, args):
    try:
        return repr(call(*args))
    except (DomainError, PrecisionError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(0, 2),
    st.integers(0, 4),
    st.integers(-1, 1),
    st.integers(0, 2**32),
)
def test_residue_reader_matches_the_dense_path(field, num_vars, depth, extra, seed):
    """index and quotient_basis, which eliminate the columns' int residue
    vectors, and in_chart, the unit test of the chart minor, agree with
    the dense constant_term matrix ranked by a test-local Gauss-Jordan,
    refusals included, over rings with nilpotent entries and on windowed
    columns."""
    rng = Random(seed)
    for call, dense, args in _reader_calls(rng, *_reader_point(rng, field, num_vars, depth, extra)):
        assert _outcome(call, args) == _outcome(dense, args)


def test_the_residue_reader_builds_no_fraction_per_entry(monkeypatch):
    """index and quotient_basis never read an entry through
    ``constant_term``, nor does in_chart, which takes the chart minor's
    determinant: with it refused they return what they returned."""
    rng = Random(7)
    cases = []
    for field in (QQ, GF(3)):
        for depth in range(4):
            cases += _reader_calls(rng, *_reader_point(rng, field, 2, depth, rng.randint(-1, 1)))
    want = [_outcome(call, args) for call, _, args in cases]

    def refused(self):
        raise AssertionError("constant_term read")

    monkeypatch.setattr(scalars.RingElement, "constant_term", refused)
    assert [_outcome(call, args) for call, _, args in cases] == want


# ---------------------------------------------------------------------------
# the quadratic Plücker relations among the minors
# ---------------------------------------------------------------------------


def _ring_value(rng, ring):
    """A random element: a residue that is zero a third of the time, plus
    a nilpotent part half of the time when the ring has variables."""
    p = ring.field.char
    value = ring.const(0 if rng.random() < 1 / 3 else rng.randrange(p) if p else rng.randint(-3, 3))
    if ring.num_vars and rng.random() < 0.5:
        value = value + ring.gen(rng.randrange(ring.num_vars)) * rng.randint(1, 3)
    return value


def _ring_unit(rng, ring):
    """A random unit: a nonzero residue plus the nilpotent part of a
    random element."""
    p = ring.field.char
    other = _ring_value(rng, ring)
    return other - other.constant_term() + (rng.randrange(1, p) if p else rng.choice([-2, -1, 1, 3]))


def _plucker_point(rng, ring, depth, acted):
    """An index-0 point: columns in reduced form on a random set of
    pivot rows in [-depth, 3), each z^pivot plus random entries at the
    other rows, then mixed by a change of basis P·U·D over the ring (a
    permutation, a unitriangular matrix and a unit diagonal).  If
    ``acted``, moved by a random lower·unit·upper element at promote 2."""
    rows = range(-depth, 3)
    pivots = sorted(rng.sample(rows, depth))
    reduced = [
        {e: ring.one() if e == pivot else _ring_value(rng, ring) for e in rows if e == pivot or e not in pivots}
        for pivot in pivots
    ]
    order = rng.sample(range(depth), depth)
    mix = [
        [_ring_unit(rng, ring) if i == j else _ring_value(rng, ring) if i < j else ring.zero() for j in range(depth)]
        for i in order
    ]
    zero = ring.zero()
    columns = [
        LaurentElement(ring, {e: sum((reduced[j].get(e, zero) * mix[j][i] for j in range(depth)), zero) for e in rows})
        for i in range(depth)
    ]
    point = GrassPoint(ring, depth, columns)
    if not acted:
        return point
    nilpotent = [ring.gen(i) * _ring_value(rng, ring) + ring.gen(i) for i in range(ring.num_vars)]
    gminus = {0: ring.one(), **{-k: rng.choice(nilpotent) for k in (1, 2) if nilpotent}}
    gplus = {0: ring.one(), 1: _ring_value(rng, ring), 2: _ring_value(rng, ring)}
    g = GammaElement(LaurentElement(ring, gminus), _ring_unit(rng, ring), LaurentElement(ring, gplus))
    return act(g, point, promote=2)


def _minor(point, rows):
    """p(rows): ``plucker`` on the diagram with tail start -tail_depth and
    members ``rows``, antisymmetric in the order they are listed."""
    if len(set(rows)) < len(rows):
        return point.ring.zero()
    inversions = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1 :])
    minor = plucker(point, MayaDiagram(-point.tail_depth, rows))
    return -minor if inversions % 2 else minor


def _plucker_relations(rng, point, count):
    """``count`` relations, each the list of its terms
    (-1)^k p(I + j_k) p(J - j_k) for a random (n-1)-list I and (n+1)-set J
    of rows in [-n, M), n the point's column count and M past every
    column's support."""
    n = point.tail_depth
    top = max([1] + [max(c.coeffs) + 1 for c in point.columns if c.coeffs])
    rows = range(-n, top)
    out = []
    for _ in range(count):
        low, high = rng.sample(rows, n - 1), sorted(rng.sample(rows, n + 1))
        out.append([
            _minor(point, low + [j]) * _minor(point, high[:k] + high[k + 1 :]) * (-1) ** k
            for k, j in enumerate(high)
        ])
    return out


PLUCKER_FIELDS = [QQ, GF(2), GF(3), GF(5)]


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(PLUCKER_FIELDS),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_minors_satisfy_the_quadratic_plucker_relations(field, num_vars, bound, depth, acted, seed):
    """Sum_k (-1)^k p(I + j_k) p(J - j_k) = 0 for every (n-1)-list I and
    (n+1)-set J of rows: an identity among the maximal minors of any
    n-column matrix over any commutative ring, so it holds on every chart,
    with nilpotents, in every characteristic, and after ``act``."""
    rng = Random(seed)
    point = _plucker_point(rng, CoeffRing(field, num_vars, bound), depth, acted)
    assert index(point) == 0
    for terms in _plucker_relations(rng, point, 6):
        assert sum(terms, point.ring.zero()).is_zero()


def test_the_plucker_relations_are_not_vacuous():
    """Over the same draws, a fair share of the relations has a nonzero
    term, and points off the vacuum chart are common."""
    rng = Random(2026)
    relations = off_vacuum = 0
    nonzero = []
    for k in range(120):
        ring = CoeffRing(PLUCKER_FIELDS[k % 4], k % 3, k // 3 % 3)
        point = _plucker_point(rng, ring, 1 + k // 9 % 3, k % 2 == 1)
        off_vacuum += not in_chart(point, MayaDiagram.vacuum())
        for terms in _plucker_relations(rng, point, 6):
            relations += 1
            nonzero.append(any(t for t in terms))
    assert relations == 720
    assert sum(nonzero) >= relations // 5 and off_vacuum >= 20
