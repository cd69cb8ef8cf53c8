"""Randomized self-checks behind the ``verify`` CLI subcommand.

Each suite stresses one contract of the library with seeded random
instances plus a few frozen cases, and reports per-check results.  The
suites are deliberately independent of the unit tests: they re-derive
expected values from defining properties (round-trips, ghost
components, finite-model determinants) rather than from the code under
test.

The witt suite adds each pair of GF(3)^2 once and reads its group-law
checks off that sum table of canonical residues.  The wave-series
check decides membership in a point's span by whether appending the
target's int line raises the frame's ``linalg._echelon`` rank.
"""

from __future__ import annotations

import itertools
import time
from math import gcd, lcm
from random import Random

from .errors import DomainError, NotInvertibleError, PrecisionError
from .gamma import (
    GammaElement,
    abel_embed,
    exp_gamma,
    factorize,
    universal_v,
    witt_add,
    witt_product,
)
from .grassmann import (
    GrassPoint,
    act,
    chart_transition,
    embed_finite,
    in_chart,
    index,
    plucker,
    quotient_basis,
)
from .laurent import LaurentElement
from .linalg import _echelon, det_field
from .partitions import MayaDiagram, partitions_up_to
from .scalars import GF, QQ, BaseField, CoeffRing, RingElement, _fraction
from .serialize import format_field_spec
from .pairings import commutator_pairing, residue_pairing
from .schur import (
    bosonize,
    coordinate_ring,
    duality_pair,
    schur_polynomial,
    to_schur_coords,
)
from .tau import baker, kp_residual, tau_crosscheck, tau_direct, tau_eval, tau_schur

Fraction = _fraction()  # the suites build Q values; scalars alone imports fractions


class SuiteReport:
    """The checks one suite recorded, in order, as (label, ok, detail)."""

    def __init__(self, name: str, seed: int, scale: str):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.checks: list = []
        self.elapsed = 0.0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [(label, detail) for label, ok, detail in self.checks if not ok]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "passed": self.passed,
            "num_checks": len(self.checks),
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [
                {"label": label, "ok": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
        }

    def check(self, label: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.checks.append((label, ok, "" if ok else detail or "failed"))
        return ok

    def expect_raises(self, label: str, exc_types, fn) -> bool:
        try:
            fn()
        except exc_types as exc:
            self.checks.append((label, True, type(exc).__name__))
            return True
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            self.checks.append(
                (label, False, f"wrong error {type(exc).__name__}: {exc}")
            )
            return False
        self.checks.append((label, False, "no error raised"))
        return False


# ----------------------------------------------------------------------
# random generators
# ----------------------------------------------------------------------


def _rand_value(rng: Random, field: BaseField, nonzero: bool = False):
    if field.char == 0:
        v = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))
        if nonzero and v == 0:
            v = Fraction(rng.randint(1, 4))
    else:
        v = rng.randrange(field.char)
        if nonzero and v == 0:
            v = 1 + rng.randrange(field.char - 1)
    return field.coerce(v)


def _rand_terms(rng: Random, ring: CoeffRing, monos: list, max_terms: int) -> RingElement:
    """1..max_terms random values on monomials drawn from ``monos``."""
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.choice(monos)] = _rand_value(rng, ring.field)
    return ring.element(coeffs)


def _rand_element(rng: Random, ring: CoeffRing, max_terms: int = 3) -> RingElement:
    return _rand_terms(rng, ring, list(ring.monomials()), max_terms)


def _rand_nilpotent(rng: Random, ring: CoeffRing) -> RingElement:
    monos = [m for m in ring.monomials() if ring.weight(m) > 0]
    return _rand_terms(rng, ring, monos, 2) if monos else ring.zero()


def _rand_unit(rng: Random, ring: CoeffRing) -> RingElement:
    out = _rand_nilpotent(rng, ring) if ring.num_vars else ring.zero()
    return out + ring.const(_rand_value(rng, ring.field, nonzero=True))


def _random_point(
    rng: Random, ring: CoeffRing, depth: int, fill: float = 0.5, top: int = 2
) -> GrassPoint:
    """A point in the top chart: one column per tail slot, unit on the
    diagonal, random constant entries strictly above it."""
    cols = []
    for j in range(depth, 0, -1):
        coeffs = {-j: ring.one()}
        for e in range(-j + 1, top + 1):
            if rng.random() < fill:
                v = _rand_value(rng, ring.field)
                if v != ring.field.zero():
                    coeffs[e] = ring.const(v)
        cols.append(LaurentElement(ring, coeffs, None))
    return GrassPoint(ring, depth, cols)


def _random_group_element(rng: Random, ring: CoeffRing) -> GammaElement:
    gm = {0: ring.one()}
    for e in (-2, -1):
        if rng.random() < 0.7:
            a = _rand_nilpotent(rng, ring)
            if a:
                gm[e] = a
    gp = {0: ring.one()}
    for e in (1, 2):
        if rng.random() < 0.7:
            a = _rand_element(rng, ring)
            if a:
                gp[e] = a
    return GammaElement(LaurentElement(ring, gm), _rand_unit(rng, ring), LaurentElement(ring, gp), 0)


def _fields(scale: str) -> list[BaseField]:
    return [QQ, GF(5)] if scale == "small" else [QQ, GF(2), GF(5), GF(7)]


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------


def _suite_tau_crosscheck(report: SuiteReport, rng: Random, scale: str) -> None:
    degs = [2, 3] if scale == "small" else [2, 3, 4, 5, 6]
    for field in _fields(scale):
        spec = format_field_spec(field)
        ring = CoeffRing(field, 0, 0)
        for d in degs:
            for rep in range(1 if d >= 5 else 2):
                depth = rng.randint(1, min(3, d))
                pt = _random_point(rng, ring, depth, fill=0.6, top=rng.randint(1, 3))
                a = tau_direct(pt, d)
                b = tau_schur(pt, d)
                report.check(
                    f"both tau routes agree ({spec}, d={d}, depth={depth}, #{rep})",
                    a == b,
                    f"direct={a} schur={b}",
                )
                report.check(
                    f"tau is 1 at the origin ({spec}, d={d}, #{rep})",
                    a.constant_term() == field.one(),
                    f"constant term {a.constant_term()}",
                )
    # past the degree bound the Schur route eliminates the deep vacuum rows
    # first; drawn after the points above, which keep their draws
    for field in _fields(scale):
        spec = format_field_spec(field)
        ring = CoeffRing(field, 0, 0)
        for d in degs:
            for depth in range(d + 1, d + 4):
                pt = _random_point(rng, ring, depth, fill=0.6, top=rng.randint(1, 3))
                a = tau_direct(pt, d)
                b = tau_schur(pt, d)
                report.check(
                    f"both tau routes agree past the degree bound ({spec}, d={d}, depth={depth})",
                    a == b,
                    f"direct={a} schur={b}",
                )


def _suite_tau_base_baker(report: SuiteReport, rng: Random, scale: str) -> None:
    degs = [1, 2, 3] if scale == "small" else [1, 2, 3, 4, 5]
    for field in [QQ, GF(3)]:
        spec = format_field_spec(field)
        ring = CoeffRing(field, 0, 0)
        for d in degs:
            for depth in (1, 2):
                t = tau_crosscheck(GrassPoint.base_point(ring, depth), d)
                report.check(
                    f"tau of the base point is 1 ({spec}, d={d}, depth={depth})",
                    t == coordinate_ring(field, d).one(),
                    f"tau={t}",
                )
    for field in [QQ, GF(5)]:
        spec = format_field_spec(field)
        for d in (2, 3):
            w = 3
            base = GrassPoint.base_point(CoeffRing(field, 0, 0), 2)
            psi = baker(base, d, w)
            vinv = universal_v(field, d).gminus.inverse(window=w)
            report.check(
                f"wave series at the base point inverts the universal series ({spec}, d={d})",
                psi.same_series(vinv),
            )
    reps = 2 if scale == "small" else 4
    for field in [QQ, GF(5)]:
        spec = format_field_spec(field)
        ring = CoeffRing(field, 0, 0)
        for rep in range(reps):
            depth = rng.randint(1, 2)
            d = rng.choice([2, 3])
            w = rng.choice([2, 3])
            pt = _random_point(rng, ring, depth, fill=0.6)
            psi = baker(pt, d, w)
            # the wave series spans z times the point: shift down one slot
            ok, why = _windowed_membership(pt, psi.shift(-1), -d - 1, w - 1)
            report.check(
                f"shifted wave series lies in the point's span on the window ({spec}, #{rep})",
                ok,
                why,
            )


def _windowed_membership(
    point: GrassPoint, psi: LaurentElement, lo: int, hi: int
) -> tuple[bool, str]:
    """Does every coefficient of psi lie in the span of the point's frame
    (its columns and the tail slots below them) on exponents [lo, hi)?"""
    field = point.ring.field
    exps = range(lo, hi)

    def line(values):  # the values' line, cleared of denominators
        den = lcm(*[v.denominator for v in values])
        return {i: v.numerator * (den // v.denominator) for i, v in enumerate(values) if v}

    def rank(lines):  # on copies, as _echelon reduces its vectors in place
        return len(_echelon([dict(v) for v in lines], range(len(exps)), field)[0])

    frame = [{e - lo: 1} for e in range(-point.tail_depth - 1, lo - 1, -1) if e < hi]
    for col in point.columns:
        frame.append(line([col.coeffs.get(e, point.ring.zero()).constant_term() for e in exps]))
    full = rank(frame)
    for mono in sorted(set().union(*[c.coeffs for c in psi.coeffs.values()])):
        target = line([psi.coeffs.get(e, psi.ring.zero()).coefficient(mono) for e in exps])
        if rank(frame + [target]) > full:
            return False, f"coefficient of {mono} is outside the span"
    return True, ""


def _suite_factorization(report: SuiteReport, rng: Random, scale: str) -> None:
    n_each = 8 if scale == "small" else 40
    fields = [QQ, GF(3), GF(5)]
    for mode in ("exact", "windowed"):
        for i in range(n_each):
            field = fields[i % len(fields)]
            spec = format_field_spec(field)
            ring = CoeffRing(field, rng.randint(1, 2), rng.randint(1, 3))
            f = _random_factorable(rng, ring, exact=mode == "exact")
            g = factorize(f)
            label = f"{mode} series #{i} ({spec}, d={ring.degree_bound})"
            report.check(
                f"factor parts multiply back ({label})",
                g.as_laurent().same_series(f),
                f"f={f}",
            )
            report.check(
                f"factor shapes are canonical ({label})",
                _factor_shape_ok(g) and g.zpower == f.reduced_valuation()[0],
            )
    # precision floor: the window must clear the nilpotent fringe
    ring = CoeffRing(QQ, 1, 2)
    x1 = ring.gen(0)
    tight = LaurentElement(ring, {-1: x1, 0: ring.one(), 1: ring.one()}, 2)
    report.expect_raises(
        "window at the precision floor is refused",
        PrecisionError,
        lambda: factorize(tight),
    )
    report.expect_raises(
        "series with no unit coefficient is refused",
        NotInvertibleError,
        lambda: factorize(LaurentElement(ring, {0: x1})),
    )
    for i in range(3):
        ring = CoeffRing(QQ, 2, 2)
        g = _random_group_element(rng, ring)
        prod = g * g.inverse(window=4)
        report.check(
            f"group inverse cancels (#{i})",
            prod.gminus.same_series(LaurentElement.one(ring))
            and prod.gplus.same_series(LaurentElement.one(ring))
            and prod.unit == ring.one()
            and prod.zpower == 0,
        )


def _factor_shape_ok(g: GammaElement) -> bool:
    gm, gp = g.gminus, g.gplus
    if gm.coefficient(0) != gm.ring.one() or gp.coefficient(0) != gp.ring.one():
        return False
    if any(e > 0 for e in gm.coeffs) or any(e < 0 for e in gp.coeffs):
        return False
    if any(not c.is_nilpotent() for e, c in gm.coeffs.items() if e < 0):
        return False
    return g.unit.is_unit()


def _random_factorable(
    rng: Random, ring: CoeffRing, exact: bool
) -> LaurentElement:
    n = rng.randint(-2, 2)
    coeffs = {n: _rand_unit(rng, ring)}
    for k in range(1, rng.randint(1, 3)):
        if ring.num_vars and rng.random() < 0.8:
            a = _rand_nilpotent(rng, ring)
            if a:
                coeffs[n - k] = a
    for e in range(n + 1, n + 4):
        if rng.random() < 0.6:
            a = _rand_element(rng, ring)
            if a:
                coeffs[e] = a
    if exact:
        return LaurentElement(ring, coeffs)
    r = n - min(coeffs)
    trunc = n + ring.degree_bound * r + rng.randint(2, 4)
    return LaurentElement(ring, coeffs, trunc)


def _suite_cocycle(report: SuiteReport, rng: Random, scale: str) -> None:
    # chart-to-chart transitions compose along any cycle
    for field in [QQ, GF(7)]:
        spec = format_field_spec(field)
        ring = CoeffRing(field, 0, 0)
        fixed = GrassPoint(
            ring,
            2,
            [
                LaurentElement(ring, {-2: ring.one(), 0: ring.one(), 1: ring.one()}),
                LaurentElement(ring, {-1: ring.one(), 0: ring.const(2), 1: ring.const(3)}),
            ],
        )
        points = [fixed] + [
            _random_point(rng, ring, rng.randint(2, 3), fill=0.8)
            for _ in range(1 if scale == "small" else 3)
        ]
        for p_i, pt in enumerate(points):
            charts = []
            for lam in partitions_up_to(3):
                m = MayaDiagram.from_partition(lam)
                try:
                    if in_chart(pt, m):
                        charts.append(m)
                except PrecisionError:
                    continue
            report.check(
                f"point #{p_i} has overlapping charts ({spec})",
                len(charts) >= 2,
                f"only {len(charts)} usable charts",
            )
            triples = 0
            ok = True
            for a, b, c in itertools.combinations(charts[:4], 3):
                lhs = chart_transition(pt, a, b) * chart_transition(pt, b, c)
                ok = ok and lhs == chart_transition(pt, a, c)
                triples += 1
            report.check(
                f"transitions compose over {triples} chart triples (point #{p_i}, {spec})",
                ok,
            )
            report.check(
                f"self-transition is 1 (point #{p_i}, {spec})",
                chart_transition(pt, charts[0], charts[0]) == ring.one(),
            )
    # the group action: exact multiplicativity on the triangular sectors,
    # and a point-independent central unit in general
    for field in [QQ, GF(5)]:
        spec = format_field_spec(field)
        ring = CoeffRing(field, 2, 2)
        reps = 2 if scale == "small" else 4
        for rep in range(reps):
            pt = _random_point(rng, ring, 2, fill=0.6)
            g1 = _random_group_element(rng, ring)
            g2 = _random_group_element(rng, ring)
            lower1 = GammaElement.from_parts(ring, gminus=g1.gminus, unit=g1.unit)
            lower2 = GammaElement.from_parts(ring, gminus=g2.gminus, unit=g2.unit)
            mid = act(lower2, pt)
            lhs = tau_eval(pt, lower1 * lower2)
            rhs = tau_eval(mid, lower1) * tau_eval(pt, lower2)
            report.check(
                f"lower-triangular action is multiplicative ({spec}, #{rep})",
                lhs == rhs,
                f"lhs={lhs} rhs={rhs}",
            )
            rho = _action_defect(pt, g1, g2)
            report.check(
                f"action defect is a unit ({spec}, #{rep})",
                rho.is_unit(),
                f"rho={rho}",
            )
            same_depth = [
                GrassPoint.base_point(ring, 2),
                _random_point(rng, ring, 2, fill=0.6),
            ]
            report.check(
                f"action defect does not depend on the point ({spec}, #{rep})",
                all(_action_defect(q, g1, g2) == rho for q in same_depth),
            )
            # only the crossing wings matter: g1's lower wing past g2's upper
            g1u = GammaElement(g1.gminus, ring.one(), g1.gplus, 0)
            g2u = GammaElement(g2.gminus, ring.one(), g2.gplus, 0)
            w1 = GammaElement.from_parts(ring, gminus=g1.gminus)
            w2 = GammaElement.from_parts(ring, gplus=g2.gplus)
            report.check(
                f"defect reduces to the crossing wings ({spec}, #{rep})",
                _action_defect(pt, g1u, g2u) == _action_defect(pt, w1, w2),
            )
            plus1 = GammaElement.from_parts(ring, gplus=g1.gplus)
            report.check(
                f"upper-past-lower order has no defect ({spec}, #{rep})",
                _action_defect(pt, plus1, lower2) == ring.one(),
            )
        report.check(
            f"identity acts trivially ({spec})",
            tau_eval(pt, GammaElement.identity(ring)) == ring.one(),
        )


def _action_defect(pt: GrassPoint, g1: GammaElement, g2: GammaElement) -> RingElement:
    lhs = tau_eval(pt, g1 * g2)
    rhs = tau_eval(act(g2, pt), g1) * tau_eval(pt, g2)
    return lhs * rhs.inverse()


def _suite_finite_embed(report: SuiteReport, rng: Random, scale: str) -> None:
    field = GF(2)
    ring = CoeffRing(field, 0, 0)
    small = GrassPoint(ring, 2, [])
    big = GrassPoint(
        ring,
        2,
        [LaurentElement.z_power(ring, e) for e in (-2, -1, 0, 1)],
    )
    basis = quotient_basis(small, big)
    report.check(
        "quotient basis is the four gap powers",
        [sorted(b.coeffs) for b in basis] == [[-2], [-1], [0], [1]],
        f"basis={basis}",
    )
    report.check("small side has index -2", index(small) == -2)
    report.check("big side has index 2", index(big) == 2)
    subspaces = _subspaces_gf2(4)
    report.check(
        "the 4-dimensional quotient has 67 subspaces", len(subspaces) == 67
    )
    exps = (-2, -1, 0, 1)
    all_ok = {"index": True, "minor": True, "chart": True, "charge": True}
    bad = ""
    for rows in subspaces:
        k = len(rows)
        emb = embed_finite(rows, small, big)
        if index(emb) != -2 + k:
            all_ok["index"] = False
            bad = bad or f"index({rows}) = {index(emb)}"
        for positions in itertools.combinations(range(4), k):
            maya = MayaDiagram(-2, [exps[p] for p in positions])
            fin = det_field(
                [[field.coerce(row[p]) for row in rows] for p in positions], field
            )
            lib = plucker(emb, maya)
            if lib.constant_term() != fin or not lib.is_constant():
                all_ok["minor"] = False
                bad = bad or f"minor mismatch at rows={rows} positions={positions}"
            if in_chart(emb, maya) != (fin != field.zero()):
                all_ok["chart"] = False
                bad = bad or f"chart mismatch at rows={rows} positions={positions}"
            if maya.charge() != -2 + k:
                all_ok["charge"] = False
                bad = bad or f"charge {maya.charge()} at positions={positions}"
    report.check("embedding shifts the index by the dimension", all_ok["index"], bad)
    report.check(
        "library minors equal the finite-model determinants", all_ok["minor"], bad
    )
    report.check("chart membership matches nonvanishing", all_ok["chart"], bad)
    report.check("diagram charges match the shifted index", all_ok["charge"], bad)


def _subspaces_gf2(n: int) -> list[list[list[int]]]:
    """Every subspace of GF(2)^n, as reduced row-echelon bases."""
    out: list[list[list[int]]] = [[]]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [
                (i, c)
                for i, p in enumerate(pivots)
                for c in range(p + 1, n)
                if c not in pivots
            ]
            for bits in range(1 << len(free)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for idx, (i, c) in enumerate(free):
                    rows[i][c] = (bits >> idx) & 1
                out.append(rows)
    return out


def _suite_exponentials(report: SuiteReport, rng: Random, scale: str) -> None:
    reps = 2 if scale == "small" else 5
    ring = CoeffRing(QQ, 2, 2)
    for rep in range(reps):
        a = [_rand_nilpotent(rng, ring) for _ in range(2)]
        b = [_rand_nilpotent(rng, ring) for _ in range(2)]
        both = [x + y for x, y in zip(a, b)]
        report.check(
            f"lower exponential is a homomorphism (#{rep})",
            exp_gamma(ring, a, -1) * exp_gamma(ring, b, -1)
            == exp_gamma(ring, both, -1),
        )
        ua = [_rand_element(rng, ring) for _ in range(2)]
        ub = [_rand_element(rng, ring) for _ in range(2)]
        w = 5
        report.check(
            f"upper exponential is a homomorphism on the window (#{rep})",
            (exp_gamma(ring, ua, 1, w) * exp_gamma(ring, ub, 1, w)).gplus
            == exp_gamma(ring, [x + y for x, y in zip(ua, ub)], 1, w).gplus,
        )
        # a mixed product round-trips through factorization; the window must
        # clear the precision floor left by the lower wing's fringe
        asingle = [_rand_nilpotent(rng, ring)]
        u = _rand_unit(rng, ring)
        wide = 8
        lower = exp_gamma(ring, asingle, -1).gminus
        upper = exp_gamma(ring, ua, 1, wide).gplus
        back = factorize(lower * LaurentElement.const(ring, u) * upper)
        report.check(
            f"exp(lower) * unit * exp(upper) refactors (#{rep})",
            back.gminus == lower
            and back.unit == u
            and back.gplus.same_series(upper)
            and back.zpower == 0,
        )
        # product form = exponential of the power sums, in char 0
        x = _rand_nilpotent(rng, ring)
        logs = []
        power = ring.one()
        for k in range(1, ring.degree_bound + 1):
            power = power * x
            logs.append(power * Fraction(-1, k))
        report.check(
            f"1 - a z^-1 matches exp of its power sums (#{rep})",
            witt_product(ring, [x], -1) == exp_gamma(ring, logs, -1).gminus,
        )
    report.check(
        "exp of nothing is the identity",
        exp_gamma(ring, [], -1).is_identity(),
    )
    report.expect_raises(
        "exponential refuses positive characteristic",
        DomainError,
        lambda: exp_gamma(CoeffRing(GF(5), 1, 2), [CoeffRing(GF(5), 1, 2).gen(0)], -1),
    )
    report.expect_raises(
        "upper exponential without a window is refused",
        PrecisionError,
        lambda: exp_gamma(ring, [ring.one()], 1),
    )
    # the one-point embedding: defining property and the clipped escape hatch
    t = ring.gen(0)
    emb = abel_embed(ring, [t])
    one_minus = LaurentElement(ring, {0: ring.one(), -1: -t})
    report.check(
        "nilpotent one-point embedding inverts 1 - t/z",
        (emb.gminus * one_minus) == LaurentElement.one(ring),
    )
    cring = CoeffRing(QQ, 0, 0)
    c = cring.const(Fraction(1, 2))
    report.expect_raises(
        "invertible point needs an explicit depth",
        DomainError,
        lambda: abel_embed(cring, [c]),
    )
    clipped = abel_embed(cring, [c], depth=3)
    report.check(
        "clipped embedding keeps the geometric coefficients",
        isinstance(clipped, LaurentElement)
        and all(
            clipped.coefficient(-k) == cring.const(Fraction(1, 2) ** k)
            for k in range(4)
        )
        and clipped.min_exp == -3,
    )


def _suite_witt(report: SuiteReport, rng: Random, scale: str) -> None:
    ring3 = CoeffRing(GF(3), 0, 0)
    vecs = list(itertools.product(range(3), repeat=2))

    def add(u, v):
        out = witt_add(ring3, [ring3.const(a) for a in u], [ring3.const(b) for b in v])
        return tuple(c.constant_term() for c in out)

    # the sum table of the 81 pairs, on residues: each check of the group
    # law reads it, and adds nothing beyond these 81
    table = {(u, v): add(u, v) for u in vecs for v in vecs}
    zero = (0, 0)
    report.check(
        "addition over GF(3) is commutative (81 pairs)",
        all(table[u, v] == table[v, u] for u in vecs for v in vecs),
    )
    report.check(
        "addition over GF(3) is associative (729 triples)",
        all(
            table[table[u, v], w] == table[u, table[v, w]]
            for u, v, w in itertools.product(vecs, repeat=3)
        ),
    )
    report.check("the zero vector is neutral", all(table[u, zero] == u for u in vecs))
    report.check(
        "every vector has exactly one negative",
        all(sum(table[u, v] == zero for v in vecs) == 1 for u in vecs),
    )
    # ghost components are additive, in char 0
    ringq = CoeffRing(QQ, 0, 0)
    reps = 4 if scale == "small" else 10
    for rep in range(reps):
        a = [ringq.const(_rand_value(rng, QQ)) for _ in range(3)]
        b = [ringq.const(_rand_value(rng, QQ)) for _ in range(3)]
        c = witt_add(ringq, a, b)
        ok = all(
            _ghost(c, n) == _ghost(a, n) + _ghost(b, n) for n in (1, 2, 3)
        )
        report.check(f"ghost components add (#{rep})", ok)
        m = max(len(a), len(b))
        report.check(
            f"sum reproduces the product modulo z^{m + 1} (#{rep})",
            witt_product(ringq, c, 1).truncate(m + 1)
            == (witt_product(ringq, a, 1) * witt_product(ringq, b, 1)).truncate(m + 1),
        )


def _ghost(vec, n: int):
    """n-th ghost component sum_{d | n} d * a_d^(n/d) of a Witt vector."""
    total = Fraction(0)
    for d in range(1, n + 1):
        if n % d == 0 and d <= len(vec):
            total += d * vec[d - 1].constant_term() ** (n // d)
    return total


def _suite_schur(report: SuiteReport, rng: Random, scale: str) -> None:
    for field, d in [(QQ, 4 if scale == "small" else 5), (GF(5), 3)]:
        spec = format_field_spec(field)
        ring = coordinate_ring(field, d)
        lams = partitions_up_to(d)
        ok = True
        bad = ""
        for lam in lams:
            for mu in lams:
                expect = field.one() if lam == mu else field.zero()
                got = duality_pair(
                    schur_polynomial(ring, lam), schur_polynomial(ring, mu)
                )
                if got != expect:
                    ok = False
                    bad = bad or f"<{lam},{mu}> = {got}"
        report.check(
            f"basis is orthonormal under the pairing ({spec}, d={d})", ok, bad
        )
        ok = all(
            all(ring.weight(m) == sum(lam) for m in schur_polynomial(ring, lam).coeffs)
            for lam in lams
        )
        report.check(f"basis elements are weight-homogeneous ({spec}, d={d})", ok)
    ring = coordinate_ring(QQ, 4)
    reps = 3 if scale == "small" else 8
    for rep in range(reps):
        p = _rand_element(rng, ring, max_terms=4)
        report.check(
            f"coordinates round-trip (#{rep})",
            bosonize(ring, to_schur_coords(p)) == p,
        )
    ok = True
    bad = ""
    for lam in partitions_up_to(3):
        got = to_schur_coords(ring.gen(0) * schur_polynomial(ring, lam))
        expect = {mu: QQ.one() for mu in _add_one_box(lam)}
        if got != expect:
            ok = False
            bad = bad or f"x1 * F_{lam} decomposed as {got}"
    report.check("multiplication by x1 adds one box", ok, bad)
    report.check(
        "basis elements above the bound vanish",
        schur_polynomial(coordinate_ring(QQ, 3), (4,)).is_zero()
        and schur_polynomial(coordinate_ring(QQ, 3), (2, 2)).is_zero()
        and not schur_polynomial(coordinate_ring(QQ, 3), (2, 1)).is_zero(),
    )


def _add_one_box(lam) -> list:
    out = []
    lam = list(lam)
    for i in range(len(lam) + 1):
        grown = lam[:]
        if i < len(lam):
            grown[i] += 1
        else:
            grown.append(1)
        if all(grown[j] >= grown[j + 1] for j in range(len(grown) - 1)):
            out.append(tuple(grown))
    return out


def _suite_hirota(report: SuiteReport, rng: Random, scale: str) -> None:
    reps = 2 if scale == "small" else 4
    d = 4 if scale == "small" else 5
    ring = CoeffRing(QQ, 0, 0)
    orders = [1] if scale == "small" else [1, 2]
    for rep in range(reps):
        pt = _random_point(rng, ring, rng.randint(1, 2), fill=0.7)
        t = tau_crosscheck(pt, d)
        for order in orders:
            report.check(
                f"tau of a random point solves the bilinear identity (order {order}, #{rep})",
                kp_residual(t, order).is_zero(),
                f"tau={t}",
            )
    cring = coordinate_ring(QQ, d)
    for lam in [(1,), (2, 1), (2, 2)]:
        report.check(
            f"coordinate point {lam} solves the bilinear identity",
            kp_residual(schur_polynomial(cring, lam), 1).is_zero(),
        )
    fake = cring.one() + cring.gen(0) * cring.gen(0)
    report.check(
        "the non-point 1 + x1^2 is rejected by the identity",
        not kp_residual(fake, 1).is_zero(),
    )
    report.expect_raises(
        "the identity needs characteristic zero",
        DomainError,
        lambda: kp_residual(coordinate_ring(GF(5), 4).one(), 1),
    )
    report.expect_raises(
        "orders beyond the degree bound are refused",
        DomainError,
        lambda: kp_residual(coordinate_ring(QQ, 4).one(), 2),
    )


def _suite_index_invariance(report: SuiteReport, rng: Random, scale: str) -> None:
    reps = 3 if scale == "small" else 6
    for field in [QQ, GF(3)]:
        spec = format_field_spec(field)
        ring = CoeffRing(field, 2, 2)
        for rep in range(reps):
            depth = rng.randint(1, 3)
            pt = _random_point(rng, ring, depth, fill=0.6)
            # charge-shifted variants: drop a column / append a fresh one
            variants = [pt]
            if depth >= 2:
                variants.append(GrassPoint(ring, depth, pt.columns[1:]))
            extra = LaurentElement(
                ring, {depth: ring.one(), depth + 1: ring.const(_rand_value(rng, field))}
            )
            variants.append(GrassPoint(ring, depth, pt.columns + [extra]))
            g = _random_group_element(rng, ring)
            for v_i, v in enumerate(variants):
                before = index(v)
                moved = act(g, v)
                ok = index(moved) == before
                promoted = act(g, v, promote=depth + 2)
                ok = ok and index(promoted) == before
                report.check(
                    f"index survives the action ({spec}, #{rep}, variant {v_i})",
                    ok,
                    f"before={before} after={index(moved)}",
                )
    ring = CoeffRing(QQ, 0, 0)
    report.check(
        "base points have index 0 at any depth",
        all(index(GrassPoint.base_point(ring, n)) == 0 for n in (1, 2, 4)),
    )


def _suite_pairings(report: SuiteReport, rng: Random, scale: str) -> None:
    ring = CoeffRing(QQ, 2, 2)
    x1, x2 = ring.gen(0), ring.gen(1)
    one = ring.one()
    frozen = commutator_pairing(
        LaurentElement(ring, {0: one, -1: x1}),
        LaurentElement(ring, {0: one, 1: x2}),
    )
    report.check(
        "frozen value: <1 + a/z, 1 + b z> = 1 + a b",
        frozen == one + x1 * x2,
        f"got {frozen}",
    )
    deep = commutator_pairing(
        LaurentElement(ring, {0: one, -2: x1}),
        LaurentElement(ring, {0: one, 2: x2}),
    )
    report.check(
        "frozen value: <1 + a/z^2, 1 + b z^2> = 1 + 2 a b",
        deep == one + x1 * x2 * 2,
        f"got {deep}",
    )
    report.check(
        "mismatched exponents pair to 1",
        commutator_pairing(
            LaurentElement(ring, {0: one, -2: x1}),
            LaurentElement(ring, {0: one, 1: x2}),
        )
        == one,
    )
    reps = 2 if scale == "small" else 4
    for rep in range(reps):
        f1 = _rand_pairing_arg(rng, ring)
        f2 = _rand_pairing_arg(rng, ring)
        g = _rand_pairing_arg(rng, ring)
        report.check(
            f"pairing is multiplicative on the left (#{rep})",
            commutator_pairing(f1 * f2, g)
            == commutator_pairing(f1, g) * commutator_pairing(f2, g),
        )
        report.check(
            f"swapping the arguments inverts the value (#{rep})",
            commutator_pairing(f1, g) * commutator_pairing(g, f1) == one,
        )
        lower = LaurentElement(ring, {0: one, -1: _rand_nilpotent(rng, ring)})
        upper1 = LaurentElement(ring, {0: one, 1: _rand_element(rng, ring)})
        upper2 = LaurentElement(ring, {0: one, 2: _rand_element(rng, ring)})
        report.check(
            f"same-wing arguments pair to 1 (#{rep})",
            commutator_pairing(upper1, upper2) == one
            and commutator_pairing(
                lower, LaurentElement(ring, {0: one, -2: _rand_nilpotent(rng, ring)})
            )
            == one,
        )
        report.check(
            f"first-order part matches the residue form (#{rep})",
            _leading_match(ring, rng),
        )
    # fringe widths 1 and 0 at d = 2: trunc 3 is the first window accepted
    known = {0: one, -1: x1, 1: x2, 2: one}
    other = LaurentElement(ring, {0: one, 1: x2 + one})
    windowed = commutator_pairing(LaurentElement(ring, known, 3), other)
    completions = [
        commutator_pairing(LaurentElement(ring, {**known, **tail}), other)
        for tail in ({}, {3: one, 5: x1})
    ]
    report.check(
        "a windowed argument at the floor pairs like its exact completions",
        all(value == windowed for value in completions),
        f"windowed {windowed}, completions {completions}",
    )
    # positive characteristic, and lower wings of fringe 3 (3 x 3 norms)
    for field in (QQ, GF(2), GF(3)):
        fring = CoeffRing(field, 2, 3)
        fone = fring.one()
        for rep in range(reps):
            fringe = 3 - rep % 2
            f1, f2, g = (_rand_pairing_arg(rng, fring, fringe) for _ in range(3))
            report.check(
                f"{field!r}, fringe {fringe}: pairing is multiplicative on the left (#{rep})",
                commutator_pairing(f1 * f2, g)
                == commutator_pairing(f1, g) * commutator_pairing(f2, g),
            )
            report.check(
                f"{field!r}, fringe {fringe}: swapping the arguments inverts the value (#{rep})",
                commutator_pairing(f1, g) * commutator_pairing(g, f1) == fone,
            )
        for i, j in ((1, 2), (1, 3), (2, 2), (3, 1), (3, 2), (2, 3)):
            # a with a weight-1 term and b a unit keep a^(j/h) b^(i/h) nonzero
            a = fring.gen(0) + _rand_nilpotent(rng, fring)
            b = fone + _rand_element(rng, fring)
            h = gcd(i, j)
            symbol = (fone - a ** (j // h) * b ** (i // h)) ** h
            lower = LaurentElement(fring, {0: fone, -i: -a})
            upper = LaurentElement(fring, {0: fone, j: -b})
            report.check(
                f"{field!r}: <1 - a z^-{i}, 1 - b z^{j}> = (1 - a^{j // h} b^{i // h})^-{h}",
                commutator_pairing(lower, upper) == symbol.inverse()
                and commutator_pairing(upper, lower) == symbol,
            )


def _rand_pairing_arg(rng: Random, ring: CoeffRing, fringe: int = 0) -> LaurentElement:
    """1 + random terms at -2..2, or, with ``fringe``, a nilpotent term
    at exactly z^-fringe and random terms at the exponents above it up to
    z^fringe."""
    coeffs = {0: ring.one()}
    for e in range(-fringe, fringe + 1) if fringe else (-2, -1, 1, 2):
        if e and (e == -fringe or rng.random() < 0.5):
            a = _rand_nilpotent(rng, ring) if e < 0 else _rand_element(rng, ring)
            while e == -fringe and not a:
                a = _rand_nilpotent(rng, ring)
            if a:
                coeffs[e] = a
    return LaurentElement(ring, coeffs)


def _leading_match(ring: CoeffRing, rng: Random) -> bool:
    """<1 + f, 1 + g> begins at 1 + res(f dg) when f, g are single
    square-zero terms on opposite wings."""
    k = rng.randint(1, 2)
    f = ring.gen(0) if rng.random() < 0.5 else ring.gen(1)
    g = ring.gen(1) if rng.random() < 0.5 else ring.gen(0)
    fl = LaurentElement(ring, {-k: f})
    gl = LaurentElement(ring, {k: g})
    lhs = commutator_pairing(
        LaurentElement.one(ring) + fl, LaurentElement.one(ring) + gl
    )
    return lhs == ring.one() + residue_pairing(fl, gl)


SUITES = {
    "tau-crosscheck": _suite_tau_crosscheck,
    "tau-base-baker": _suite_tau_base_baker,
    "factorization": _suite_factorization,
    "cocycle": _suite_cocycle,
    "finite-embed": _suite_finite_embed,
    "exponentials": _suite_exponentials,
    "witt": _suite_witt,
    "schur": _suite_schur,
    "hirota": _suite_hirota,
    "index-invariance": _suite_index_invariance,
    "pairings": _suite_pairings,
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, seed: int = 0, scale: str = "small") -> SuiteReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if scale not in ("small", "full"):
        raise DomainError("scale must be 'small' or 'full'")
    report = SuiteReport(name, seed, scale)
    started = time.monotonic()
    SUITES[name](report, Random(seed), scale)
    report.elapsed = time.monotonic() - started
    return report
