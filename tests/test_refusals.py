"""Every precondition refusal that the other tests never reach, in one table:
each entry names the call, the exception it raises and a fragment of its
message."""

import io
import json

import pytest

from grasstau import (
    GF,
    QQ,
    CoeffRing,
    DomainError,
    GammaElement,
    GrassPoint,
    LaurentElement,
    PrecisionError,
    RingMismatchError,
    abel_embed,
    act,
    baker,
    commutator_pairing,
    coordinate_ring,
    duality_pair,
    exp_gamma,
    kp_residual,
    quotient_basis,
    residue_pairing,
    run_suite,
    schur_polynomial,
    tau_crosscheck,
    tau_direct,
    tau_schur,
    universal_v,
    witt_product,
)
from grasstau.cli import main
from grasstau.linalg import det_field, inv_ring, mat_mul_ring, solve_field

R = CoeffRing(QQ, 1, 2)
OTHER = CoeffRing(GF(5), 1, 2)
X = R.gen(0)
ONE = LaurentElement.one(R)
POINT = GrassPoint(R, 1, [LaurentElement(R, {-1: 1})])
FOREIGN_POINT = GrassPoint(OTHER, 1, [])


def L(coeffs, trunc=None):
    return LaurentElement(R, coeffs, trunc)


def gamma(gminus=ONE, unit=None, gplus=ONE):
    return GammaElement(gminus, R.one() if unit is None else unit, gplus)


REFUSALS = {
    # GammaElement: the parts must form a normalized factorization
    "gamma-parts-rings": (
        lambda: gamma(gminus=LaurentElement.one(OTHER)),
        RingMismatchError,
        "factor parts live over different rings",
    ),
    "gamma-gminus-windowed": (lambda: gamma(gminus=L({0: 1}, 3)), DomainError, "gminus must be exactly known"),
    "gamma-gminus-constant": (lambda: gamma(gminus=L({0: 2})), DomainError, "gminus must have constant term 1"),
    "gamma-gminus-positive": (
        lambda: gamma(gminus=L({0: 1, 1: X})),
        DomainError,
        "gminus may not contain positive exponents",
    ),
    "gamma-gminus-unit-fringe": (
        lambda: gamma(gminus=L({-1: 1, 0: 1})),
        DomainError,
        "gminus coefficients below z^0 must be nilpotent",
    ),
    "gamma-unit-nilpotent": (lambda: gamma(unit=X), DomainError, "unit part must be invertible"),
    "gamma-gplus-negative": (
        lambda: gamma(gplus=L({-1: X, 0: 1})),
        DomainError,
        "gplus may not contain negative exponents",
    ),
    "gamma-gplus-window": (lambda: gamma(gplus=L({}, 0)), PrecisionError, "gplus is not even determined at z^0"),
    "gamma-gplus-constant": (lambda: gamma(gplus=L({0: 2})), DomainError, "gplus must have constant term 1"),
    "gamma-mul-rings": (
        lambda: gamma() * universal_v(QQ, 1),
        RingMismatchError,
        "Gamma elements over different rings",
    ),
    # points and the action
    "point-negative-depth": (lambda: GrassPoint(R, -1, []), DomainError, "tail_depth must be >= 0"),
    "point-foreign-column": (
        lambda: GrassPoint(R, 1, [LaurentElement.one(OTHER)]),
        RingMismatchError,
        "columns must be Laurent elements over the ring",
    ),
    "point-ring-element-column": (
        lambda: GrassPoint(R, 1, [X]),
        RingMismatchError,
        "columns must be Laurent elements over the ring",
    ),
    "act-rings": (
        lambda: act(gamma(), FOREIGN_POINT),
        RingMismatchError,
        "group element and point live over different rings",
    ),
    "quotient-rings": (
        lambda: quotient_basis(POINT, FOREIGN_POINT),
        RingMismatchError,
        "points live over different rings",
    ),
    "quotient-tails": (
        lambda: quotient_basis(GrassPoint(R, 0, []), POINT),
        DomainError,
        "containment needs big.tail_depth <= small.tail_depth",
    ),
    "quotient-window": (
        lambda: quotient_basis(GrassPoint(R, 1, [L({-1: 1}, 2)]), POINT),
        PrecisionError,
        "quotient basis needs exactly known columns",
    ),
    # matrix shapes
    "mat-mul-inner": (
        lambda: mat_mul_ring([[X]], [[X], [X]], R),
        DomainError,
        "inner dimensions do not match",
    ),
    "inv-ring-square": (lambda: inv_ring([[X, X]], R), DomainError, "inv_ring needs a square matrix"),
    "det-field-square": (lambda: det_field([[1, 2]], QQ), DomainError, "det_field needs a square matrix"),
    "solve-field-rhs": (
        lambda: solve_field([[1]], [1, 2], QQ),
        DomainError,
        "right-hand side length does not match",
    ),
    # series and their pairings
    "laurent-foreign-coefficient": (
        lambda: L({0: OTHER.one()}),
        RingMismatchError,
        "coefficient from a different ring",
    ),
    "same-series-type": (lambda: ONE.same_series(X), DomainError, "same_series compares Laurent elements"),
    "same-series-rings": (
        lambda: ONE.same_series(LaurentElement.one(OTHER)),
        RingMismatchError,
        "cannot compare series over different rings",
    ),
    "residue-pairing-rings": (
        lambda: residue_pairing(ONE, LaurentElement.one(OTHER)),
        RingMismatchError,
        "residue pairing needs a common ring",
    ),
    "commutator-pairing-rings": (
        lambda: commutator_pairing(ONE, LaurentElement.one(OTHER)),
        RingMismatchError,
        "commutator pairing needs a common ring",
    ),
    # rings and field values
    "ring-negative-vars": (lambda: CoeffRing(QQ, -1, 2), DomainError, "num_vars must be >= 0"),
    "ring-negative-bound": (lambda: CoeffRing(QQ, 1, -1), DomainError, "degree_bound must be >= 0"),
    "ring-gen-past-end": (lambda: R.gen(1), DomainError, "no generator 1"),
    "ring-gen-negative": (lambda: R.gen(-1), DomainError, "no generator -1"),
    "ring-negative-power": (lambda: X**-1, DomainError, "only nonnegative integer powers"),
    "field-bool": (lambda: QQ.coerce(True), DomainError, "booleans are not field values"),
    "field-float": (lambda: GF(5).coerce(0.5), DomainError, "cannot coerce 0.5 into GF(5)"),
    "coordinate-ring-negative": (lambda: coordinate_ring(QQ, -1), DomainError, "bound must be >= 0"),
    "schur-plain-ring": (
        lambda: schur_polynomial(R, (1,)),
        DomainError,
        "Schur machinery needs the weighted coordinate ring",
    ),
    "duality-rings": (
        lambda: duality_pair(coordinate_ring(QQ, 2).one(), coordinate_ring(GF(5), 2).one()),
        RingMismatchError,
        "duality pairing needs a common ring",
    ),
    # tau routes, the wave series and the residual
    "tau-direct-bound": (lambda: tau_direct(POINT, 0), DomainError, "degree bound must be >= 1"),
    "tau-schur-bound": (lambda: tau_schur(POINT, 0), DomainError, "degree bound must be >= 1"),
    "tau-crosscheck-bound": (lambda: tau_crosscheck(POINT, 0), DomainError, "degree bound must be >= 1"),
    "baker-bound": (lambda: baker(POINT, 0, 1), DomainError, "degree bound must be >= 1"),
    "baker-window": (lambda: baker(POINT, 1, 0), DomainError, "window must be >= 1"),
    "kp-residual-plain-ring": (
        lambda: kp_residual(R.one(), 1),
        DomainError,
        "kp_residual expects the weighted coordinate ring",
    ),
    "kp-residual-negative-order": (
        lambda: kp_residual(coordinate_ring(QQ, 4).one(), -1),
        DomainError,
        "order must be >= 0",
    ),
    # Witt and exponential bridges
    "universal-v-zero": (lambda: universal_v(QQ, 0), DomainError, "d must be at least 1"),
    "exp-gamma-sign": (lambda: exp_gamma(R, [X], 0), DomainError, "sign must be +1 or -1"),
    "exp-gamma-rings": (
        lambda: exp_gamma(R, [OTHER.gen(0)], -1),
        RingMismatchError,
        "exponent coefficients must live in the given ring",
    ),
    "witt-product-sign": (lambda: witt_product(R, [X], 2), DomainError, "sign must be +1 or -1"),
    "witt-product-rings": (
        lambda: witt_product(R, [OTHER.gen(0)], 1),
        RingMismatchError,
        "coefficients must live in the given ring",
    ),
    "abel-rings": (
        lambda: abel_embed(R, [OTHER.gen(0)]),
        RingMismatchError,
        "points must live in the given ring",
    ),
    # verify suites
    "suite-unknown": (lambda: run_suite("nope"), DomainError, "unknown suite 'nope'"),
    "suite-scale": (lambda: run_suite("witt", scale="huge"), DomainError, "scale must be 'small' or 'full'"),
}


@pytest.mark.parametrize("call, error, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


@pytest.mark.parametrize("text", ["", " \n\t"], ids=["empty", "blank"])
def test_cli_empty_payload_is_malformed(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["factor"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "malformed"
    assert out["error"] == "empty payload"
