"""Every precondition refusal that the other tests never reach, in one table:
each entry names the call, the exception it raises and a fragment of its
message.  A second table lists the size, bound and order arguments, which
``errors._at_least`` reads: each refuses a value that is not an int.  A
third lists the int arguments with no floor, which ``errors._an_int``
reads, and ``act``'s promote on the wings that promote nothing."""

import io
import json
import re

import pytest

from grasstau import (
    GF,
    QQ,
    BaseField,
    CoeffRing,
    DomainError,
    GammaElement,
    GrassPoint,
    LaurentElement,
    MayaDiagram,
    PrecisionError,
    RingMismatchError,
    abel_embed,
    act,
    baker,
    bosonize,
    commutator_pairing,
    conjugate,
    coordinate_ring,
    duality_pair,
    exp_gamma,
    kp_residual,
    partitions_of,
    partitions_up_to,
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
    "act-negative-promote": (
        lambda: act(gamma(gplus=L({0: 1, 1: X})), POINT, promote=-1),
        DomainError,
        "promote must be >= 0",
    ),
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
    "ring-zero-weight": (lambda: CoeffRing(QQ, 1, 3, weights=(0,)), DomainError, "weights must be positive integers"),
    "field-bool": (lambda: QQ.coerce(True), DomainError, "booleans are not field values"),
    # a value is read before its monomial is dropped past the bound
    "ring-bool-value-past-the-bound": (lambda: R.element({(3,): True}), DomainError, "booleans are not field values"),
    "ring-float-value-past-the-bound": (lambda: R.element({(3,): 0.5}), DomainError, "cannot coerce 0.5 into QQ"),
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
    "abel-negative-depth": (lambda: abel_embed(R, [R.one()], depth=-1), DomainError, "depth must be >= 0"),
    # ints only: a float or a bool was once truncated or read as 0 or 1
    "schur-float-part": (
        lambda: schur_polynomial(coordinate_ring(QQ, 3), (2.5,)),
        DomainError,
        "partition parts must be ints",
    ),
    "schur-float-part-after-its-int": (
        lambda: (schur_polynomial(coordinate_ring(QQ, 3), (2,)), schur_polynomial(coordinate_ring(QQ, 3), (2.0,))),
        DomainError,
        "partition parts must be ints",
    ),
    "bosonize-float-part": (
        lambda: bosonize(coordinate_ring(QQ, 3), {(1.9,): 1}),
        DomainError,
        "partition parts must be ints",
    ),
    "conjugate-float-part": (lambda: conjugate((2.5, 1)), DomainError, "partition parts must be ints"),
    "conjugate-increasing": (lambda: conjugate((1, 2)), DomainError, "partition parts must be non-increasing"),
    "maya-float-tail": (lambda: MayaDiagram(-1.5, [0]), DomainError, "diagram entries must be ints"),
    "maya-bool-member": (lambda: MayaDiagram(0, [1, True]), DomainError, "diagram entries must be ints"),
    "maya-float-partition": (
        lambda: MayaDiagram.from_partition((2.2, 1)),
        DomainError,
        "partition parts must be ints",
    ),
    "point-bool-depth": (
        lambda: GrassPoint(R, True, [LaurentElement(R, {-1: 1})]),
        DomainError,
        "tail_depth must be an int, not True",
    ),
    "ring-float-weight": (
        lambda: CoeffRing(QQ, 1, 3, weights=(1.5,)),
        DomainError,
        "weights must be positive integers",
    ),
    "ring-bool-weight": (lambda: CoeffRing(QQ, 1, 3, weights=(True,)), DomainError, "weights must be positive integers"),
    "ring-bool-power": (lambda: X**True, DomainError, "only nonnegative integer powers"),
    "series-bool-power": (lambda: ONE**True, DomainError, "only nonnegative integer powers"),
    "exp-gamma-bool-sign": (lambda: exp_gamma(R, [X], True), DomainError, "sign must be +1 or -1"),
    "witt-product-bool-sign": (lambda: witt_product(R, [X], True), DomainError, "sign must be +1 or -1"),
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


# name -> (call taking the argument, its floor, its name in messages)
INT_ARGUMENTS = {
    "ring-num-vars": (lambda v: CoeffRing(QQ, v, 2), 0, "num_vars"),
    "ring-degree-bound": (lambda v: CoeffRing(QQ, 1, v), 0, "degree_bound"),
    "point-tail-depth": (lambda v: GrassPoint(R, v, []), 0, "tail_depth"),
    "act-promote": (lambda v: act(gamma(gplus=L({0: 1, 1: X})), POINT, promote=v), 0, "promote"),
    "abel-depth": (lambda v: abel_embed(R, [R.one()], depth=v), 0, "depth"),
    "coordinate-ring-bound": (lambda v: coordinate_ring(QQ, v), 0, "bound"),
    "tau-bound": (lambda v: tau_direct(POINT, v), 1, "degree bound"),
    "baker-bound": (lambda v: baker(POINT, v, 1), 1, "degree bound"),
    "baker-window": (lambda v: baker(POINT, 1, v), 1, "window"),
    "kp-residual-order": (lambda v: kp_residual(coordinate_ring(QQ, 4).one(), v), 0, "order"),
}


@pytest.mark.parametrize("value", [1.5, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call, low, what", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS.keys())
def test_int_argument_refuses_every_other_type(call, low, what, value):
    with pytest.raises(DomainError, match=f"^{what} must be an int, not {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("call, low, what", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS.keys())
def test_int_argument_below_its_floor_keeps_its_message(call, low, what):
    for value in sorted({low - 1, -1}):
        with pytest.raises(DomainError) as info:
            call(value)
        assert type(info.value) is DomainError
        assert str(info.value) == f"{what} must be >= {low}"
    call(low)


@pytest.mark.parametrize("text", ["", " \n\t"], ids=["empty", "blank"])
def test_cli_empty_payload_is_malformed(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["factor"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "malformed"
    assert out["error"] == "empty payload"


LOWER_WING = gamma(gminus=L({-1: X, 0: 1}))

# name -> (call, its exact DomainError message); each call once ended in a
# TypeError, read a float or bool as an int, named another argument, or
# (act on a trivial upper wing) returned the point unchanged
INT_READS = {
    "partitions-up-to-float": (lambda: partitions_up_to(2.5), "bound must be an int, not 2.5"),
    "partitions-up-to-bool": (lambda: partitions_up_to(True), "bound must be an int, not True"),
    "partitions-of-float": (lambda: list(partitions_of(2.5)), "n must be an int, not 2.5"),
    "partitions-of-bool": (lambda: list(partitions_of(True)), "n must be an int, not True"),
    "partitions-of-bool-max-part": (lambda: list(partitions_of(2, True)), "max_part must be an int, not True"),
    "universal-v-float": (lambda: universal_v(QQ, 2.0), "d must be an int, not 2.0"),
    "universal-v-bool": (lambda: universal_v(QQ, True), "d must be an int, not True"),
    "gen-bool": (lambda: CoeffRing(QQ, 3, 2).gen(True), "generator index must be an int, not True"),
    "gen-float": (lambda: CoeffRing(QQ, 3, 2).gen(0.0), "generator index must be an int, not 0.0"),
    "laurent-inverse-window-float": (lambda: L({0: 1, 1: 1}).inverse(window=2.5), "window must be an int, not 2.5"),
    "gamma-inverse-window-float": (
        lambda: gamma(gplus=L({0: 1, 1: 1})).inverse(window=2.5),
        "window must be an int, not 2.5",
    ),
    "exp-gamma-trunc-float": (lambda: exp_gamma(R, [X], 1, 2.5), "truncation order must be an int, not 2.5"),
    "exp-gamma-trunc-bool": (lambda: exp_gamma(R, [X], -1, True), "truncation order must be an int, not True"),
    "act-identity-promote-negative": (
        lambda: act(GammaElement.identity(R), POINT, promote=-1),
        "promote must be >= 0",
    ),
    "act-identity-promote-float": (
        lambda: act(GammaElement.identity(R), POINT, promote=1.5),
        "promote must be an int, not 1.5",
    ),
    "act-lower-wing-promote-negative": (lambda: act(LOWER_WING, POINT, promote=-1), "promote must be >= 0"),
    "act-lower-wing-promote-bool": (lambda: act(LOWER_WING, POINT, promote=True), "promote must be an int, not True"),
    "laurent-shift-bool": (lambda: ONE.shift(True), "shift must be an int, not True"),
    "laurent-clip-below-float": (lambda: ONE.clip_below(0.5), "cut must be an int, not 0.5"),
    "laurent-clip-below-bool": (lambda: ONE.clip_below(True), "cut must be an int, not True"),
    "gamma-zpower-true": (lambda: GammaElement(ONE, R.one(), ONE, True), "zpower must be an int, not True"),
    "gamma-zpower-false": (lambda: GammaElement(ONE, R.one(), ONE, False), "zpower must be an int, not False"),
    "laurent-exponent-bool": (lambda: L({True: 1}), "Laurent exponent must be an int, not True"),
    "laurent-trunc-float": (lambda: L({0: 1}, 2.5), "truncation order must be an int, not 2.5"),
    "laurent-coefficient-float": (lambda: ONE.coefficient(0.0), "Laurent exponent must be an int, not 0.0"),
    "laurent-coefficient-bool": (lambda: L({1: X}).coefficient(True), "Laurent exponent must be an int, not True"),
    "laurent-windowed-coefficient-bool": (
        lambda: L({0: 1}, 2).coefficient(True),
        "Laurent exponent must be an int, not True",
    ),
    "field-char-float": (lambda: BaseField(5.0), "field characteristic must be an int, not 5.0"),
    "field-char-zero-float": (lambda: BaseField(0.0), "field characteristic must be an int, not 0.0"),
    "field-char-bool": (lambda: BaseField(True), "field characteristic must be an int, not True"),
    "field-char-str": (lambda: BaseField("5"), "field characteristic must be an int, not '5'"),
    "gf-char-float": (lambda: GF(5.0), "field characteristic must be an int, not 5.0"),
}


@pytest.mark.parametrize("call, message", INT_READS.values(), ids=INT_READS.keys())
def test_int_read_refuses_with_its_own_message(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError
    assert str(info.value) == message

