"""The verify suites' failure paths.

Each suite is run at full scale, seed 2026, with one library function
patched to a wrong variant, and must fail exactly the checks that read
it, with their details.  The witt suite's group-law checks read one sum
table, so the suite adds only the 81 pairs and its random ghost cases.
"""

import re

import pytest

from grasstau import verify
from grasstau.errors import DomainError
from grasstau.laurent import LaurentElement
from grasstau.verify import run_suite


def _failures(name, scale="full"):
    return run_suite(name, seed=2026, scale=scale).failures()


def _silent(exc):
    return None


def _wrong(exc):
    raise ArithmeticError(str(exc)) from None


@pytest.mark.parametrize("variant, detail", [(_silent, "no error raised"), (_wrong, "wrong error ArithmeticError: ")])
def test_hirota_fails_its_refusals_when_kp_residual_stops_refusing(monkeypatch, variant, detail):
    real = verify.kp_residual

    def patched(p, order):
        try:
            return real(p, order)
        except DomainError as exc:
            variant(exc)
            return p.ring.zero()

    monkeypatch.setattr(verify, "kp_residual", patched)
    failures = _failures("hirota")
    assert [label for label, _ in failures] == [
        "the identity needs characteristic zero",
        "orders beyond the degree bound are refused",
    ]
    assert all(why.startswith(detail) for _, why in failures)


def test_tau_base_baker_fails_when_the_wave_series_leaves_the_span(monkeypatch):
    # baker + x1 z: off the universal series at the base point, and x1's
    # coefficient outside the point's span on every window
    real = verify.baker

    def patched(point, bound, window):
        psi = real(point, bound, window)
        return psi + LaurentElement(psi.ring, {1: psi.ring.gen(0)})

    monkeypatch.setattr(verify, "baker", patched)
    failures = _failures("tau-base-baker")
    assert len(failures) == 12
    base = [f for f in failures if f[0].startswith("wave series at the base point inverts")]
    span = [f for f in failures if f[0].startswith("shifted wave series lies in the point's span")]
    assert (len(base), len(span)) == (4, 8)
    assert all(re.fullmatch(r"coefficient of \(1, 0(, 0)?\) is outside the span", why) for _, why in span)


def test_witt_fails_only_associativity_when_the_sum_is_skewed(monkeypatch):
    # 1 added to the second component when both first components are 1
    real = verify.witt_add

    def patched(ring, a, b):
        out = real(ring, a, b)
        if a[0] == ring.one() and b[0] == ring.one():
            out[1] = out[1] + ring.one()
        return out

    monkeypatch.setattr(verify, "witt_add", patched)
    assert _failures("witt") == [("addition over GF(3) is associative (729 triples)", "failed")]


@pytest.mark.parametrize("scale, calls", [("full", 91), ("small", 85)])
def test_witt_adds_the_table_and_the_ghost_cases_only(monkeypatch, scale, calls):
    # 81 table entries and one sum per ghost case (10 full, 4 small)
    real = verify.witt_add
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(verify, "witt_add", counted)
    assert _failures("witt", scale) == []
    assert count == calls


FINITE_EMBED_MUTANTS = [
    ("index", lambda real: lambda pt: real(pt) + (len(pt.columns) == 1),
     "embedding shifts the index by the dimension", "index("),
    ("plucker", lambda real: lambda pt, maya: real(pt, maya) + pt.ring.one(),
     "library minors equal the finite-model determinants", "minor mismatch at "),
    ("in_chart", lambda real: lambda pt, maya: not real(pt, maya),
     "chart membership matches nonvanishing", "chart mismatch at "),
]


@pytest.mark.parametrize("name, mutant, label, detail", FINITE_EMBED_MUTANTS, ids=[m[0] for m in FINITE_EMBED_MUTANTS])
def test_finite_embed_fails_the_check_of_a_wrong_function(monkeypatch, name, mutant, label, detail):
    monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
    failures = _failures("finite-embed")
    assert [f[0] for f in failures] == [label]
    assert failures[0][1].startswith(detail)


def test_schur_fails_orthonormality_when_the_pairing_ignores_its_second_argument(monkeypatch):
    real = verify.duality_pair
    monkeypatch.setattr(verify, "duality_pair", lambda f, g: real(f, f))
    failures = _failures("schur")
    assert [f[0] for f in failures] == [
        "basis is orthonormal under the pairing (q, d=5)",
        "basis is orthonormal under the pairing (fp:5, d=3)",
    ]
    assert all(why.startswith("<(),(1,)> = 1") for _, why in failures)


def test_schur_fails_the_coordinate_checks_when_coordinates_double(monkeypatch):
    real = verify.to_schur_coords
    monkeypatch.setattr(verify, "to_schur_coords", lambda p: {lam: v * 2 for lam, v in real(p).items()})
    failures = _failures("schur")
    assert [f[0] for f in failures] == [f"coordinates round-trip (#{rep})" for rep in range(8)] + [
        "multiplication by x1 adds one box"
    ]
    assert failures[-1][1].startswith("x1 * F_() decomposed as ")
