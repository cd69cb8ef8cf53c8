"""End-to-end acceptance checks, one per shipping criterion.

Each test drives one (or two) of the randomized verification suites at
full scale, at two oracle seeds, and prints one PASS/FAIL line per seed;
run with ``-s`` to see them.  The suites live in ``grasstau.verify`` and are the same ones the
``grasstau verify`` subcommand exposes.  Each suite's report, its (label,
ok, detail) list, is also frozen as a digest at each seed: a change to any check, its
draws or its wording shows as a changed digest here.
"""

import hashlib
import json

from grasstau import run_suite

SEEDS = (2026, 7)
SCALE = "full"

# sha256 of json.dumps(report.checks), first 16 hex digits, at each seed and SCALE
REPORT_DIGESTS = {
    2026: {
        "tau-crosscheck": "04475958197806fc",
        "tau-base-baker": "62d8832265dbcaee",
        "factorization": "3ce68a4fb48feeb4",
        "cocycle": "4fd9797850944474",
        "finite-embed": "b5faf8afffe535c3",
        "exponentials": "ce39413b368f91c1",
        "witt": "45b828c7bbc6d543",
        "schur": "ce89eed89cbd76a3",
        "hirota": "b07e34f7889dc6c5",
        "index-invariance": "e8a1628bc8edd4c4",
        "pairings": "1c058787d244178e",
    },
    7: {
        "tau-crosscheck": "df10a0684dc6a672",
        "tau-base-baker": "62d8832265dbcaee",
        "factorization": "55ad3c653f596061",
        "cocycle": "4fd9797850944474",
        "finite-embed": "b5faf8afffe535c3",
        "exponentials": "ce39413b368f91c1",
        "witt": "45b828c7bbc6d543",
        "schur": "ce89eed89cbd76a3",
        "hirota": "b07e34f7889dc6c5",
        "index-invariance": "199cbf8f5ab57e52",
        "pairings": "1c058787d244178e",
    },
}


def _digest(report):
    return hashlib.sha256(json.dumps(report.checks).encode()).hexdigest()[:16]


def _criterion(number, description, *suites, budget_seconds=None):
    for seed in SEEDS:
        reports = [run_suite(name, seed=seed, scale=SCALE) for name in suites]
        ok = all(r.passed for r in reports)
        elapsed = sum(r.elapsed for r in reports)
        if budget_seconds is not None and elapsed > budget_seconds:
            ok = False
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} (seed {seed}): {description}")
        failures = [f for r in reports for f in r.failures()]
        assert ok, (seed, failures, f"elapsed {elapsed:.1f}s")
        changed = [r.name for r in reports if _digest(r) != REPORT_DIGESTS[seed][r.name]]
        assert not changed, f"reports changed at seed {seed}: {changed}"


def test_criterion_01_tau_routes_agree():
    _criterion(
        1,
        "direct and chart-expansion tau agree on randomized points, in budget",
        "tau-crosscheck",
        budget_seconds=60,
    )


def test_criterion_02_base_point_and_wave_series():
    _criterion(
        2,
        "base-point tau is 1 and the shifted wave series lies in the point's span",
        "tau-base-baker",
    )


def test_criterion_03_factorization_round_trip():
    _criterion(
        3,
        "triangular factorization round-trips with honest precision windows",
        "factorization",
    )


def test_criterion_04_action_cocycle():
    _criterion(
        4,
        "action is multiplicative in the triangular sectors with a central, "
        "point-independent defect across wings",
        "cocycle",
    )


def test_criterion_05_finite_model_embedding():
    _criterion(
        5,
        "every subspace of the finite F_2 model embeds with matching minors, "
        "charges, and additive index",
        "finite-embed",
    )


def test_criterion_06_exponential_and_product_form():
    _criterion(
        6,
        "exponentials are wing homomorphisms; product-form addition matches "
        "ghost components",
        "exponentials",
        "witt",
    )


def test_criterion_07_commutator_pairing():
    _criterion(
        7,
        "commutator pairing is skew, multiplicative, tail-stable, and has "
        "the residue pairing as leading term",
        "pairings",
    )


def test_criterion_08_schur_layer():
    _criterion(
        8,
        "Schur layer has orthonormal duality and an invertible coordinate change",
        "schur",
    )


def test_criterion_09_bilinear_residual():
    _criterion(
        9,
        "bilinear-identity residual vanishes on tau polynomials and flags a non-tau",
        "hirota",
    )


def test_criterion_10_index_invariance():
    _criterion(
        10,
        "the index is invariant under the group action and representation choices",
        "index-invariance",
    )
