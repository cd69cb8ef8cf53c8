"""End-to-end acceptance checks, one per shipping criterion.

Each test drives one (or two) of the randomized verification suites at
full scale and prints a single PASS/FAIL line; run with ``-s`` to see
them.  The suites live in ``grasstau.verify`` and are the same ones the
``grasstau verify`` subcommand exposes.
"""

from grasstau import run_suite

SEED = 2026
SCALE = "full"


def _criterion(number, description, *suites, budget_seconds=None):
    reports = [run_suite(name, seed=SEED, scale=SCALE) for name in suites]
    ok = all(r.passed for r in reports)
    elapsed = sum(r.elapsed for r in reports)
    if budget_seconds is not None and elapsed > budget_seconds:
        ok = False
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    failures = [f for r in reports for f in r.failures()]
    assert ok, (failures, f"elapsed {elapsed:.1f}s")


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
