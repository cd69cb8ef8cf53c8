"""JSON codecs and the command-line surface (exit codes, determinism)."""

import argparse
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grasstau
from grasstau import (
    GF,
    QQ,
    CoeffRing,
    GammaElement,
    GrassPoint,
    LaurentElement,
    MayaDiagram,
    factorize,
)
from grasstau import cli, serialize
from grasstau import tau as tau_module
from grasstau.cli import build_parser, main
from grasstau.serialize import (
    decode_gamma,
    decode_laurent,
    decode_maya,
    decode_point,
    decode_ring,
    decode_ring_element,
    decode_schur_coords,
    encode_gamma,
    encode_laurent,
    encode_point,
    encode_ring,
    encode_ring_element,
    parse_field_spec,
)
from grasstau.verify import SuiteReport

RING = CoeffRing(QQ, 2, 2)
SUBCOMMANDS = [
    "factor", "exp", "witt-add", "abel", "index", "plucker", "transition",
    "act", "tau", "baker", "schur", "bosonize", "pair", "verify",
]


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


def test_field_spec_round_trip():
    assert parse_field_spec("q") == QQ
    assert parse_field_spec("fp:5") == GF(5)
    assert parse_field_spec(" Q ") == QQ  # whitespace and case are forgiven
    for bad in ["fp:6", "fp:x", "r", 5]:
        with pytest.raises(ValueError):
            parse_field_spec(bad)


def test_ring_round_trip():
    for ring in [RING, CoeffRing(GF(7), 1, 3), CoeffRing(QQ, 3, 3, weights=(1, 2, 3))]:
        assert decode_ring(encode_ring(ring)) == ring
    assert "weights" not in encode_ring(RING)


def test_ring_element_round_trip():
    rng = random.Random(5)
    monos = list(RING.monomials())
    for _ in range(20):
        p = RING.element({m: rng.randint(-4, 4) for m in monos})
        assert decode_ring_element(RING, encode_ring_element(p)) == p


def test_duplicate_monomials_add_up():
    obj = [
        {"exponents": [1, 0], "coeff": "2"},
        {"exponents": [1, 0], "coeff": "3"},
    ]
    assert decode_ring_element(RING, obj) == RING.gen(0) * 5
    # and so do repeated partitions, each sum a residue in [0, p)
    coords = [{"partition": [1], "coeff": "3"}, {"partition": [], "coeff": "4"}, {"partition": [1], "coeff": "6"}]
    assert decode_schur_coords(GF(7), coords) == {(1,): 2, (): 4}


def test_laurent_round_trip_keeps_the_window():
    f = LaurentElement(RING, {-2: RING.gen(0), 0: RING.one(), 1: RING.const(3)}, trunc=4)
    assert decode_laurent(RING, encode_laurent(f)) == f
    g = LaurentElement.one(RING)
    assert decode_laurent(RING, encode_laurent(g)) == g


def test_gamma_round_trip():
    f = LaurentElement(RING, {-1: RING.gen(0), 0: RING.const(2), 1: RING.one()})
    g = factorize(f)
    assert decode_gamma(RING, encode_gamma(g)) == g


def test_point_round_trip():
    pt = GrassPoint(
        RING,
        2,
        [
            LaurentElement(RING, {-2: RING.one(), 0: RING.one()}),
            LaurentElement(RING, {-1: RING.one(), 1: RING.const(3)}),
        ],
    )
    back = decode_point(RING, encode_point(pt))
    assert back.tail_depth == pt.tail_depth
    assert all(a == b for a, b in zip(back.columns, pt.columns))


def test_maya_round_trip_and_partition_form():
    assert decode_maya({"tail_start": -2, "members": [0, 3]}) == MayaDiagram(-2, [0, 3])
    assert decode_maya({"partition": [2, 1]}) == MayaDiagram.from_partition((2, 1))
    assert decode_maya({"partition": [1], "charge": -1}) == MayaDiagram.from_partition(
        (1,), charge=-1
    )


@pytest.mark.parametrize(
    "obj",
    [
        {"partition": [1, 2]},
        {"partition": "nope"},
        {"tail_start": "x", "members": []},
        {"tail_start": 0, "members": [-3]},
        [],
    ],
)
def test_malformed_maya_is_a_value_error(obj):
    with pytest.raises(ValueError):
        decode_maya(obj)


@pytest.mark.parametrize(
    "obj",
    [
        "nope",
        {"terms": [{"exp": "a", "coeff": []}]},
        {"terms": [{"exp": 0, "coeff": [{"exponents": [0], "coeff": "1"}]}]},
        {"terms": [], "trunc_order": "x"},
    ],
)
def test_malformed_laurent_is_a_value_error(obj):
    with pytest.raises(ValueError):
        decode_laurent(RING, obj)


def test_malformed_ring_is_a_value_error():
    with pytest.raises(ValueError):
        decode_ring({"field": "q", "num_vars": 1})
    with pytest.raises(ValueError):
        decode_ring({"field": "zz", "num_vars": 1, "degree_bound": 2})


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

FACTOR_PAYLOAD = {
    "ring": {"field": "q", "num_vars": 1, "degree_bound": 2},
    "series": {
        "terms": [
            {"exp": -1, "coeff": [{"exponents": [1], "coeff": "2"}]},
            {
                "exp": 0,
                "coeff": [
                    {"exponents": [0], "coeff": "2"},
                    {"exponents": [1], "coeff": "2"},
                ],
            },
            {"exp": 1, "coeff": [{"exponents": [0], "coeff": "2"}]},
        ],
        "trunc_order": None,
    },
}


def run_cli(capsys, argv, payload=None, tmp_path=None):
    args = list(argv)
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        args += ["--in", str(path)]
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_factor_frozen(capsys, tmp_path):
    code, out = run_cli(capsys, ["factor"], FACTOR_PAYLOAD, tmp_path)
    assert code == 0
    assert out["status"] == "ok"
    got = out["result"]
    assert got["zpower"] == 0
    assert got["unit"] == [{"coeff": "2", "exponents": [0]}]
    assert got["gminus"]["terms"] == [
        {"coeff": [{"coeff": "1", "exponents": [1]}], "exp": -1},
        {"coeff": [{"coeff": "1", "exponents": [0]}], "exp": 0},
    ]
    assert got["gplus"]["terms"] == [
        {"coeff": [{"coeff": "1", "exponents": [0]}], "exp": 0},
        {"coeff": [{"coeff": "1", "exponents": [0]}], "exp": 1},
    ]


def test_cli_output_is_deterministic(capsys, tmp_path):
    _, first = run_cli(capsys, ["factor"], FACTOR_PAYLOAD, tmp_path)
    _, second = run_cli(capsys, ["factor"], FACTOR_PAYLOAD, tmp_path)
    assert first == second


def test_cli_schur_frozen(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["schur", "--deg", "3"], {"partition": [2, 1]}, tmp_path
    )
    assert code == 0
    # x1 x2 - x3 in the weighted coordinates, terms sorted by monomial
    assert out["result"]["polynomial"] == [
        {"coeff": "-1", "exponents": [0, 0, 1]},
        {"coeff": "1", "exponents": [1, 1, 0]},
    ]
    assert "weights:1..deg" in out["convention_flags"]


def test_cli_bosonize_adds_the_coefficients_of_a_repeated_partition(capsys, tmp_path):
    # as repeated monomials and exponents do: 3 + 6 = 2 in F_7, so the
    # payload is 1 + 2 F_(2,1) = 1 + 2 x1 x2 - 2 x3
    ring = {"field": "fp:7", "num_vars": 3, "degree_bound": 3, "weights": [1, 2, 3]}
    coords = [
        {"partition": [2, 1], "coeff": "3"},
        {"partition": [], "coeff": "1"},
        {"partition": [2, 1], "coeff": "6"},
    ]
    code, out = run_cli(capsys, ["bosonize"], {"ring": ring, "coords": coords}, tmp_path)
    assert code == 0
    assert out["result"]["polynomial"] == [
        {"coeff": "1", "exponents": [0, 0, 0]},
        {"coeff": "5", "exponents": [0, 0, 1]},
        {"coeff": "2", "exponents": [1, 1, 0]},
    ]


TAU_PAYLOAD = {
    "ring": {"field": "q", "num_vars": 1, "degree_bound": 1},
    "point": {
        "tail_depth": 1,
        "columns": [
            {
                "terms": [
                    {"exp": -1, "coeff": [{"exponents": [0], "coeff": "1"}]},
                    {"exp": 0, "coeff": [{"exponents": [0], "coeff": "3/7"}]},
                ]
            }
        ],
    },
}


def test_cli_tau_both_routes(capsys, tmp_path):
    code, out = run_cli(capsys, ["tau", "--deg", "2"], TAU_PAYLOAD, tmp_path)
    assert code == 0
    # default --method both cross-checks the two routes before answering
    assert "method:both" in out["convention_flags"]
    assert out["result"]["tau"] == [
        {"coeff": "1", "exponents": [0, 0]},
        {"coeff": "3/7", "exponents": [1, 0]},
    ]


def test_cli_tau_routes_check_their_input_alike(capsys, tmp_path):
    # the column z^-1 + 3 + x1 z^5: no degree-2 minor reads x1, yet no
    # route accepts it
    column = _series({-1: [(0, "1")], 0: [(0, "3")], 5: [(1, "1")]})
    payload = dict(TAU_PAYLOAD, point={"tail_depth": 1, "columns": [column]})
    for method in ("direct", "schur", "both"):
        code, out = run_cli(capsys, ["tau", "--deg", "2", "--method", method], payload, tmp_path)
        assert code == 3 and out["kind"] == "precondition"
        assert out["error"] == "tau needs a point with scalar coefficients"


def test_cli_act_reads_promote_whatever_the_upper_wing(capsys, tmp_path):
    # ACT_PAYLOAD's upper wing is 1, so no tail slot is promoted; the
    # argument is still read, as it is for a nontrivial upper wing
    code, out = run_cli(capsys, ["act", "--promote", "-1"], ACT_PAYLOAD, tmp_path)
    assert code == 3 and out["kind"] == "precondition"
    assert out["error"] == "promote must be >= 0"


def test_cli_exit_codes(capsys, tmp_path):
    # malformed JSON -> 2
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["factor", "--in", str(path)]) == 2
    capsys.readouterr()

    # missing key -> 2
    code, out = run_cli(capsys, ["factor"], {"ring": FACTOR_PAYLOAD["ring"]}, tmp_path)
    assert code == 2 and out["kind"] == "malformed"

    # non-prime field -> 2
    bad_field = {
        "ring": {"field": "fp:6", "num_vars": 1, "degree_bound": 2},
        "series": {"terms": []},
    }
    code, out = run_cli(capsys, ["factor"], bad_field, tmp_path)
    assert code == 2 and out["kind"] == "malformed"

    # no unit coefficient -> precondition failure, 3
    nilpotent = {
        "ring": {"field": "q", "num_vars": 1, "degree_bound": 2},
        "series": {"terms": [{"exp": 0, "coeff": [{"exponents": [1], "coeff": "1"}]}]},
    }
    code, out = run_cli(capsys, ["factor"], nilpotent, tmp_path)
    assert code == 3 and out["kind"] == "precondition"

    # window too small -> 4
    windowed = {
        "ring": {"field": "q", "num_vars": 1, "degree_bound": 2},
        "series": {
            "terms": [
                {"exp": -2, "coeff": [{"exponents": [1], "coeff": "1"}]},
                {"exp": 0, "coeff": [{"exponents": [0], "coeff": "1"}]},
            ],
            "trunc_order": 4,
        },
    }
    code, out = run_cli(capsys, ["factor"], windowed, tmp_path)
    assert code == 4 and out["kind"] == "precision"


def _series(terms: dict, trunc=None) -> dict:
    """A one-variable series payload from {exp: [(x-power, coeff), ...]}."""
    return {
        "terms": [
            {"exp": e, "coeff": [{"exponents": [k], "coeff": c} for k, c in mono]}
            for e, mono in terms.items()
        ],
        "trunc_order": trunc,
    }


def test_cli_pair_windowed_at_the_floor(capsys, tmp_path):
    # fringe widths 1 and 0 at d = 2: a windowed argument needs trunc > 2
    known = {-1: [(1, "1")], 0: [(0, "1")], 1: [(1, "1")], 2: [(0, "1")]}
    g = _series({0: [(0, "1")], 1: [(1, "1")]})
    exact = {"ring": FACTOR_PAYLOAD["ring"], "f": _series({**known, 3: [(0, "5")]}), "g": g}
    code, want = run_cli(capsys, ["pair"], exact, tmp_path)
    assert code == 0 and want["precision_used"] is None
    windowed = dict(exact, f=_series(known, trunc=3))
    code, out = run_cli(capsys, ["pair"], windowed, tmp_path)
    assert code == 0 and out["result"] == want["result"]
    assert out["precision_used"] is None
    del known[2]
    at_floor = dict(exact, f=_series(known, trunc=2))
    code, out = run_cli(capsys, ["pair"], at_floor, tmp_path)
    assert code == 4 and out["kind"] == "precision"


def _replaced(payload: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


POINT_PAYLOAD = dict(TAU_PAYLOAD, diagram={"tail_start": -1, "members": [0]})
ACT_PAYLOAD = dict(
    TAU_PAYLOAD,
    gamma={
        "gminus": _series({0: [(0, "1")]}),
        "unit": [{"exponents": [0], "coeff": "2"}],
        "gplus": _series({0: [(0, "1")]}),
        "zpower": 0,
    },
)


@pytest.mark.parametrize(
    "sub, payload, path, value",
    [
        pytest.param("factor", FACTOR_PAYLOAD, ("ring", "num_vars"), 1.9, id="num_vars-float"),
        pytest.param("factor", FACTOR_PAYLOAD, ("ring", "num_vars"), "1", id="num_vars-str"),
        pytest.param("factor", FACTOR_PAYLOAD, ("ring", "num_vars"), True, id="num_vars-bool"),
        pytest.param("factor", FACTOR_PAYLOAD, ("ring", "degree_bound"), "2", id="degree_bound-str"),
        pytest.param("factor", FACTOR_PAYLOAD, ("ring", "degree_bound"), True, id="degree_bound-bool"),
        pytest.param("factor", FACTOR_PAYLOAD, ("ring", "weights"), [True], id="weights-bool"),
        pytest.param("factor", FACTOR_PAYLOAD, ("series", "terms", 1, "exp"), False, id="exp-bool"),
        pytest.param(
            "factor",
            FACTOR_PAYLOAD,
            ("series", "terms", 0, "coeff", 0, "exponents"),
            [True],
            id="exponents-bool",
        ),
        pytest.param("factor", FACTOR_PAYLOAD, ("series", "trunc_order"), False, id="trunc_order-bool"),
        pytest.param("index", TAU_PAYLOAD, ("point", "tail_depth"), True, id="tail_depth-bool"),
        pytest.param("plucker", POINT_PAYLOAD, ("diagram", "members"), [1.7, "3"], id="members-float-str"),
        pytest.param("plucker", POINT_PAYLOAD, ("diagram",), {"partition": [True]}, id="partition-bool"),
        pytest.param("act", ACT_PAYLOAD, ("gamma", "zpower"), True, id="zpower-bool"),
    ],
)
def test_cli_non_integer_fields_are_malformed(capsys, tmp_path, sub, payload, path, value):
    # bool, float and str are refused wherever an integer belongs, never
    # truncated, parsed or read as 0 and 1
    code, out = run_cli(capsys, [sub], _replaced(payload, path, value), tmp_path)
    assert code == 2 and out["kind"] == "malformed"
    code, _ = run_cli(capsys, [sub], payload, tmp_path)
    assert code == 0


@pytest.mark.parametrize(
    "diagram",
    [
        {"tail_start": 10**30},
        {"tail_start": 10**30, "members": [10**30 + 2]},
        {"tail_start": -(10**30)},
        {"partition": [1], "charge": 10**30},
        {"partition": [], "charge": -(10**30)},
    ],
    ids=["tail-start", "tail-start-and-member", "tail-start-negative", "charge", "charge-negative"],
)
def test_cli_a_diagram_of_any_size_off_the_columns_is_a_zero_minor(capsys, tmp_path, diagram):
    # the chart is decided from the tail start and the charge, before any
    # row is listed: these diagrams select far more or fewer rows than the
    # point has columns, or miss part of its tail
    code, out = run_cli(capsys, ["plucker"], dict(POINT_PAYLOAD, diagram=diagram), tmp_path)
    assert (code, out["result"]) == (0, [])
    payload = dict(TAU_PAYLOAD, chart_a=diagram, chart_b=POINT_PAYLOAD["diagram"])
    code, out = run_cli(capsys, ["transition"], payload, tmp_path)
    assert (code, out["result"]) == (0, [])


def test_cli_negative_exponent_is_malformed(capsys, tmp_path):
    # no monomial has a negative exponent: the payload describes nothing
    with pytest.raises(ValueError):
        decode_ring_element(RING, [{"exponents": [-1, 0], "coeff": "1"}])
    path = ("series", "terms", 0, "coeff", 0, "exponents")
    code, out = run_cli(capsys, ["factor"], _replaced(FACTOR_PAYLOAD, path, [-1]), tmp_path)
    assert code == 2 and out["kind"] == "malformed"


def test_cli_broken_invariant_is_internal(capsys, tmp_path, monkeypatch):
    # the two tau routes disagreeing is a library defect, not a bad payload
    direct = tau_module.tau_direct
    monkeypatch.setattr(tau_module, "tau_schur", lambda pt, bound: direct(pt, bound) + 1)
    code, out = run_cli(capsys, ["tau", "--deg", "2"], TAU_PAYLOAD, tmp_path)
    assert code == 5 and out["kind"] == "internal"
    assert "disagree" in out["error"]


def test_cli_verify_single_suite(capsys, tmp_path):
    code, out = run_cli(capsys, ["verify", "--suite", "witt", "--scale", "small"])
    assert code == 0
    assert out["result"]["all_passed"] is True
    suite = out["result"]["suites"][0]
    assert suite["name"] == "witt"
    assert suite["passed"] is True
    assert all(check["ok"] for check in suite["checks"])


def test_cli_failing_suite_exits_1(capsys, monkeypatch):
    """A suite that ran and failed is reported, not refused: exit 1, with
    status ok and all_passed false."""

    def failing(name, seed=0, scale="small"):
        report = SuiteReport(name, seed, scale)
        report.checks.append(("planted", False, "a failing check"))
        return report

    monkeypatch.setattr(grasstau.cli, "run_suite", failing)
    code, out = run_cli(capsys, ["verify", "--suite", "witt"])
    assert code == 1
    assert out["status"] == "ok"
    assert out["result"]["all_passed"] is False


def test_cli_stdin_payload(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FACTOR_PAYLOAD)))
    assert main(["factor"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process, so what the import pulls in is
    # paid per call; -S keeps site's own imports out of the count.  A call
    # with a canonical argument list then imports neither argparse nor the
    # gettext its messages go through.
    env = dict(os.environ, PYTHONPATH=str(Path(grasstau.__file__).parent.parent))
    probe = (
        "import grasstau.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
        "code = grasstau.cli.main(['schur', '--deg', '2']); "
        "print(code, sorted(m for m in ('argparse', 'gettext') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], input='{"partition": [1]}', env=env, capture_output=True,
        text=True, check=True,
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")



# every subcommand with -h, and with an error: a missing required flag, a bad
# choice, a bad int, an unknown option, an extra word or a flag without its
# value; then argument lists whose first word names no subcommand
PARSER_BATTERY = [
    *([sub, "-h"] for sub in SUBCOMMANDS),
    *([sub, "--bogus"] for sub in SUBCOMMANDS),
    *([sub, "extra"] for sub in SUBCOMMANDS),
    *([sub, "--in"] for sub in SUBCOMMANDS),
    ["tau"], ["baker", "--deg", "1"], ["schur", "--field", "q"],
    ["tau", "--deg", "1", "--method", "nope"], ["exp", "--sign", "2"], ["pair", "--mode", "x"],
    ["verify", "--suite", "nope"], ["verify", "--scale", "big"],
    ["tau", "--deg", "x"], ["exp", "--window", "1.5"], ["abel", "--depth", "-"], ["act", "--promote", "x"],
    ["baker", "--deg", "1", "--window", "w"], ["schur", "--deg", "two"], ["verify", "--seed", "s"],
    ["schur", "--deg", "2", "extra"], ["factor", "-h", "--in"],
    [], ["-h"], ["--help"], ["bogus"], ["fac"], ["-x"], ["--in", "x", "factor"],
]


def _exit_of(call, capsys):
    with pytest.raises(SystemExit) as info:
        call()
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_BATTERY, ids=" ".join)
def test_cli_parses_as_the_full_parser_does(capsys, argv):
    # main builds only the subparser its first word names; its exit code,
    # help and error text are the full parser's, usage line included
    assert _exit_of(lambda: main(argv), capsys) == _exit_of(lambda: build_parser().parse_args(argv), capsys)


# every subcommand with each of its flags, as canonical argument lists;
# ints argparse's int also reads ("+3", " 4", "1_000") are canonical too
CANONICAL_BATTERY = [
    ["factor"], ["factor", "--in", "p.json"], ["witt-add", "--in", "p.json"], ["index"], ["plucker"],
    ["transition", "--in", ""], ["bosonize", "--in", "p.json"],
    ["exp"], ["exp", "--sign", "1", "--window", "3"], ["exp", "--product-form"],
    ["exp", "--window", "0", "--product-form", "--in", "p.json"], ["exp", "--sign", "+1"],
    ["abel", "--depth", "3"], ["act", "--promote", "2"], ["act", "--promote", " 4"],
    ["tau", "--deg", "2"], ["tau", "--method", "direct", "--deg", "3"], ["tau", "--deg", "+3", "--method", "schur"],
    ["tau", "--in", "p.json", "--deg", "2", "--method", "both"],
    ["baker", "--window", "2", "--deg", "1"], ["baker", "--deg", "2", "--window", "2", "--in", "p.json"],
    ["schur", "--deg", "2"], ["schur", "--field", "fp:5", "--deg", "2"], ["schur", "--deg", "2", "--field", ""],
    ["pair", "--mode", "residue"], ["pair", "--mode", "commutator", "--in", "p.json"],
    ["verify"], ["verify", "--suite", "witt", "--seed", "7", "--scale", "full"], ["verify", "--seed", "1_000"],
]

# what the reader leaves to argparse: help, "--flag=value", an abbreviation,
# a negative value, a repeated flag, "--", and every error
DECLINED_BATTERY = [
    ["schur", "-h"], ["schur", "--help"], ["schur", "--deg=2"], ["schur", "--de", "2"], ["exp", "--sign", "-1"],
    ["verify", "--seed", "-1"], ["abel", "--depth", "-3"], ["schur", "--deg", "2", "--deg", "3"],
    ["exp", "--product-form", "--product-form"], ["schur", "--", "--deg", "2"], ["schur", "--deg", "2", "--"],
    ["factor", "--in", "-"], ["tau"], ["tau", "--method", "direct"], ["tau", "--deg", "x"],
    ["tau", "--deg", "2", "--method", "nope"], ["exp", "--sign", "2"], ["schur", "--deg", "2", "extra"],
    ["exp", "--product-form", "x"], ["factor", "--in"], ["verify", "--in", "p.json"], ["verify", "--suite", "all "],
    [], ["bogus"], ["-h"], ["--in", "p.json", "factor"],
]


@pytest.mark.parametrize("argv", CANONICAL_BATTERY, ids=" ".join)
def test_cli_reads_a_canonical_argument_list_as_argparse_does(argv):
    args = cli._canonical_args(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", DECLINED_BATTERY, ids=" ".join)
def test_cli_leaves_every_other_argument_list_to_argparse(argv):
    assert cli._canonical_args(argv) is None


def _good_values(keywords: dict) -> list:
    """Values a flag takes, by its add_argument keywords: none for a
    store_true flag, else every choice, or ints of every form argparse's
    int reads, or strings."""
    if keywords.get("action") == "store_true":
        return [None]
    if "choices" in keywords:
        return [str(c) for c in keywords["choices"]]
    if keywords.get("type") is int:
        return ["0", "2", "17", "+3", " 4", "1_0"]
    return ["q", "fp:5", "p.json", ""]


@st.composite
def _table_argv(draw):
    """A subcommand, then some of its flags from the table, each mostly
    as itself with a value it takes; one in five is in a form only
    argparse reads, and one in five values is refused, missing or in
    the next word's place."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    argv = [name]
    specs = cli._arguments(name)
    for flag, keywords in draw(st.lists(st.sampled_from(specs), unique_by=lambda spec: spec[0], max_size=len(specs))):
        odd = draw(st.integers(0, 4)) == 0
        argv.append(draw(st.sampled_from([flag + "=2", flag[:-1], flag, "-h", "--", "extra"])) if odd else flag)
        odd = draw(st.integers(0, 4)) == 0
        value = draw(st.sampled_from(["-1", "-", "--", "1.5", "x", "", None] if odd else _good_values(keywords)))
        argv += [] if value is None else [value]
    return argv


@settings(deadline=None, max_examples=300)
@given(_table_argv())
def test_cli_reader_agrees_with_argparse_on_argument_lists_from_the_table(argv):
    args = cli._canonical_args(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_cli_builds_only_the_subparser_it_is_given(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    # a canonical argument list is read off the subcommand table: no parser
    monkeypatch.setattr("sys.stdin", io.StringIO('{"partition": [1]}'))
    assert main(["schur", "--deg", "2"]) == 0
    canonical = capsys.readouterr().out
    assert built == []
    # with no argument list, as the console script calls it
    monkeypatch.setattr("sys.argv", ["grasstau", "schur", "--deg", "2"])
    monkeypatch.setattr("sys.stdin", io.StringIO('{"partition": [1]}'))
    assert main() == 0
    assert capsys.readouterr().out == canonical
    assert built == []
    # argparse reads "--flag=value" and an abbreviation with schur's subparser alone
    for argv in (["schur", "--deg=2"], ["schur", "--de", "2"]):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"partition": [1]}'))
        assert main(argv) == 0
        assert capsys.readouterr().out == canonical
        assert built == ["schur"]
        built.clear()
    assert _exit_of(lambda: main(["bogus"]), capsys)[0] == 2
    assert built == SUBCOMMANDS


def test_cli_module_reads_its_arguments_from_the_command_line(capsys, monkeypatch):
    # the console script and python -m call main() with no argument list
    env = dict(os.environ, PYTHONPATH=str(Path(grasstau.__file__).parent.parent))
    payload = json.dumps({"partition": [2, 1]})
    run = subprocess.run(
        [sys.executable, "-m", "grasstau.cli", "schur", "--deg", "3"],
        input=payload, env=env, capture_output=True, text=True,
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["schur", "--deg", "3"]) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")


def test_field_spec_refuses_characteristics_below_two(capsys, tmp_path):
    # BaseField(0) is the rationals: "fp:0" must not select them
    for bad in ["fp:0", "fp:1", "fp:-5"]:
        with pytest.raises(ValueError):
            parse_field_spec(bad)
    code, out = run_cli(capsys, ["schur", "--deg", "2", "--field", "fp:0"], {"partition": [1]}, tmp_path)
    assert code == 2 and out["kind"] == "malformed"


def test_duplicate_laurent_exponents_add_up(capsys, tmp_path):
    obj = {
        "terms": [
            {"exp": 0, "coeff": [{"exponents": [0, 0], "coeff": "2"}]},
            {"exp": 0, "coeff": [{"exponents": [0, 0], "coeff": "3"}]},
        ]
    }
    assert decode_laurent(RING, obj) == LaurentElement.const(RING, 5)
    series = _series({0: [(0, "2")]})
    series["terms"].append({"exp": 0, "coeff": [{"exponents": [0], "coeff": "3"}]})
    payload = dict(FACTOR_PAYLOAD, series=series)
    code, out = run_cli(capsys, ["factor"], payload, tmp_path)
    assert code == 0 and out["result"]["unit"] == [{"coeff": "5", "exponents": [0]}]


def test_cli_abel_negative_depth_is_a_precondition(capsys, tmp_path):
    payload = {"ring": FACTOR_PAYLOAD["ring"], "points": [[{"exponents": [0], "coeff": "1"}]]}
    code, out = run_cli(capsys, ["abel", "--depth", "-2"], payload, tmp_path)
    assert code == 3 and out["kind"] == "precondition"


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '"partition"', "5", "[]", "null"],
    ids=["deep-nesting", "string", "number", "list", "null"],
)
def test_cli_non_object_payload_is_malformed(capsys, monkeypatch, text):
    # json refuses deep nesting with RecursionError; it must not escape main
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["schur", "--deg", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["kind"] == "malformed"


def test_cli_unexpected_exception_is_internal(capsys, tmp_path, monkeypatch):
    # an exception outside the library's taxonomy is a defect, never the caller's fault
    import grasstau.cli as cli_module

    def broken(ring, lam):
        raise KeyError("boom")

    monkeypatch.setattr(cli_module, "schur_polynomial", broken)
    code, out = run_cli(capsys, ["schur", "--deg", "2"], {"partition": [1]}, tmp_path)
    assert code == 5 and out["kind"] == "internal"
    assert "KeyError" in out["error"]


def test_cli_slow_rational_literal_is_malformed_at_once(capsys, tmp_path):
    # Fraction("1e2000000") would expand a two-million-digit integer first
    payload = dict(FACTOR_PAYLOAD, series=_series({0: [(0, "1e2000000")]}))
    start = time.perf_counter()
    code, out = run_cli(capsys, ["factor"], payload, tmp_path)
    assert time.perf_counter() - start < 0.05
    assert code == 2 and out["kind"] == "malformed"


@pytest.mark.parametrize("literal", ["1_000", "\uff11\uff12"])
def test_cli_non_ascii_residue_literal_is_malformed(capsys, tmp_path, literal):
    ring = dict(FACTOR_PAYLOAD["ring"], field="fp:5")
    payload = {"ring": ring, "series": _series({0: [(0, literal)]})}
    code, out = run_cli(capsys, ["factor"], payload, tmp_path)
    assert code == 2 and out["kind"] == "malformed"


def test_cli_characteristic_from_two_to_the_64_is_malformed(capsys, tmp_path):
    code, out = run_cli(capsys, ["schur", "--deg", "1", "--field", f"fp:{2**64 + 1}"], {"partition": [1]}, tmp_path)
    assert code == 2 and out["kind"] == "malformed"


PRODUCT_FORM_PAYLOAD = {"ring": FACTOR_PAYLOAD["ring"], "coeffs": [[{"exponents": [1], "coeff": "1"}],
                                                                  [{"exponents": [0], "coeff": "2"}]]}
RESIDUE_PAYLOAD = {
    "ring": FACTOR_PAYLOAD["ring"],
    "f": _series({-1: [(1, "1")], 0: [(0, "1")], 1: [(1, "1")]}),
    "g": _series({0: [(0, "1")], 1: [(1, "1")]}),
}
# t = 1/2 + x is not nilpotent, so sum t^k z^-k is clipped below z^-3
ABEL_CLIPPED_PAYLOAD = {"ring": FACTOR_PAYLOAD["ring"], "points": [[{"exponents": [0], "coeff": "1/2"},
                                                                     {"exponents": [1], "coeff": "1"}]]}


def _terms(rows):
    """Series terms from [(exp, [(x-power, coeff), ...]), ...]."""
    return [{"coeff": [{"coeff": c, "exponents": [k]} for k, c in mono], "exp": e} for e, mono in rows]


def test_cli_exp_product_form_frozen(capsys, tmp_path):
    # (1 - x z^-1)(1 - 2 z^-2)
    code, out = run_cli(capsys, ["exp", "--product-form"], PRODUCT_FORM_PAYLOAD, tmp_path)
    assert code == 0 and out["convention_flags"] == ["product:one-minus-az"]
    assert out["result"] == {
        "min_exp": -3,
        "terms": _terms([(-3, [(1, "2")]), (-2, [(0, "-2")]), (-1, [(1, "-1")]), (0, [(0, "1")])]),
        "trunc_order": None,
    }


def test_cli_pair_residue_frozen(capsys, tmp_path):
    # res f dg = res (x z^-1 + 1 + x z) x dz = x^2
    code, out = run_cli(capsys, ["pair", "--mode", "residue"], RESIDUE_PAYLOAD, tmp_path)
    assert code == 0 and out["convention_flags"] == ["residue:res-f-dg"]
    assert out["result"] == [{"coeff": "1", "exponents": [2]}]


def test_cli_abel_clips_a_non_nilpotent_point_frozen(capsys, tmp_path):
    code, out = run_cli(capsys, ["abel", "--depth", "3"], ABEL_CLIPPED_PAYLOAD, tmp_path)
    assert code == 0 and out["convention_flags"] == ["clipped-below-depth"]
    assert out["precision_used"] == -3
    assert out["result"] == {
        "kind": "clipped",
        "series": {
            "min_exp": -3,
            "terms": _terms([
                (-3, [(0, "1/8"), (1, "3/4"), (2, "3/2")]),
                (-2, [(0, "1/4"), (1, "1"), (2, "1")]),
                (-1, [(0, "1/2"), (1, "1")]),
                (0, [(0, "1")]),
            ]),
            "trunc_order": None,
        },
    }


# ---------------------------------------------------------------------------
# mutation fuzzer: one node of a valid payload replaced by a wrong JSON value
# ---------------------------------------------------------------------------

_X = [{"exponents": [1], "coeff": "1"}]
_ONE = [{"exponents": [0], "coeff": "1"}]
_SCHUR_RING = {"field": "q", "num_vars": 3, "degree_bound": 3, "weights": [1, 2, 3]}

# one valid payload per data subcommand, and both bosonize directions
FUZZ_CASES = [
    (["factor"], FACTOR_PAYLOAD),
    (["exp"], {"ring": FACTOR_PAYLOAD["ring"], "coeffs": [_X, []]}),
    (["witt-add"], {"ring": FACTOR_PAYLOAD["ring"], "a": [_X], "b": [_ONE, _X]}),
    (["abel"], {"ring": FACTOR_PAYLOAD["ring"], "points": [_X]}),
    (["index"], TAU_PAYLOAD),
    (["plucker"], POINT_PAYLOAD),
    (["transition"], dict(TAU_PAYLOAD, chart_a={"partition": [1]}, chart_b={"partition": []})),
    (["act"], ACT_PAYLOAD),
    (["tau", "--deg", "2"], TAU_PAYLOAD),
    (["baker", "--deg", "1", "--window", "1"], TAU_PAYLOAD),
    (["schur", "--deg", "3"], {"partition": [2, 1]}),
    (
        ["bosonize"],
        {
            "ring": _SCHUR_RING,
            "polynomial": [
                {"exponents": [0, 0, 1], "coeff": "-1"},
                {"exponents": [1, 1, 0], "coeff": "1"},
            ],
        },
    ),
    (
        ["bosonize"],
        {
            "ring": _SCHUR_RING,
            "coords": [{"partition": [2, 1], "coeff": "3/2"}, {"partition": [], "coeff": "1"}],
        },
    ),
    (
        ["pair"],
        {
            "ring": FACTOR_PAYLOAD["ring"],
            "f": _series({-1: [(1, "1")], 0: [(0, "1")], 1: [(1, "1")]}),
            "g": _series({0: [(0, "1")], 1: [(1, "1")]}),
        },
    ),
    (["exp", "--product-form"], PRODUCT_FORM_PAYLOAD),
    (["pair", "--mode", "residue"], RESIDUE_PAYLOAD),
    (["abel", "--depth", "3"], ABEL_CLIPPED_PAYLOAD),
]


def _nodes(node, path=()):
    """(path, value) of every node of a JSON document, the root included."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def test_cli_mutated_payloads_end_in_a_classified_error(capsys, monkeypatch):
    # every single-node mutation ends in a classified outcome; an unparsable
    # coefficient, and an object or a string where a list belongs, are
    # malformed.  Each node gets "x" and one of null and {} (always {} for
    # a list), which keeps the run near a second.
    rng = random.Random(10)
    for argv, payload in FUZZ_CASES:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert main(argv) == 0, argv
        capsys.readouterr()
        for path, old in _nodes(payload):
            for new in ("x", {} if isinstance(old, list) else rng.choice((None, {}))):
                text = json.dumps(_replaced(payload, path, new) if path else new)
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                code = main(argv)
                out = json.loads(capsys.readouterr().out)
                where = (argv[0], path, new)
                assert code in (0, 2, 3, 4), (where, out)
                assert out["status"] == ("ok" if code == 0 else "error"), where
                if path and path[-1] == "coeff" and isinstance(old, str) and new == "x":
                    assert code == 2, (where, out)
                if isinstance(old, list) and new in ("x", {}):
                    assert code == 2, (where, out)


# (payload key, its name in the refusal, serialize's cap, the constructor
# it keeps from running, whether the cap bounds its absolute value, and how
# many FUZZ_CASES payloads have the key)
SHAPE_CAPS = [
    ("num_vars", "ring num_vars", "MAX_NUM_VARS", "CoeffRing", False, 16),
    ("degree_bound", "ring degree_bound", "MAX_DEGREE_BOUND", "CoeffRing", False, 16),
    ("tail_depth", "point tail_depth", "MAX_TAIL_DEPTH", "GrassPoint", False, 6),
    ("exp", "laurent term |exp|", "MAX_EXPONENT", "LaurentElement", True, 9),
    ("trunc_order", "laurent element |trunc_order|", "MAX_EXPONENT", "LaurentElement", True, 4),
]


@pytest.mark.parametrize("past", [1, 2**70], ids=["cap+1", "2**70"])
@pytest.mark.parametrize("key, name, cap, constructor, signed, count", SHAPE_CAPS, ids=[row[0] for row in SHAPE_CAPS])
def test_cli_a_shape_past_its_cap_is_refused_before_anything_is_built(
    capsys, monkeypatch, key, name, cap, constructor, signed, count, past
):
    # num_vars 2**70 once ended in an OverflowError (exit 5), a degree
    # bound or tail depth of 2**70 ran plucker, pair, abel or index without
    # end, and so did factor on 1 + x z^(-10**8) and pair on 1 + x z^(-50000)
    # with 1 + x z^50000.  Every node of the key in a payload is set past
    # the cap, so the first one read is refused before anything is built.
    limit = getattr(serialize, cap)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{constructor} was built")

    calls = 0
    for argv, payload in FUZZ_CASES:
        paths = [path for path, _ in _nodes(payload) if path and path[-1] == key]
        if not paths:
            continue
        for sign in (1, -1) if signed else (1,):
            changed = payload
            for path in paths:
                changed = _replaced(changed, path, sign * (limit + past))
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(changed)))
            with monkeypatch.context() as patched:
                patched.setattr(serialize, constructor, refuse)
                code = main(argv)
            out = json.loads(capsys.readouterr().out)
            message = f"{name} must be at most {limit} in a payload"
            assert (code, out["kind"], out["error"]) == (3, "precondition", message), (argv, sign)
        calls += 1
    assert calls == count


def test_payload_shapes_at_their_caps_are_read():
    obj = {"field": "q", "num_vars": serialize.MAX_NUM_VARS, "degree_bound": serialize.MAX_DEGREE_BOUND}
    assert decode_ring(obj) == CoeffRing(QQ, serialize.MAX_NUM_VARS, serialize.MAX_DEGREE_BOUND)
    point = decode_point(RING, {"tail_depth": serialize.MAX_TAIL_DEPTH, "columns": []})
    assert point.tail_depth == serialize.MAX_TAIL_DEPTH
    cap = serialize.MAX_EXPONENT
    one = [{"exponents": [0, 0], "coeff": "1"}]
    for trunc in (None, cap, -cap):
        obj = {"terms": [{"exp": -cap, "coeff": one}, {"exp": cap, "coeff": one}], "trunc_order": trunc}
        assert decode_laurent(RING, obj) == LaurentElement(RING, {-cap: RING.one(), cap: RING.one()}, trunc)


# the six size-flag calls that ran into an 8-s timeout before the flags were
# capped: (argv up to the flag's value, the flag, payload)
FLAG_CASES = [
    (["schur", "--deg"], "deg", {"partition": [2]}),
    (["tau", "--deg"], "deg", TAU_PAYLOAD),
    (["baker", "--deg", "2", "--window"], "window", TAU_PAYLOAD),
    (["abel", "--depth"], "depth", {"ring": FACTOR_PAYLOAD["ring"], "points": [[{"exponents": [0], "coeff": "1/2"}]]}),
    (["exp", "--sign", "1", "--window"], "window", {"ring": FACTOR_PAYLOAD["ring"], "coeffs": [_X, []]}),
    (["act", "--promote"], "promote", _replaced(ACT_PAYLOAD, ("gamma", "gplus"), _series({0: [(0, "1")], 1: [(0, "1")]}))),
]


@pytest.mark.parametrize("past", [1, 10**8], ids=["cap+1", "10**8"])
@pytest.mark.parametrize("argv, flag, payload", FLAG_CASES, ids=[argv[0] for argv, _, _ in FLAG_CASES])
def test_cli_a_size_flag_past_its_cap_is_refused_before_any_library_call(capsys, monkeypatch, argv, flag, payload, past):
    cap = cli._FLAG_CAPS[flag]

    def refuse(*args, **kwargs):
        raise AssertionError("a library function was called")

    for name, obj in vars(cli).items():
        if inspect.isfunction(obj) and obj.__module__ != cli.__name__:
            monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(argv + [str(cap + past)])
    out = json.loads(capsys.readouterr().out)
    assert (code, out["kind"], out["error"]) == (3, "precondition", f"--{flag} must be at most {cap}")


@pytest.mark.parametrize("argv, flag, payload", FLAG_CASES, ids=[argv[0] for argv, _, _ in FLAG_CASES])
def test_cli_a_size_flag_at_its_cap_is_read(capsys, monkeypatch, argv, flag, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert main(argv + [str(cli._FLAG_CAPS[flag])]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
