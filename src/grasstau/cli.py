"""Command-line front end.

Every subcommand reads one JSON payload (stdin, or a file via ``--in``),
writes one JSON object to stdout with deterministic key order, and exits
with:

* 0 - success
* 1 - a verification suite reported failing checks
* 2 - malformed payload (bad JSON, nesting too deep, missing keys, a
  wrong JSON type anywhere, an unparsable coefficient)
* 3 - precondition failure (domain errors, non-invertible input)
* 4 - insufficient precision for the requested output
* 5 - an internal invariant failed, or any unexpected exception (a
  library defect, not a bad input)
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GrasstauError, InternalError, PrecisionError
from .gamma import GammaElement, abel_embed, exp_gamma, factorize, witt_add, witt_product
from .grassmann import act, chart_transition, index, plucker
from .schur import bosonize, coordinate_ring, schur_polynomial, to_schur_coords
from .serialize import (
    decode_gamma,
    decode_laurent,
    decode_maya,
    decode_partition,
    decode_point,
    decode_ring,
    decode_ring_element,
    decode_ring_elements,
    decode_schur_coords,
    encode_gamma,
    encode_laurent,
    encode_point,
    encode_ring,
    encode_ring_element,
    need,
    parse_field_spec,
)
from .tau import baker, tau_crosscheck, tau_direct, tau_schur
from .pairings import commutator_pairing, residue_pairing
from .verify import run_suite, suite_names


_TAU_ROUTES = {"direct": tau_direct, "schur": tau_schur, "both": tau_crosscheck}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasstau",
        description="Exact arithmetic on an infinite-dimensional Grassmannian: "
        "triangular factorization, tau polynomials, and determinant pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, run, payload: bool = True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        if payload:
            p.add_argument(
                "--in",
                dest="infile",
                metavar="FILE",
                help="read the JSON payload from FILE instead of stdin",
            )
        return p

    add("factor", "split a series into lower wing * unit * upper wing * z^k", _cmd_factor)

    p = add("exp", "exponential of a coefficient vector into one wing", _cmd_exp)
    p.add_argument("--sign", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--window", type=int, help="truncation order (required for sign +1)")
    p.add_argument(
        "--product-form",
        action="store_true",
        help="use the finite product prod(1 - a_i z^(sign i)) instead "
        "(works in any characteristic)",
    )

    add("witt-add", "add two coefficient vectors through their product series", _cmd_witt_add)

    p = add("abel", "embed one-variable points through t -> sum t^k z^-k", _cmd_abel)
    p.add_argument("--depth", type=int, help="clip depth for non-nilpotent points")

    add("index", "relative dimension of a point against the base point", _cmd_index)

    add("plucker", "one minor of a point, selected by a diagram", _cmd_plucker)

    add("transition", "ratio of two chart minors at the same point", _cmd_transition)

    p = add("act", "apply a factored group element to a point", _cmd_act)
    p.add_argument("--promote", type=int, help="how many tail slots become columns")

    p = add("tau", "tau polynomial of a point", _cmd_tau)
    p.add_argument("--deg", type=int, required=True, help="weighted degree bound")
    p.add_argument(
        "--method",
        choices=tuple(_TAU_ROUTES),
        default="both",
        help="'both' computes the two routes and insists they agree",
    )

    p = add("baker", "wave series of a point", _cmd_baker)
    p.add_argument("--deg", type=int, required=True, help="weighted degree bound")
    p.add_argument("--window", type=int, required=True, help="z-window upper end")

    p = add("schur", "basis polynomial of a partition in the coordinate ring", _cmd_schur)
    p.add_argument("--field", default="q", help="'q' or 'fp:<p>'")
    p.add_argument("--deg", type=int, required=True, help="weighted degree bound")

    add("bosonize", "convert between polynomials and basis coordinates", _cmd_bosonize)

    p = add("pair", "pairing of two series with unit constant coefficient", _cmd_pair)
    p.add_argument("--mode", choices=("commutator", "residue"), default="commutator")

    p = add("verify", "run randomized self-check suites", _cmd_verify, payload=False)
    p.add_argument("--suite", default="all", choices=["all"] + suite_names())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("small", "full"), default="small")

    return parser


# ----------------------------------------------------------------------
# handlers: payload -> (result, precision_used, convention_flags)
# ----------------------------------------------------------------------


def _cmd_factor(args, payload):
    ring = decode_ring(need(payload, "ring"))
    f = decode_laurent(ring, need(payload, "series"))
    g = factorize(f)
    return encode_gamma(g), g.gplus.trunc, ["wings-constant-one", "zpower-at-unit-slot"]


def _cmd_exp(args, payload):
    ring = decode_ring(need(payload, "ring"))
    vec = decode_ring_elements(ring, need(payload, "coeffs"))
    if args.product_form:
        out = witt_product(ring, vec, args.sign)
        return encode_laurent(out), out.trunc, ["product:one-minus-az"]
    g = exp_gamma(ring, vec, args.sign, args.window)
    prec = g.gplus.trunc if args.sign > 0 else g.gminus.trunc
    return encode_gamma(g), prec, []


def _cmd_witt_add(args, payload):
    ring = decode_ring(need(payload, "ring"))
    a = decode_ring_elements(ring, need(payload, "a"))
    b = decode_ring_elements(ring, need(payload, "b"))
    out = witt_add(ring, a, b)
    return {"sum": [encode_ring_element(c) for c in out]}, None, ["product:one-minus-az"]


def _cmd_abel(args, payload):
    ring = decode_ring(need(payload, "ring"))
    pts = decode_ring_elements(ring, need(payload, "points"))
    out = abel_embed(ring, pts, depth=args.depth)
    if isinstance(out, GammaElement):
        return {"kind": "wing", "element": encode_gamma(out)}, None, []
    return {"kind": "clipped", "series": encode_laurent(out)}, out.min_exp, [
        "clipped-below-depth"
    ]


def _cmd_index(args, payload):
    ring = decode_ring(need(payload, "ring"))
    pt = decode_point(ring, need(payload, "point"))
    return {"index": index(pt)}, pt.window_high, []


def _cmd_plucker(args, payload):
    ring = decode_ring(need(payload, "ring"))
    pt = decode_point(ring, need(payload, "point"))
    maya = decode_maya(need(payload, "diagram"))
    minor = plucker(pt, maya)
    return encode_ring_element(minor), pt.window_high, ["minor-rows:increasing-exponent"]


def _cmd_transition(args, payload):
    ring = decode_ring(need(payload, "ring"))
    pt = decode_point(ring, need(payload, "point"))
    a = decode_maya(need(payload, "chart_a"))
    b = decode_maya(need(payload, "chart_b"))
    value = chart_transition(pt, a, b)
    return encode_ring_element(value), pt.window_high, [
        "transition:minor-a-over-minor-b"
    ]


def _cmd_act(args, payload):
    ring = decode_ring(need(payload, "ring"))
    g = decode_gamma(ring, need(payload, "gamma"))
    pt = decode_point(ring, need(payload, "point"))
    moved = act(g, pt, promote=args.promote)
    return encode_point(moved), moved.window_high, [
        "unit-scales-columns",
        "promoted-columns-prepended-deepest-first",
    ]


def _cmd_tau(args, payload):
    ring = decode_ring(need(payload, "ring"))
    pt = decode_point(ring, need(payload, "point"))
    t = _TAU_ROUTES[args.method](pt, args.deg)
    return (
        {"ring": encode_ring(t.ring), "tau": encode_ring_element(t)},
        None,
        [f"method:{args.method}", "normalized-at-vacuum"],
    )


def _cmd_baker(args, payload):
    ring = decode_ring(need(payload, "ring"))
    pt = decode_point(ring, need(payload, "point"))
    psi = baker(pt, args.deg, args.window)
    return (
        {"ring": encode_ring(psi.ring), "series": encode_laurent(psi)},
        psi.trunc,
        ["normalized-at-vacuum"],
    )


def _cmd_schur(args, payload):
    field = parse_field_spec(args.field)
    lam = decode_partition(need(payload, "partition"))
    ring = coordinate_ring(field, args.deg)
    p = schur_polynomial(ring, lam)
    return (
        {"ring": encode_ring(ring), "polynomial": encode_ring_element(p)},
        None,
        ["weights:1..deg"],
    )


def _cmd_bosonize(args, payload):
    ring = decode_ring(need(payload, "ring"))
    poly = need(payload, "polynomial", default=None)
    if poly is not None:
        coords = to_schur_coords(decode_ring_element(ring, poly))
        out = [
            {"partition": list(lam), "coeff": ring.field.format(v)}
            for lam, v in sorted(coords.items())
        ]
        return {"coords": out}, None, []
    p = bosonize(ring, decode_schur_coords(ring.field, need(payload, "coords")))
    return {"polynomial": encode_ring_element(p)}, None, []


def _cmd_pair(args, payload):
    ring = decode_ring(need(payload, "ring"))
    f = decode_laurent(ring, need(payload, "f"))
    g = decode_laurent(ring, need(payload, "g"))
    if args.mode == "residue":
        value = residue_pairing(f, g)
        return encode_ring_element(value), None, ["residue:res-f-dg"]
    value = commutator_pairing(f, g)
    return encode_ring_element(value), None, [
        "commutator-orientation:first-conjugates-second"
    ]


def _cmd_verify(args, _payload):
    names = suite_names() if args.suite == "all" else [args.suite]
    reports = [run_suite(n, seed=args.seed, scale=args.scale) for n in names]
    result = {
        "suites": [r.as_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return result, None, []


def _load_payload(args) -> dict | None:
    if not hasattr(args, "infile"):
        return None
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise ValueError("empty payload")
    try:
        return json.loads(text)
    except RecursionError:  # json refuses nesting deeper than the stack
        raise ValueError("payload nesting is too deep") from None


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _fail(code: int, kind: str, error) -> int:
    _emit({"status": "error", "kind": kind, "error": str(error)})
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _load_payload(args)
        result, precision, flags = args.run(args, payload)
    except PrecisionError as exc:
        return _fail(4, "precision", exc)
    except InternalError as exc:
        return _fail(5, "internal", exc)
    except GrasstauError as exc:
        return _fail(3, "precondition", exc)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        return _fail(2, "malformed", exc)
    except Exception as exc:  # anything else is a library defect
        return _fail(5, "internal", f"{type(exc).__name__}: {exc}")
    _emit(
        {
            "status": "ok",
            "result": result,
            "precision_used": precision,
            "convention_flags": flags,
        }
    )
    if args.command == "verify" and not result["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
