"""Command-line front end.

Every subcommand but ``verify``, which reads no payload, reads one JSON
payload (stdin, or a file via ``--in``); every subcommand writes one JSON
object to stdout with deterministic key order, and exits with:

* 0 - success
* 1 - a verification suite reported failing checks
* 2 - malformed payload (bad JSON, nesting too deep, missing keys, a
  wrong JSON type anywhere, an unparsable coefficient)
* 3 - precondition failure (domain errors, non-invertible input, a
  payload past its byte cap, a ring or point past a payload shape cap, a
  size flag past its cap)
* 4 - insufficient precision for the requested output
* 5 - an internal invariant failed, or any unexpected exception (a
  library defect, not a bad input)

Each call is a fresh process, so what it imports, and what the parse
builds, is paid per call.  The verify suites are imported only by the
verify handler and its flags, and ring elements cross the JSON boundary
as int ratios (``serialize``), so a call that reads no Fraction-valued
coefficient loads neither ``fractions`` nor the ``decimal`` it imports.
A canonical argument list (a subcommand, then its flags,
each once and each with a value not starting with "-", every required
one present) is read straight off the subcommand table, and argparse is
never imported.  Anything else (help, an error, "--flag=value", an
abbreviation, a negative value) goes to argparse, which is the one
authority on help text, errors and exit code 2: the call builds the
top-level parser and only the subparser its first word names.  Its usage
line still lists every subcommand, so its messages are the full
parser's.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DomainError, GrasstauError, InternalError, PrecisionError
from .gamma import GammaElement, abel_embed, exp_gamma, factorize, witt_add, witt_product
from .grassmann import act, chart_transition, index, plucker
from .schur import _bosonized, _schur_coords, coordinate_ring, schur_polynomial
from .serialize import (
    _decode_schur_constants,
    _encode_schur_constants,
    decode_gamma,
    decode_laurent,
    decode_maya,
    decode_partition,
    decode_point,
    decode_ring,
    decode_ring_element,
    decode_ring_elements,
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

if TYPE_CHECKING:
    import argparse


_TAU_ROUTES = {"direct": tau_direct, "schur": tau_schur, "both": tau_crosscheck}

# Caps of the size flags, checked before the payload is read, well above
# every value of the tests, README and bench (at most 4).  Each flag sizes
# the work of its call: --deg the coordinate ring of tau, baker and schur,
# --window a series window, --depth abel's clipped series, --promote the
# columns act makes.  At 10**8 each ran past an 8-s timeout; at its cap a
# call took at most 0.2 s in process (baker --deg 16 --window 256 on a
# depth-3 point; 2-vCPU x86, Python 3.11), though payloads can still make
# calls below the caps long.  The library itself takes any size.
_FLAG_CAPS = {"deg": 16, "window": 256, "depth": 128, "promote": 1024}

# The longest payload read, in bytes, refused before JSON decoding: a
# byte count bounds the total terms of every shape a payload can carry.
# The largest payload of the tests and bench is 100,000 bytes (a nesting
# test, "[" * 100000); the largest that a call decodes is under 17 kB.
# The 300-column Q point, 5.0 MB, on which index took 25 s, is refused.
_PAYLOAD_CAP = 1 << 20


# ----------------------------------------------------------------------
# handlers: (args, payload's ring or None, payload) -> (result, precision_used, convention_flags)
# ----------------------------------------------------------------------


def _cmd_factor(args, ring, payload):
    f = decode_laurent(ring, need(payload, "series"))
    g = factorize(f)
    return encode_gamma(g), g.gplus.trunc, ["wings-constant-one", "zpower-at-unit-slot"]


def _cmd_exp(args, ring, payload):
    vec = decode_ring_elements(ring, need(payload, "coeffs"))
    if args.product_form:
        out = witt_product(ring, vec, args.sign)
        return encode_laurent(out), out.trunc, ["product:one-minus-az"]
    g = exp_gamma(ring, vec, args.sign, args.window)
    prec = g.gplus.trunc if args.sign > 0 else g.gminus.trunc
    return encode_gamma(g), prec, []


def _cmd_witt_add(args, ring, payload):
    a = decode_ring_elements(ring, need(payload, "a"))
    b = decode_ring_elements(ring, need(payload, "b"))
    out = witt_add(ring, a, b)
    return {"sum": [encode_ring_element(c) for c in out]}, None, ["product:one-minus-az"]


def _cmd_abel(args, ring, payload):
    pts = decode_ring_elements(ring, need(payload, "points"))
    out = abel_embed(ring, pts, depth=args.depth)
    if isinstance(out, GammaElement):
        return {"kind": "wing", "element": encode_gamma(out)}, None, []
    return {"kind": "clipped", "series": encode_laurent(out)}, out.min_exp, [
        "clipped-below-depth"
    ]


def _cmd_index(args, ring, payload):
    pt = decode_point(ring, need(payload, "point"))
    return {"index": index(pt)}, pt.window_high, []


def _cmd_plucker(args, ring, payload):
    pt = decode_point(ring, need(payload, "point"))
    maya = decode_maya(need(payload, "diagram"))
    minor = plucker(pt, maya)
    return encode_ring_element(minor), pt.window_high, ["minor-rows:increasing-exponent"]


def _cmd_transition(args, ring, payload):
    pt = decode_point(ring, need(payload, "point"))
    a = decode_maya(need(payload, "chart_a"))
    b = decode_maya(need(payload, "chart_b"))
    value = chart_transition(pt, a, b)
    return encode_ring_element(value), pt.window_high, [
        "transition:minor-a-over-minor-b"
    ]


def _cmd_act(args, ring, payload):
    g = decode_gamma(ring, need(payload, "gamma"))
    pt = decode_point(ring, need(payload, "point"))
    moved = act(g, pt, promote=args.promote)
    return encode_point(moved), moved.window_high, [
        "unit-scales-columns",
        "promoted-columns-prepended-deepest-first",
    ]


def _cmd_tau(args, ring, payload):
    pt = decode_point(ring, need(payload, "point"))
    t = _TAU_ROUTES[args.method](pt, args.deg)
    return (
        {"ring": encode_ring(t.ring), "tau": encode_ring_element(t)},
        None,
        [f"method:{args.method}", "normalized-at-vacuum"],
    )


def _cmd_baker(args, ring, payload):
    pt = decode_point(ring, need(payload, "point"))
    psi = baker(pt, args.deg, args.window)
    return (
        {"ring": encode_ring(psi.ring), "series": encode_laurent(psi)},
        psi.trunc,
        ["normalized-at-vacuum"],
    )


def _cmd_schur(args, _ring, payload):
    field = parse_field_spec(args.field)
    lam = decode_partition(need(payload, "partition"))
    ring = coordinate_ring(field, args.deg)
    p = schur_polynomial(ring, lam)
    return (
        {"ring": encode_ring(ring), "polynomial": encode_ring_element(p)},
        None,
        ["weights:1..deg"],
    )


def _cmd_bosonize(args, ring, payload):
    # coefficients cross as int ratios, as every other subcommand's do
    poly = need(payload, "polynomial", default=None)
    if poly is not None:
        coords = _schur_coords(decode_ring_element(ring, poly))
        return {"coords": _encode_schur_constants(coords)}, None, []
    p = _bosonized(ring, _decode_schur_constants(ring, need(payload, "coords")).items())
    return {"polynomial": encode_ring_element(p)}, None, []


def _cmd_pair(args, ring, payload):
    f = decode_laurent(ring, need(payload, "f"))
    g = decode_laurent(ring, need(payload, "g"))
    if args.mode == "residue":
        value = residue_pairing(f, g)
        return encode_ring_element(value), None, ["residue:res-f-dg"]
    value = commutator_pairing(f, g)
    return encode_ring_element(value), None, [
        "commutator-orientation:first-conjugates-second"
    ]


def _cmd_verify(args, _ring, _payload):
    from .verify import run_suite, suite_names  # only a verify call loads the suites

    names = suite_names() if args.suite == "all" else [args.suite]
    reports = [run_suite(n, seed=args.seed, scale=args.scale) for n in names]
    result = {
        "suites": [r.as_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return result, None, []


def _verify_arguments() -> tuple:
    """verify's flags: --suite's choices load the suites, so only a call
    that reads verify's flags imports them."""
    from .verify import suite_names

    return (
        ("--suite", {"default": "all", "choices": ["all"] + suite_names()}),
        ("--seed", {"type": int, "default": 0}),
        ("--scale", {"choices": ("small", "full"), "default": "small"}),
    )


# name -> (help, handler, reads a payload, reads the payload's ring,
# arguments), in the order of --help.  The arguments are None or a function
# giving (flag, add_argument keywords) pairs, called only when a call reads
# its subcommand's flags; a payload-reading subcommand also takes --in.
_SUBCOMMANDS = {
    "factor": ("split a series into lower wing * unit * upper wing * z^k", _cmd_factor, True, True, None),
    "exp": ("exponential of a coefficient vector into one wing", _cmd_exp, True, True, lambda: (
        ("--sign", {"type": int, "choices": (-1, 1), "default": -1}),
        ("--window", {"type": int, "help": "truncation order (required for sign +1)"}),
        ("--product-form", {
            "action": "store_true",
            "help": "use the finite product prod(1 - a_i z^(sign i)) instead (works in any characteristic)",
        }),
    )),
    "witt-add": ("add two coefficient vectors through their product series", _cmd_witt_add, True, True, None),
    "abel": ("embed one-variable points through t -> sum t^k z^-k", _cmd_abel, True, True, lambda: (
        ("--depth", {"type": int, "help": "clip depth for non-nilpotent points"}),
    )),
    "index": ("relative dimension of a point against the base point", _cmd_index, True, True, None),
    "plucker": ("one minor of a point, selected by a diagram", _cmd_plucker, True, True, None),
    "transition": ("ratio of two chart minors at the same point", _cmd_transition, True, True, None),
    "act": ("apply a factored group element to a point", _cmd_act, True, True, lambda: (
        ("--promote", {"type": int, "help": "how many tail slots become columns"}),
    )),
    "tau": ("tau polynomial of a point", _cmd_tau, True, True, lambda: (
        ("--deg", {"type": int, "required": True, "help": "weighted degree bound"}),
        ("--method", {
            "choices": tuple(_TAU_ROUTES),
            "default": "both",
            "help": "'both' computes the two routes and insists they agree",
        }),
    )),
    "baker": ("wave series of a point", _cmd_baker, True, True, lambda: (
        ("--deg", {"type": int, "required": True, "help": "weighted degree bound"}),
        ("--window", {"type": int, "required": True, "help": "z-window upper end"}),
    )),
    "schur": ("basis polynomial of a partition in the coordinate ring", _cmd_schur, True, False, lambda: (
        ("--field", {"default": "q", "help": "'q' or 'fp:<p>'"}),
        ("--deg", {"type": int, "required": True, "help": "weighted degree bound"}),
    )),
    "bosonize": ("convert between polynomials and basis coordinates", _cmd_bosonize, True, True, None),
    "pair": ("pairing of two series with unit constant coefficient", _cmd_pair, True, True, lambda: (
        ("--mode", {"choices": ("commutator", "residue"), "default": "commutator"}),
    )),
    "verify": ("run randomized self-check suites", _cmd_verify, False, False, _verify_arguments),
}


_IN = ("--in", {"dest": "infile", "metavar": "FILE", "help": "read the JSON payload from FILE instead of stdin"})


def _arguments(name: str) -> tuple:
    """(flag, add_argument keywords) of every flag of subcommand ``name``,
    --in first, for argparse and ``_canonical_args`` alike."""
    _help, _run, payload, _ring, arguments = _SUBCOMMANDS[name]
    return ((_IN,) if payload else ()) + (arguments() if arguments else ())


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: with every subparser, or with only ``command``'s.
    A one-subparser parser names them all in its usage line, as the full
    parser does; it parses only argument lists whose first word is
    ``command``."""
    import argparse  # only help, errors and non-canonical forms need it

    parser = argparse.ArgumentParser(
        prog="grasstau",
        description="Exact arithmetic on an infinite-dimensional Grassmannian: "
        "triangular factorization, tau polynomials, and determinant pairings.",
    )
    # one subparser's metavar lists them all, for the full usage line; the
    # full parser keeps argparse's, which names the action "command" in its
    # "invalid choice" and "required" messages
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _SUBCOMMANDS if command is None else [command]:
        help_, run, _payload, ring, _ = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run, reads_ring=ring)
        for flag, keywords in _arguments(name):
            p.add_argument(flag, **keywords)
    return parser


def _canonical_args(argv) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read off the subcommand
    table, or None when ``argv`` is not canonical.  Canonical is a known
    subcommand, then known flags, each at most once and each but a
    store_true flag followed by a value that does not start with "-" and
    is of its flag's type and choices, with every required flag present.
    On those argparse only stores each value, converted by the same
    ``type``, over the defaults; help, errors, "--flag=value",
    abbreviations, negative values and "--" are left to it."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _help, run, _payload, ring, _ = _SUBCOMMANDS[argv[0]]
    specs, values = {}, {"command": argv[0], "run": run, "reads_ring": ring}
    for flag, keywords in _arguments(argv[0]):
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        store_true = keywords.get("action") == "store_true"
        values[dest] = keywords.get("default", False if store_true else None)
        specs[flag] = dest, keywords
    words = iter(argv[1:])
    for flag in words:
        if flag not in specs:  # unknown, or given before
            return None
        dest, keywords = specs.pop(flag)
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(words, "-")  # a flag without its value is declined
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    if any(keywords.get("required") for _, keywords in specs.values()):  # one not given
        return None
    return SimpleNamespace(**values)


def _load_payload(args) -> dict | None:
    if not hasattr(args, "infile"):
        return None
    if args.infile:
        with open(args.infile, "rb") as fh:
            data = fh.read(_PAYLOAD_CAP + 1)
    else:
        # a text stream with no byte buffer, as an in-process caller may
        # set, is read and capped in characters
        data = getattr(sys.stdin, "buffer", sys.stdin).read(_PAYLOAD_CAP + 1)
    if len(data) > _PAYLOAD_CAP:
        raise DomainError(f"payload must be at most {_PAYLOAD_CAP} bytes")
    text = data.decode("utf-8") if isinstance(data, bytes) else data
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
    if argv is None:  # the console script and ``python -m`` pass none
        argv = sys.argv[1:]
    args = _canonical_args(argv)  # a canonical argument list needs no parser
    if args is None:
        # a first word that names no subcommand, or none, gets the full parser
        command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = build_parser(command).parse_args(argv)
    try:
        for flag, cap in _FLAG_CAPS.items():
            if (getattr(args, flag, None) or 0) > cap:
                raise DomainError(f"--{flag} must be at most {cap}")
        payload = _load_payload(args)
        ring = decode_ring(need(payload, "ring")) if args.reads_ring else None
        result, precision, flags = args.run(args, ring, payload)
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
