"""JSON-facing encoders/decoders for every value the CLI passes around.

This module alone decides whether a payload is malformed: every payload
value is read through one typed reader per JSON type or the key reader
``need``, and a missing key, a wrong JSON type anywhere (a bool, float or
string where an integer belongs) or an unparsable coefficient literal
raises ValueError, which the CLI tells apart from semantic precondition
failures, raised as the library's own error types.  A ring or a point
past a shape cap (``MAX_NUM_VARS``, ``MAX_DEGREE_BOUND``,
``MAX_TAIL_DEPTH``), and a series with an exponent or truncation order
past ``MAX_EXPONENT`` in absolute value, is such a failure, a DomainError
raised before anything is built.  Encoders emit plain JSON-ready
structures with deterministic ordering.
"""

from __future__ import annotations

from .errors import DomainError
from .gamma import GammaElement
from .grassmann import GrassPoint
from .laurent import LaurentElement
from .partitions import MayaDiagram, check_partition
from .scalars import BaseField, CoeffRing, RingElement

# -- typed readers ---------------------------------------------------------

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an int"}
_REQUIRED = object()


def _typed(value, kind: type, what: str):
    """The one type check of every payload value: ``value`` if its JSON
    type is exactly ``kind`` (dict, list, str or int).  bool is an int
    subclass in Python, so the type is matched exactly; floats and strings
    are refused where an integer belongs, not rounded or parsed."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def need(obj, key: str, kind: type | None = None, what: str = "payload", default=_REQUIRED):
    """``obj[key]`` of the JSON object ``obj`` (named ``what`` in errors),
    checked by ``_typed`` when ``kind`` is given.  A missing key is
    malformed unless a ``default`` is given; the default comes back
    unchecked, and so does a null where the default is None."""
    value = _typed(obj, dict, what).get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{what} needs {key!r}")
    if kind is None or value is default:
        return value
    return _typed(value, kind, f"{what} {key!r}")


def _ints(value, what: str) -> list[int]:
    return [_typed(v, int, f"{what} entry") for v in _typed(value, list, what)]


# Shape caps of a payload, well above every payload of the tests, README
# and bench (at most 3 variables, degree bound 3 and tail depth 3), so that
# a huge shape is refused before anything is built: a ring of 2**70
# variables overflows the monomial keys, and a degree bound or tail depth
# of 2**70 sends plucker, pair, abel or index's elimination down a walk
# without end.  Below the caps a payload can still take long; the library
# itself takes any size.
MAX_NUM_VARS = 64
MAX_DEGREE_BOUND = 64
MAX_TAIL_DEPTH = 1024
# A series exponent or truncation order past it, either way, is refused
# too: factor on 1 + x z^(-10**8) in a one-variable ring of degree bound 2,
# and pair on 1 + x z^(-50000) with 1 + x z^50000, each ran past 20 s.  It
# is the tail-depth cap, so a point at that cap stays writable.
MAX_EXPONENT = MAX_TAIL_DEPTH


def _capped(obj, key: str, cap: int, what: str) -> int:
    """The int ``obj[key]``, refused with a DomainError past ``cap``."""
    value = need(obj, key, int, what)
    if value > cap:
        raise DomainError(f"{what} {key} must be at most {cap} in a payload")
    return value


def _exponent(obj, key: str, what: str, default=_REQUIRED) -> int | None:
    """The int ``obj[key]`` (or ``default``), refused with a DomainError
    past ``MAX_EXPONENT`` in absolute value."""
    value = need(obj, key, int, what, default)
    if value is not None and abs(value) > MAX_EXPONENT:
        raise DomainError(f"{what} |{key}| must be at most {MAX_EXPONENT} in a payload")
    return value


def _checked(build, *args):
    """``build(*args)``, with the library's DomainError re-raised as
    ValueError: a payload value that nothing can be built from, such as
    the coefficient literal "x", is malformed."""
    try:
        return build(*args)
    except DomainError as exc:
        raise ValueError(str(exc)) from None


# -- field specs -------------------------------------------------------


def parse_field_spec(spec: str) -> BaseField:
    s = _typed(spec, str, "field spec").strip().lower()
    if s == "q":
        return BaseField(0)
    if s.startswith("fp:"):
        try:
            p = int(s[3:], 10)
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        if p < 2:  # BaseField(0) would be the rationals
            raise ValueError(f"bad field spec {spec!r}: p must be a prime")
        return _checked(BaseField, p)  # refuses a non-prime characteristic
    raise ValueError(f"unknown field spec {spec!r} (use 'q' or 'fp:<p>')")


def format_field_spec(field: BaseField) -> str:
    return "q" if field.char == 0 else f"fp:{field.char}"


# -- rings --------------------------------------------------------------


def decode_ring(obj) -> CoeffRing:
    field = parse_field_spec(need(obj, "field", what="ring"))
    num_vars = _capped(obj, "num_vars", MAX_NUM_VARS, "ring")
    bound = _capped(obj, "degree_bound", MAX_DEGREE_BOUND, "ring")
    weights = need(obj, "weights", what="ring", default=None)
    if weights is not None:
        weights = tuple(_ints(weights, "weights"))
    return CoeffRing(field, num_vars, bound, weights)


def encode_ring(ring: CoeffRing) -> dict:
    out = {
        "field": format_field_spec(ring.field),
        "num_vars": ring.num_vars,
        "degree_bound": ring.degree_bound,
    }
    if ring.weights != (1,) * ring.num_vars:
        out["weights"] = list(ring.weights)
    return out


# -- ring elements --------------------------------------------------------


def decode_ring_element(ring: CoeffRing, obj) -> RingElement:
    coeffs = {}
    for term in _typed(obj, list, "ring element"):
        mono = tuple(_ints(need(term, "exponents", what="ring element term"), "term exponents"))
        c = _checked(ring.field.parse, need(term, "coeff", str, "ring element term"))
        coeffs[mono] = coeffs.get(mono, 0) + c
    # refuses a monomial of the wrong length or with a negative exponent;
    # coerce, in the constructor, reduces the sums of repeated monomials
    return _checked(ring.element, coeffs)


def decode_ring_elements(ring: CoeffRing, obj) -> list[RingElement]:
    return [decode_ring_element(ring, c) for c in _typed(obj, list, "ring element list")]


def encode_ring_element(elem: RingElement) -> list:
    fmt = elem.ring.field.format
    return [
        {"exponents": list(mono), "coeff": fmt(c)}
        for mono, c in sorted(elem.coeffs.items())
    ]


# -- Laurent elements -------------------------------------------------------


def decode_laurent(ring: CoeffRing, obj) -> LaurentElement:
    """Terms at a repeated exponent add up, like repeated monomials."""
    terms = need(obj, "terms", list, "laurent element")
    trunc = _exponent(obj, "trunc_order", "laurent element", default=None)
    coeffs = {}
    for term in terms:
        exp = _exponent(term, "exp", "laurent term")
        c = decode_ring_element(ring, need(term, "coeff", what="laurent term"))
        coeffs[exp] = coeffs[exp] + c if exp in coeffs else c
    return LaurentElement(ring, coeffs, trunc)


def encode_laurent(f: LaurentElement) -> dict:
    return {
        "min_exp": f.min_exp,
        "trunc_order": f.trunc,
        "terms": [
            {"exp": e, "coeff": encode_ring_element(f.coeffs[e])}
            for e in sorted(f.coeffs)
        ],
    }


# -- factored group elements ---------------------------------------------------


def decode_gamma(ring: CoeffRing, obj) -> GammaElement:
    what = "gamma element"
    gminus = decode_laurent(ring, need(obj, "gminus", what=what))
    unit = decode_ring_element(ring, need(obj, "unit", what=what))
    gplus = decode_laurent(ring, need(obj, "gplus", what=what))
    zpower = need(obj, "zpower", int, what, default=0)
    return GammaElement(gminus, unit, gplus, zpower)


def encode_gamma(g: GammaElement) -> dict:
    return {
        "gminus": encode_laurent(g.gminus),
        "unit": encode_ring_element(g.unit),
        "gplus": encode_laurent(g.gplus),
        "zpower": g.zpower,
    }


# -- points ----------------------------------------------------------------


def decode_point(ring: CoeffRing, obj) -> GrassPoint:
    depth = _capped(obj, "tail_depth", MAX_TAIL_DEPTH, "point")
    cols = need(obj, "columns", list, "point")
    return GrassPoint(ring, depth, [decode_laurent(ring, c) for c in cols])


def encode_point(p: GrassPoint) -> dict:
    return {
        "tail_depth": p.tail_depth,
        "window_high": p.window_high,
        "columns": [encode_laurent(c) for c in p.columns],
    }


# -- diagrams / partitions -------------------------------------------------------


def decode_maya(obj) -> MayaDiagram:
    """A diagram given by 'partition' (and 'charge'), or else by
    'tail_start' and 'members'."""
    if "partition" in _typed(obj, dict, "diagram"):
        lam = _ints(obj["partition"], "partition")
        charge = need(obj, "charge", int, "diagram", default=0)
        return _checked(MayaDiagram.from_partition, tuple(lam), charge)
    start = need(obj, "tail_start", int, "diagram")
    members = _ints(need(obj, "members", what="diagram", default=[]), "members")
    return _checked(MayaDiagram, start, members)


def decode_partition(obj):
    return _checked(check_partition, _ints(obj, "partition"))


def decode_schur_coords(field: BaseField, obj) -> dict:
    """{partition: field scalar} from a list of {"partition", "coeff"}
    objects; the coefficients of a repeated partition add up, like
    repeated monomials and exponents, each sum reduced once by
    ``field.coerce``."""
    coords = {}
    for item in _typed(obj, list, "'coords'"):
        lam = decode_partition(need(item, "partition", what="coordinate"))
        c = _checked(field.parse, need(item, "coeff", str, "coordinate"))
        coords[lam] = coords.get(lam, 0) + c
    return {lam: field.coerce(c) for lam, c in coords.items()}
