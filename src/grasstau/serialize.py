"""JSON-facing encoders/decoders for every value the CLI passes around.

Decoders raise ValueError on structurally malformed data (wrong types,
such as a bool, float or string where an integer belongs; missing keys)
so the CLI can distinguish "bad payload" from semantic precondition
failures, which surface as the library's own error types.
Encoders emit plain JSON-ready structures with deterministic ordering.
"""

from __future__ import annotations

from .errors import DomainError
from .gamma import GammaElement
from .grassmann import GrassPoint
from .laurent import LaurentElement
from .partitions import MayaDiagram, check_partition
from .scalars import BaseField, CoeffRing, RingElement

# -- integers ------------------------------------------------------------


def _int(value, what: str) -> int:
    """The one reader of every integer field: ``value`` if it is a JSON
    integer.  bool is an int subclass in Python, so the type is matched
    exactly; floats and strings are refused, not rounded or parsed."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int")
    return value


def _ints(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of ints")
    return [_int(v, f"{what} entry") for v in value]


# -- field specs -------------------------------------------------------


def parse_field_spec(spec: str) -> BaseField:
    if not isinstance(spec, str):
        raise ValueError("field spec must be a string")
    s = spec.strip().lower()
    if s == "q":
        return BaseField(0)
    if s.startswith("fp:"):
        try:
            p = int(s[3:], 10)
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        try:
            return BaseField(p)
        except DomainError as exc:  # non-prime characteristic
            raise ValueError(str(exc)) from None
    raise ValueError(f"unknown field spec {spec!r} (use 'q' or 'fp:<p>')")


def format_field_spec(field: BaseField) -> str:
    return "q" if field.char == 0 else f"fp:{field.char}"


# -- rings --------------------------------------------------------------


def decode_ring(obj) -> CoeffRing:
    if not isinstance(obj, dict):
        raise ValueError("ring must be an object")
    try:
        field = parse_field_spec(obj["field"])
        num_vars = _int(obj["num_vars"], "num_vars")
        bound = _int(obj["degree_bound"], "degree_bound")
    except KeyError as exc:
        raise ValueError(f"ring is missing key {exc}") from None
    weights = obj.get("weights")
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
    if not isinstance(obj, list):
        raise ValueError("ring element must be a list of terms")
    coeffs = {}
    for term in obj:
        if not isinstance(term, dict):
            raise ValueError("ring element term must be an object")
        exps = _ints(term.get("exponents"), "term exponents")
        if len(exps) != ring.num_vars:
            raise ValueError(
                f"term has {len(exps)} exponents; ring has {ring.num_vars} variables"
            )
        if any(e < 0 for e in exps):
            raise ValueError("term exponents must be >= 0")
        c = term.get("coeff")
        if not isinstance(c, str):
            raise ValueError("term coeff must be a string")
        mono = tuple(exps)
        prev = coeffs.get(mono, ring.field.zero())
        coeffs[mono] = ring.field.add(prev, ring.field.parse(c))
    return ring.element(coeffs)


def encode_ring_element(elem: RingElement) -> list:
    fmt = elem.ring.field.format
    return [
        {"exponents": list(mono), "coeff": fmt(c)}
        for mono, c in sorted(elem.coeffs.items())
    ]


# -- Laurent elements -------------------------------------------------------


def decode_laurent(ring: CoeffRing, obj) -> LaurentElement:
    if not isinstance(obj, dict):
        raise ValueError("laurent element must be an object")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise ValueError("laurent element needs a 'terms' list")
    trunc = obj.get("trunc_order")
    if trunc is not None:
        trunc = _int(trunc, "trunc_order")
    coeffs = {}
    for term in terms:
        if not isinstance(term, dict):
            raise ValueError("laurent term must be an object")
        exp = _int(term.get("exp"), "laurent term 'exp'")
        coeffs[exp] = decode_ring_element(ring, term.get("coeff"))
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
    if not isinstance(obj, dict):
        raise ValueError("gamma element must be an object")
    try:
        gminus = decode_laurent(ring, obj["gminus"])
        unit = decode_ring_element(ring, obj["unit"])
        gplus = decode_laurent(ring, obj["gplus"])
    except KeyError as exc:
        raise ValueError(f"gamma element is missing key {exc}") from None
    zpower = _int(obj.get("zpower", 0), "zpower")
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
    if not isinstance(obj, dict):
        raise ValueError("point must be an object")
    depth = _int(obj.get("tail_depth"), "tail_depth")
    cols = obj.get("columns")
    if not isinstance(cols, list):
        raise ValueError("point needs a list 'columns'")
    return GrassPoint(ring, depth, [decode_laurent(ring, c) for c in cols])


def encode_point(p: GrassPoint) -> dict:
    return {
        "tail_depth": p.tail_depth,
        "window_high": p.window_high,
        "columns": [encode_laurent(c) for c in p.columns],
    }


# -- diagrams / partitions -------------------------------------------------------


def decode_maya(obj) -> MayaDiagram:
    if isinstance(obj, dict) and "partition" in obj:
        lam = _ints(obj["partition"], "partition")
        charge = _int(obj.get("charge", 0), "charge")
        try:
            return MayaDiagram.from_partition(tuple(lam), charge)
        except DomainError as exc:
            raise ValueError(str(exc)) from None
    if isinstance(obj, dict) and "tail_start" in obj:
        start = _int(obj["tail_start"], "tail_start")
        members = _ints(obj.get("members", []), "members")
        try:
            return MayaDiagram(start, members)
        except DomainError as exc:
            raise ValueError(str(exc)) from None
    raise ValueError("diagram must give 'partition' or 'tail_start'")


def encode_maya(m: MayaDiagram) -> dict:
    return {"tail_start": m.tail_start, "members": list(m.members)}


def decode_partition(obj):
    try:
        return check_partition(_ints(obj, "partition"))
    except DomainError as exc:
        raise ValueError(str(exc)) from None
