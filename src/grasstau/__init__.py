"""grasstau: exact arithmetic on the formal-series Grassmannian.

Laurent-series factorization over truncated coefficient rings, Plucker
chart coordinates, Schur-polynomial and tau-function machinery, and the
residue/commutator pairings, all in exact arithmetic over Q or F_p.
"""

from .errors import (
    DomainError,
    GrasstauError,
    InternalError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
)
from .gamma import (
    GammaElement,
    abel_embed,
    exp_gamma,
    factorize,
    universal_v,
    witt_add,
    witt_product,
)
from .grassmann import (
    GrassPoint,
    act,
    chart_transition,
    embed_finite,
    in_chart,
    index,
    plucker,
    quotient_basis,
)
from .laurent import LaurentElement
from .partitions import MayaDiagram, conjugate, partitions_of, partitions_up_to
from .scalars import GF, QQ, BaseField, CoeffRing, RingElement
from .schur import (
    bosonize,
    coordinate_ring,
    duality_pair,
    schur_polynomial,
    to_schur_coords,
)
from .tau import baker, kp_residual, tau_crosscheck, tau_direct, tau_eval, tau_schur
from .pairings import commutator_pairing, residue_pairing

__all__ = [
    "BaseField",
    "CoeffRing",
    "DomainError",
    "GF",
    "GammaElement",
    "GrassPoint",
    "GrasstauError",
    "InternalError",
    "LaurentElement",
    "MayaDiagram",
    "NotInvertibleError",
    "PrecisionError",
    "QQ",
    "RingElement",
    "RingMismatchError",
    "abel_embed",
    "act",
    "baker",
    "bosonize",
    "chart_transition",
    "commutator_pairing",
    "conjugate",
    "coordinate_ring",
    "duality_pair",
    "embed_finite",
    "exp_gamma",
    "factorize",
    "in_chart",
    "index",
    "kp_residual",
    "partitions_of",
    "partitions_up_to",
    "plucker",
    "quotient_basis",
    "residue_pairing",
    "run_suite",
    "schur_polynomial",
    "suite_names",
    "tau_crosscheck",
    "tau_direct",
    "tau_eval",
    "tau_schur",
    "to_schur_coords",
    "universal_v",
    "witt_add",
    "witt_product",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # the verify suites load on first use: of the CLI's calls only verify runs them
    if name in ("run_suite", "suite_names"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
