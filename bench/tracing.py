"""Per-layer call counts and self time, measured from outside the package.

``Tracer.install`` replaces the public functions of every layer with a
wrapper, at every place they are bound: the defining module, each module
that did ``from .linalg import det_ring``, and the package namespace.
Methods of ``RingElement``, ``LaurentElement`` and ``GammaElement`` are
replaced on the class (aliases such as ``__rmul__`` included).

Each wrapped call is a span.  Spans nest on a stack; a span's self time
is its duration minus the time covered by the spans it caused.  The
tracer keeps only the running totals per name (count, self time and a
few layer-specific figures), not the spans themselves: the scalar layer
alone makes ~10^5 calls per batch.  Calls count between ``install`` and
``uninstall``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import grasstau

MODULES = (
    "scalars", "laurent", "linalg", "gamma", "grassmann", "tau", "schur",
    "partitions", "pairings", "serialize", "cli",
)

# metric prefix -> (module, attribute) of the function it traces
FUNCTIONS = {
    f"{mod}.{fn}": (mod, fn)
    for mod, fns in {
        "linalg": ("det_ring", "inv_ring", "mat_mul_ring", "det_field", "solve_field", "rank_field",
                   "echelon_field"),
        "gamma": ("factorize", "exp_gamma", "witt_add", "witt_product", "abel_embed", "universal_v"),
        "grassmann": ("plucker", "act", "in_chart", "chart_transition", "index"),
        "tau": ("tau_direct", "tau_schur", "tau_eval", "baker", "kp_residual"),
        "schur": ("schur_polynomial", "to_schur_coords", "bosonize"),
        "partitions": ("partitions_up_to",),
        "pairings": ("commutator_pairing", "residue_pairing"),
        "cli": ("main",),
    }.items()
    for fn in fns
}
METHODS = {
    "scalars.RingElement.mul": ("scalars", "RingElement", "__mul__"),
    "scalars.RingElement.add": ("scalars", "RingElement", "__add__"),
    "scalars.RingElement.inverse": ("scalars", "RingElement", "inverse"),
    "laurent.LaurentElement.mul": ("laurent", "LaurentElement", "__mul__"),
    "laurent.inverse": ("laurent", "LaurentElement", "inverse"),
    "gamma.GammaElement.mul": ("gamma", "GammaElement", "__mul__"),
    "gamma.GammaElement.inverse": ("gamma", "GammaElement", "inverse"),
}
SPAN_NAMES = sorted(
    [n for n in list(FUNCTIONS) + list(METHODS) if n != "laurent.inverse"]
    + ["laurent.inverse_exact", "laurent.inverse_windowed", "serialize.decode", "serialize.encode"]
)


def _modules():
    return {name: importlib.import_module(f"grasstau.{name}") for name in MODULES}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.max_n = defaultdict(int)
        self.errors = defaultdict(int)
        self.nonzero = 0
        self._stack = [0.0]
        self._undo = []

    # -- accounting ---------------------------------------------------------

    def _wrap(self, name, fn, classify=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                span = classify(args, kwargs, result, exc) if classify else name
                self.calls[span] += 1
                self.self_s[span] += dt - stack.pop()
                stack[-1] += dt
                if exc is not None:
                    self.errors[span] += 1
                if span in ("linalg.det_ring", "linalg.inv_ring"):
                    self.max_n[span] = max(self.max_n[span], len(args[0]))
                elif span == "grassmann.plucker" and result is not None and result:
                    self.nonzero += 1

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _laurent_inverse(args, kwargs, result, exc):
        """Exact path: the inverse comes back with no window."""
        if result is not None:
            exact = result.trunc is None
        else:
            exact = args[0].trunc is None and kwargs.get("window", args[1] if len(args) > 1 else None) is None
        return "laurent.inverse_exact" if exact else "laurent.inverse_windowed"

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, modules):
        for namespace in [grasstau, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)

    def install(self) -> "Tracer":
        mods = _modules()
        for name, (mod, fn) in FUNCTIONS.items():
            original = getattr(mods[mod], fn)
            self._replace_everywhere(original, self._wrap(name, original), mods)
        ser = mods["serialize"]
        for attr, original in list(vars(ser).items()):
            kind = attr.split("_")[0]
            if kind in ("decode", "encode") and callable(original):
                self._replace_everywhere(original, self._wrap(f"serialize.{kind}", original), mods)
        for name, (mod, cls_name, meth) in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            original = vars(cls)[meth]
            classify = self._laurent_inverse if name == "laurent.inverse" else None
            wrapper = self._wrap(name, original, classify)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, zero where the workload never got there."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in ("linalg.det_ring", "linalg.inv_ring"):
            out[f"{name}.max_n"] = (self.max_n[name], "count")
        out["gamma.factorize.errors"] = (self.errors["gamma.factorize"], "count")
        computed = self.calls["grassmann.plucker"]
        out["grassmann.plucker.nonzero_share"] = (self.nonzero / computed if computed else 0.0, "ratio")
        return out
