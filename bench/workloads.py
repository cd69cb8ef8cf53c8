"""The four benchmark workloads: timed calls, fixed shape schedules, oracles.

Each workload is a closed loop with one client: the runner takes the next
``Call`` only after the previous one returned.  A ``Call`` holds one timed
operation (``run``) and its oracle (``check``), which the runner evaluates
outside the timed span.  Calls come in sweeps.  A sweep walks a fixed
schedule of input shapes (which field, ring, depth, fringe, radius), and
the seeded generator fills in the coefficients, so two seeds run the same
mix of cheap and expensive shapes.  Shapes are interleaved so that any
prefix of a run keeps roughly the mix of the whole sweep.

Why these workloads:

* ``factor`` runs ``factorize`` on gamma, laurent and scalars only; a
  determinant change must show no gain here.
* ``tau`` runs both tau routes, ``baker`` and ``kp_residual``; the direct
  route's dense minors make it the ``det_ring`` workload.  It never calls
  ``factorize``.
* ``pairing`` is the only workload that runs ``inv_ring`` and
  ``mat_mul_ring`` at size.
* ``cli`` spawns one CLI process per call, so interpreter start, import,
  JSON decoding and encoding are what it measures; a fifth of its payloads
  are refused, so a guard that slows valid payloads shows.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path
from random import Random
from typing import Callable, Iterator

import grasstau
import grasstau.cli
from grasstau import CoeffRing, LaurentElement, MayaDiagram, serialize

from inputs import FIELDS, element, factor_series, pairing_series, scalar, scalar_point


class Call:
    """One timed operation and the oracle that judges its result."""

    __slots__ = ("op", "run", "check")

    def __init__(self, op: str, run: Callable[[], object], check: Callable[[object], bool]):
        self.op = op
        self.run = run
        self.check = check


def _interleave(schedule: list) -> list:
    """Fixed (seed-independent) shuffle, so heavy shapes spread over a sweep."""
    out = list(schedule)
    Random(0).shuffle(out)
    return out


# ----------------------------------------------------------------------
# factor
# ----------------------------------------------------------------------

# Series whose upper wing has a unit coefficient are infinite series;
# factorize then inverts them inside a window of w0 = 2 + (bitlen(d)+3) *
# (r(d^2+d+1)+1) terms.  With d*r >= 3 (w0 >= 72) one such call took
# 0.01-13 s on 2 cores, depending on the coefficients, and a handful of
# them move a run's calls_per_s by more than its bound.  Those cells keep
# a nilpotent upper wing; unit wings run in every cell with d*r <= 2.
UNIT_WING_MAX_DR = 2

FACTOR_SHAPES = _interleave(
    list(itertools.product(("q", "f3", "f5"), (1, 2), (1, 2, 3), (0, 1, 2), (True, False)))
)


class FactorWorkload:
    def __init__(self, rng: Random):
        self.rng = rng

    def warm_up(self) -> None:
        for field, nv, d in itertools.product(("q", "f3", "f5"), (1, 2), (1, 2, 3)):
            ring = CoeffRing(FIELDS[field], nv, d)
            grasstau.factorize(factor_series(Random(0), Random(0), ring, 0, True, False))

    def sweep(self, index: int) -> Iterator[Call]:
        shape = Random(f"factor-shape:{index}")
        for k, (field, nv, d, r, exact) in enumerate(FACTOR_SHAPES):
            ring = CoeffRing(FIELDS[field], nv, d)
            unit_wing = d * r <= UNIT_WING_MAX_DR and (index + k) % 2 == 0
            f = factor_series(self.rng, shape, ring, r, exact, unit_wing)
            yield Call("factorize", lambda f=f: grasstau.factorize(f), lambda g, f=f: factor_ok(f, g))


def factor_ok(f: LaurentElement, g) -> bool:
    """The parts multiply back to f on its window and have canonical shape."""
    one = f.ring.one()
    gm, gp = g.gminus, g.gplus
    return (
        g.as_laurent().same_series(f)
        and g.zpower == f.reduced_valuation()[0]
        and gm.trunc is None
        and gm.coeffs.get(0) == one
        and gp.coeffs.get(0) == one
        and all(e <= 0 and (e == 0 or c.is_nilpotent()) for e, c in gm.coeffs.items())
        and all(e >= 0 for e in gp.coeffs)
        and g.unit.is_unit()
    )


# ----------------------------------------------------------------------
# tau
# ----------------------------------------------------------------------

# (tail depth, degree bound, extra) per point, run over Q and F_5.  Extra
# is "baker:<window>" for a wave series at that window, "kp" for a KP
# residual over Q (needs bound >= 4).  The deep points (depth >= 8) give
# 13 of the 36 calls of a sweep over Q and 10 of 28 over F_5; their
# tau_direct calls are the top sixth of the sweep, so p90 falls inside
# that group rather than on its edge.
TAU_SHAPES = [
    (2, 3, "baker:2"),
    (2, 6, "kp"),
    (3, 4, "baker:4"),
    (3, 5, "kp"),
    (4, 5, "kp"),
    (5, 6, "kp"),
    (6, 3, ""),
    (6, 6, "kp"),
    (8, 5, "kp"),
    (9, 4, "kp"),
    (10, 4, "kp"),
    (11, 3, ""),
    (12, 3, ""),
]
TAU_SCHEDULE = _interleave([(f, *shape) for f in ("q", "f5") for shape in TAU_SHAPES])


class TauWorkload:
    def __init__(self, rng: Random):
        self.rng = rng

    def warm_up(self) -> None:
        # fills schur_polynomial's cache for every (field, bound) in play
        for field in ("q", "f5"):
            pt = scalar_point(Random(0), Random(0), FIELDS[field], 1, 1)
            for bound in sorted({b for _, b, _ in TAU_SHAPES}):
                grasstau.tau_schur(pt, bound)

    def sweep(self, index: int) -> Iterator[Call]:
        shape = Random(f"tau-shape:{index}")
        for field, depth, bound, extra in TAU_SCHEDULE:
            window = int(extra.split(":")[1]) if extra.startswith("baker") else 0
            pt = scalar_point(self.rng, shape, FIELDS[field], depth, top=bound + window)
            got = {}

            def direct(pt=pt, bound=bound, got=got):
                got["tau"] = grasstau.tau_direct(pt, bound)
                return got["tau"]

            yield Call("tau_direct", direct, lambda t: t.constant_term() == t.ring.field.one())
            yield Call(
                "tau_schur",
                lambda pt=pt, bound=bound: grasstau.tau_schur(pt, bound),
                lambda t, got=got: t == got["tau"],
            )
            if window:
                yield Call(
                    "baker",
                    lambda pt=pt, b=bound, w=window: grasstau.baker(pt, b, w),
                    lambda psi, pt=pt, b=bound, w=window: baker_ok(pt, psi, b, w),
                )
            if extra == "kp" and field == "q":
                order = 1 + index % (bound - 3)
                yield Call(
                    "kp_residual",
                    lambda got=got, order=order: grasstau.kp_residual(got["tau"], order),
                    lambda res: res.is_zero(),
                )


def _rank(rows: list[list], field) -> int:
    """Rank by plain Gaussian elimination over Q or F_p."""
    mat = [list(r) for r in rows]
    p = field.char
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col] if p == 0 else pow(mat[rank][col], -1, p)
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                if p:
                    mat[i] = [a % p for a in mat[i]]
        rank += 1
    return rank


def baker_ok(pt, psi, bound: int, window: int) -> bool:
    """z^-1 * psi lies in the point's span, coefficientwise, on the
    exponents [-bound-1, window-1) where every coefficient of psi is exact."""
    field = pt.ring.field
    exps = range(-bound - 1, window - 1)
    zero, one = field.zero(), field.one()
    gens = [[one if x == e else zero for x in exps] for e in range(-pt.tail_depth - 1, -bound - 2, -1)]
    gens += [[c.coeffs.get(e, pt.ring.zero()).constant_term() for e in exps] for c in pt.columns]
    base = _rank(gens, field)
    monos = {m for c in psi.coeffs.values() for m in c.coeffs}
    for mono in monos:
        target = [psi.coeffs.get(e + 1, psi.ring.zero()).coefficient(mono) for e in exps]
        if _rank(gens + [target], field) != base:
            return False
    return psi.trunc == window


# ----------------------------------------------------------------------
# pairing
# ----------------------------------------------------------------------

# Support radius pairs; the matrix window is 2*d*(p1+p2)+1.  Radius 3
# meets radius 1 only: a (3, 3) pair at d = 3 over Q took 4.4 s for one
# call, and a few of those would move a run past its bounds.
PAIR_RADII = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
PAIR_SCHEDULE = _interleave(
    [(f, d, p1, p2) for f in ("q", "f5") for d in (2, 3) for p1, p2 in PAIR_RADII]
)


class PairingWorkload:
    def __init__(self, rng: Random):
        self.rng = rng

    def warm_up(self) -> None:
        for field, d in itertools.product(("q", "f5"), (2, 3)):
            ring = CoeffRing(FIELDS[field], 2, d)
            f = pairing_series(Random(0), Random(0), ring, 1)
            grasstau.commutator_pairing(f, f)

    def sweep(self, index: int) -> Iterator[Call]:
        shape = Random(f"pairing-shape:{index}")
        for field, d, p1, p2 in PAIR_SCHEDULE:
            ring = CoeffRing(FIELDS[field], 2, d)
            f = pairing_series(self.rng, shape, ring, p1)
            g = pairing_series(self.rng, shape, ring, p2)
            got = {}

            def fg(f=f, g=g, got=got):
                got["fg"] = grasstau.commutator_pairing(f, g)
                return got["fg"]

            yield Call("pair_fg", fg, lambda v: v.is_unit())
            yield Call(
                "pair_gf",
                lambda f=f, g=g: grasstau.commutator_pairing(g, f),
                lambda v, got=got: v * got["fg"] == v.ring.one(),
            )


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------


class CliCase:
    """A subcommand, its flags and payload, and the expected outcome.

    ``expect`` computes the in-process library result (JSON-ready) for a
    valid payload; refused payloads carry the expected exit code and kind.
    """

    def __init__(self, sub, flags, payload, expect=None, code=0, kind=None):
        self.sub, self.flags, self.payload = sub, list(flags), payload
        self.expect, self.code, self.kind = expect, code, kind

    def text(self) -> str:
        return self.payload if isinstance(self.payload, str) else json.dumps(self.payload)

    def judge(self, code: int, out: str) -> bool:
        if code != self.code:
            return False
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        if code:
            return doc.get("status") == "error" and doc.get("kind") == self.kind
        want = json.loads(json.dumps(self.expect()))
        return doc.get("status") == "ok" and doc.get("result") == want


def _valid_cases(rng: Random, shape: Random) -> list[CliCase]:
    """One small payload per data-carrying subcommand (13); ``shape`` also
    picks the field, depth, degree, method and partition."""
    S = serialize
    q, f5 = FIELDS["q"], FIELDS["f5"]
    field = shape.choice((q, f5))
    ring = CoeffRing(field, 2, 2)
    qring = CoeffRing(q, 2, 2)
    scalars = CoeffRing(field, 0, 0)
    out = []

    f = factor_series(rng, shape, ring, shape.randint(0, 1), shape.random() < 0.5, False)
    out.append(CliCase("factor", [], {"ring": S.encode_ring(ring), "series": S.encode_laurent(f)},
                       lambda: S.encode_gamma(grasstau.factorize(f))))

    vec = [element(rng, shape, qring, nilpotent=True) for _ in range(2)]
    out.append(CliCase("exp", [], {"ring": S.encode_ring(qring), "coeffs": [S.encode_ring_element(c) for c in vec]},
                       lambda: S.encode_gamma(grasstau.exp_gamma(qring, vec, -1))))

    a = [element(rng, shape, ring, nilpotent=shape.random() < 0.5) for _ in range(2)]
    b = [element(rng, shape, ring, nilpotent=shape.random() < 0.5) for _ in range(2)]
    out.append(CliCase("witt-add", [], {"ring": S.encode_ring(ring), "a": [S.encode_ring_element(c) for c in a],
                                        "b": [S.encode_ring_element(c) for c in b]},
                       lambda: {"sum": [S.encode_ring_element(c) for c in grasstau.witt_add(ring, a, b)]}))

    pts = [element(rng, shape, ring, nilpotent=True) for _ in range(2)]
    out.append(CliCase("abel", [], {"ring": S.encode_ring(ring), "points": [S.encode_ring_element(c) for c in pts]},
                       lambda: {"kind": "wing", "element": S.encode_gamma(grasstau.abel_embed(ring, pts))}))

    depth = shape.randint(1, 3)
    pt = scalar_point(rng, shape, field, depth, top=3)
    ptj = S.encode_point(pt)
    rj = S.encode_ring(scalars)
    out.append(CliCase("index", [], {"ring": rj, "point": ptj}, lambda: {"index": grasstau.index(pt)}))

    lam = shape.choice([(1,), (2,), (1, 1), (2, 1)])
    maya = MayaDiagram.from_partition(lam)
    out.append(CliCase("plucker", [], {"ring": rj, "point": ptj, "diagram": {"partition": list(lam)}},
                       lambda: S.encode_ring_element(grasstau.plucker(pt, maya))))

    vac = MayaDiagram.vacuum()
    out.append(CliCase("transition", [], {"ring": rj, "point": ptj, "chart_a": {"partition": list(lam)},
                                          "chart_b": {"partition": []}},
                       lambda: S.encode_ring_element(grasstau.chart_transition(pt, maya, vac))))

    one = scalars.one()
    g = grasstau.GammaElement.from_parts(
        scalars, unit=scalars.const(scalar(rng, field)),
        gplus=LaurentElement(scalars, {0: one, 1: scalars.const(scalar(rng, field))}))
    out.append(CliCase("act", ["--promote", "1"], {"ring": rj, "gamma": S.encode_gamma(g), "point": ptj},
                       lambda: S.encode_point(grasstau.act(g, pt, promote=1))))

    deg = shape.randint(2, 4)
    method = shape.choice(("both", "direct", "schur"))
    tau_fn = {"both": grasstau.tau_crosscheck, "direct": grasstau.tau_direct, "schur": grasstau.tau_schur}[method]

    def tau_expect(pt=pt, deg=deg, fn=tau_fn):
        t = fn(pt, deg)
        return {"ring": S.encode_ring(t.ring), "tau": S.encode_ring_element(t)}

    out.append(CliCase("tau", ["--deg", str(deg), "--method", method], {"ring": rj, "point": ptj}, tau_expect))

    bpt = scalar_point(rng, shape, field, shape.randint(1, 2), top=4)

    def baker_expect(bpt=bpt):
        psi = grasstau.baker(bpt, 2, 2)
        return {"ring": S.encode_ring(psi.ring), "series": S.encode_laurent(psi)}

    out.append(CliCase("baker", ["--deg", "2", "--window", "2"], {"ring": rj, "point": S.encode_point(bpt)},
                       baker_expect))

    slam = shape.choice([(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)])
    sring = grasstau.coordinate_ring(q, 3)
    out.append(CliCase("schur", ["--deg", "3"], {"partition": list(slam)},
                       lambda: {"ring": S.encode_ring(sring),
                                "polynomial": S.encode_ring_element(grasstau.schur_polynomial(sring, slam))}))

    poly = element(rng, shape, sring, nilpotent=False, max_terms=3)

    def boson_expect(poly=poly):
        coords = grasstau.to_schur_coords(poly)
        return {"coords": [{"partition": list(k), "coeff": q.format(v)} for k, v in sorted(coords.items())]}

    out.append(CliCase("bosonize", [], {"ring": S.encode_ring(sring), "polynomial": S.encode_ring_element(poly)},
                       boson_expect))

    pf, pg = pairing_series(rng, shape, ring, 1), pairing_series(rng, shape, ring, 1)
    out.append(CliCase("pair", [], {"ring": S.encode_ring(ring), "f": S.encode_laurent(pf), "g": S.encode_laurent(pg)},
                       lambda: S.encode_ring_element(grasstau.commutator_pairing(pf, pg))))
    return out


def _refused_cases(rng: Random, shape: Random, index: int) -> list[CliCase]:
    """One malformed (exit 2), one precondition (exit 3) and one precision
    (exit 4) payload; the variant of each rotates from sweep to sweep."""
    S = serialize
    ring = CoeffRing(FIELDS["q"], 1, 2)
    x = ring.gen(0)
    rj = S.encode_ring(ring)
    k = index % 3
    f = factor_series(rng, shape, ring, 1, True, False)
    malformed = [
        CliCase("factor", [], '{"ring": ' + json.dumps(rj) + ', "series": ', code=2, kind="malformed"),
        CliCase("factor", [], {"ring": dict(rj, field="fp:4"), "series": S.encode_laurent(f)}, code=2,
                kind="malformed"),
        CliCase("pair", [], {"ring": rj, "f": S.encode_laurent(f)}, code=2, kind="malformed"),
    ][k]
    nonunit = LaurentElement(ring, {0: x * scalar(rng, ring.field), 1: x})
    pt = scalar_point(rng, shape, FIELDS["q"], 2, top=2)
    precondition = [
        CliCase("factor", [], {"ring": rj, "series": S.encode_laurent(nonunit)}, code=3, kind="precondition"),
        CliCase("exp", [], {"ring": S.encode_ring(CoeffRing(FIELDS["f5"], 1, 2)), "coeffs": []}, code=3,
                kind="precondition"),
        CliCase("transition", [], {"ring": S.encode_ring(pt.ring), "point": S.encode_point(pt),
                                   "chart_a": {"partition": []}, "chart_b": {"partition": [5]}},
                code=3, kind="precondition"),
    ][k]
    tight = LaurentElement(ring, {-1: x, 0: ring.one(), 1: ring.const(scalar(rng, ring.field))}, 2)
    precision = [
        CliCase("factor", [], {"ring": rj, "series": S.encode_laurent(tight)}, code=4, kind="precision"),
        CliCase("exp", ["--sign", "1"], {"ring": rj, "coeffs": [S.encode_ring_element(x)]}, code=4,
                kind="precision"),
        CliCase("tau", ["--deg", "3"], {"ring": S.encode_ring(pt.ring), "point": {
            "tail_depth": 2, "columns": [dict(S.encode_laurent(c), trunc_order=1) for c in pt.columns]}},
                code=4, kind="precision"),
    ][k]
    return [malformed, precondition, precision]


class CliWorkload:
    """Spawns ``python -m grasstau.cli <sub> --in FILE`` one call at a time."""

    CAP_S = 20.0  # per-call wall-clock cap; a capped call fails at this latency

    def __init__(self, rng: Random, env: dict, workdir: Path):
        self.rng = rng
        self.env = env
        self.workdir = workdir
        self.count = itertools.count()
        self.max_rss_kb = 0  # largest child's peak resident set

    def argv(self, case: CliCase) -> list[str]:
        path = self.workdir / f"payload-{next(self.count)}.json"
        path.write_text(case.text())
        return [case.sub, *case.flags, "--in", str(path)]

    def spawn(self, args: list[str]) -> tuple[int, str]:
        """Run one child to completion; a child past the cap is killed and
        reported with exit code -1."""
        with subprocess.Popen([sys.executable, "-m", "grasstau.cli", *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=self.env, text=True) as proc:
            timer = threading.Timer(self.CAP_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return (-1, "") if proc.returncode < 0 else (proc.returncode, out)

    @staticmethod
    def in_process(args: list[str]) -> tuple[int, str]:
        """The same call through ``grasstau.cli.main`` in this process."""
        out = io.StringIO()
        with redirect_stdout(out):
            code = grasstau.cli.main(args)
        return code, out.getvalue()

    def warm_up(self) -> None:
        self.spawn(self.argv(CliCase("schur", ["--deg", "1"], {"partition": [1]})))

    def sweep(self, index: int, in_process: bool = False) -> Iterator[Call]:
        run = self.in_process if in_process else self.spawn
        shape = Random(f"cli-shape:{index}")
        cases = _interleave(_valid_cases(self.rng, shape) + _refused_cases(self.rng, shape, index))
        for case in cases:
            args = self.argv(case)
            yield Call(f"cli_{case.sub}" if not case.code else f"cli_exit{case.code}",
                       lambda args=args: run(args),
                       lambda res, case=case: case.judge(*res))


def make(name: str, seed: int, env: dict, workdir: Path):
    rng = Random(f"{name}:{seed}")
    if name == "cli":
        return CliWorkload(rng, env, workdir)
    return {"factor": FactorWorkload, "tau": TauWorkload, "pairing": PairingWorkload}[name](rng)
