"""Seeded input generators for the benchmark workloads.

These are the benchmark's own generators: they do not import the private
helpers of ``grasstau.verify``, so refactoring the verify suites cannot
change what the benchmark measures.  Every generator draws only from the
two ``random.Random`` it is given: ``rng``, seeded by the workload seed,
gives the field values, and ``shape``, seeded by the sweep index alone,
gives everything else (which monomials and exponents carry a term, the
valuation, the window).  With the ring, depth, fringe width and support
radius from a fixed schedule in ``workloads.py``, two seeds differ in
coefficients, not in the mix of cheap and expensive inputs.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from grasstau import GF, QQ, CoeffRing, GrassPoint, LaurentElement, RingElement

FIELDS = {"q": QQ, "f3": GF(3), "f5": GF(5)}


def scalar(rng: Random, field) -> object:
    """A nonzero field value; over Q a small fraction with denominator 1-3."""
    if field.char == 0:
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 1, 2, 3)))
    return rng.randrange(1, field.char)


def element(rng: Random, shape: Random, ring: CoeffRing, nilpotent: bool, max_terms: int = 2) -> RingElement:
    """A nonzero ring element with 1..max_terms terms; nilpotent means no
    constant term (needs a variable of weight <= the degree bound)."""
    monos = [m for m in ring.monomials() if not nilpotent or ring.weight(m) > 0]
    while True:
        coeffs = {shape.choice(monos): scalar(rng, ring.field) for _ in range(shape.randint(1, max_terms))}
        out = ring.element(coeffs)
        if out:
            return out


def unit(rng: Random, shape: Random, ring: CoeffRing) -> RingElement:
    """A nonzero constant, plus a nilpotent part half of the time."""
    out = ring.const(scalar(rng, ring.field))
    if ring.degree_bound and ring.num_vars and shape.random() < 0.5:
        out = out + element(rng, shape, ring, nilpotent=True)
    return out


def factor_series(
    rng: Random, shape: Random, ring: CoeffRing, fringe: int, exact: bool, unit_wing: bool
) -> LaurentElement:
    """An invertible series with reduced valuation n in [-2, 2] and a
    nilpotent fringe of width exactly ``fringe`` below z^n.

    Above z^n sit up to three terms; with ``unit_wing`` the one at
    z^(n+1) is a unit, which makes the upper wing an infinite series.
    Windowed series stop 2-4 exponents above the precision floor
    n + d*fringe.
    """
    n = shape.randint(-2, 2)
    coeffs = {n: unit(rng, shape, ring)}
    for k in range(1, fringe + 1):
        if k == fringe or shape.random() < 0.7:
            coeffs[n - k] = element(rng, shape, ring, nilpotent=True)
    for e in range(n + 1, n + 4):
        if unit_wing and e == n + 1:
            coeffs[e] = unit(rng, shape, ring)
        elif ring.degree_bound and shape.random() < 0.6:
            coeffs[e] = element(rng, shape, ring, nilpotent=True)
    if exact:
        return LaurentElement(ring, coeffs)
    return LaurentElement(ring, coeffs, n + ring.degree_bound * fringe + shape.randint(2, 4))


def scalar_point(rng: Random, shape: Random, field, depth: int, top: int) -> GrassPoint:
    """A point in the vacuum chart over the base field: one column per
    tail slot with a 1 on the diagonal and, above it up to z^top, random
    entries each present with probability 0.6."""
    ring = CoeffRing(field, 0, 0)
    cols = []
    for j in range(depth, 0, -1):
        coeffs = {-j: ring.one()}
        for e in range(-j + 1, top + 1):
            if shape.random() < 0.6:
                coeffs[e] = ring.const(scalar(rng, field))
        cols.append(LaurentElement(ring, coeffs))
    return GrassPoint(ring, depth, cols)


def pairing_series(rng: Random, shape: Random, ring: CoeffRing, radius: int) -> LaurentElement:
    """1 + nilpotent terms at every exponent in [-radius, radius]: valuation
    0 and support radius exactly ``radius``.  One monomial per coefficient
    keeps the cost of a call close to what its shape predicts."""
    coeffs = {e: element(rng, shape, ring, nilpotent=True, max_terms=1) for e in range(-radius, radius + 1)}
    coeffs[0] = coeffs[0] + ring.one()
    return LaurentElement(ring, coeffs)
