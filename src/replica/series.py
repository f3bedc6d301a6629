"""Certified truncated evaluation of the central hypergeometric-type series.

The generic sum is

    S = sum_k  (p)_k (q)_k / ((1)_k)^2 * (a + b*k) * z^k,      0 <= z < 1,

with Pochhammer parameters p, q in (0, 1].  Because the coefficient ratio
(p+k)(q+k)/(1+k)^2 is below 1 and increases toward 1, successive terms decay
at least geometrically with ratio z, which yields the cheap certified tail
bound used by the stopping rule.

This module is the package's independent oracle: initial values and limits
of the iterative algorithms, identity checks, and the ellipse perimeter all
reduce to evaluations of S.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import (
    DivergenceError,
    DomainError,
    SlowConvergenceError,
    UnsupportedParameterError,
)
from .precision import PrecisionContext, Real, rat_pow

#: Couples are wired only for the parameters that have a matching transform.
SUPPORTED_COUPLE_PARAMETERS = (Fraction(1, 2), Fraction(1, 3))

_MAX_TERMS = 2_000_000


@dataclass(frozen=True)
class SeriesSpec:
    """One evaluation request: sum_k (p)_k(q)_k/((1)_k)^2 (a + b k) z^k."""

    p: Fraction
    q: Fraction
    a: Real
    b: Real
    z: Real

    def __post_init__(self):
        if not (0 < self.p <= 1 and 0 < self.q <= 1):
            raise UnsupportedParameterError("Pochhammer parameters must lie in (0, 1]")


@dataclass(frozen=True)
class CoupleValues:
    """Values of the weight-(1,0) and weight-(0,1) series at z = 1/2."""

    s0: Real
    s1: Real


def evaluate_series(spec: SeriesSpec, ctx: PrecisionContext) -> Real:
    """Sum the series with absolute truncation error <= 10**(-working_digits+2).

    Terms follow the recurrence term_{k+1} = term_k * (p+k)(q+k)/(1+k)^2 * z.
    Summation stops once

        term_k * max(1, |a| + |b| k) * z/(1-z) * (1+k)  <  10**(-working_digits),

    a geometric majorant of the remaining tail including its linear weight.
    """
    z = spec.z
    if z < 0:
        raise DomainError("series argument z must be >= 0")
    if z >= 1:
        raise DivergenceError("series argument z must be < 1")
    pn, pd = spec.p.numerator, spec.p.denominator
    qn, qd = spec.q.numerator, spec.q.denominator
    with ctx.local():
        tol = ctx.epsilon()
        zfac = z / (1 - z)
        abs_a, abs_b = abs(spec.a), abs(spec.b)
        one = Decimal(1)
        term = one
        total = Decimal(0)
        k = 0
        while True:
            total += term * (spec.a + spec.b * k)
            weight_bound = abs_a + abs_b * k
            if weight_bound < one:
                weight_bound = one
            if term * weight_bound * zfac * (1 + k) < tol:
                return +total
            if k >= _MAX_TERMS:
                raise SlowConvergenceError(
                    f"series did not certify after {_MAX_TERMS} terms (z = {z})"
                )
            num = (pn + k * pd) * (qn + k * qd)
            den = pd * qd * (1 + k) ** 2
            term = term * z * num / den
            k += 1


def pochhammer_pair(s: Fraction) -> tuple[Fraction, Fraction]:
    """The (p, q) = (s, 1-s) parameter pair of the couple family."""
    if s not in SUPPORTED_COUPLE_PARAMETERS:
        raise UnsupportedParameterError(
            f"couple parameter must be one of {SUPPORTED_COUPLE_PARAMETERS}, got {s}"
        )
    return s, 1 - s


def ramanujan_couple(s: Fraction, ctx: PrecisionContext) -> CoupleValues:
    """The two series values at z = 1/2 that seed the algorithms.

    s0 carries weight (1, 0) and s1 weight (0, 1); s in {1/2, 1/3}.
    """
    p, q = pochhammer_pair(s)
    half = Fraction(1, 2)
    s0 = evaluate_series(SeriesSpec(p, q, ctx.real(1), ctx.real(0), ctx.real(half)), ctx)
    s1 = evaluate_series(SeriesSpec(p, q, ctx.real(0), ctx.real(1), ctx.real(half)), ctx)
    return CoupleValues(s0=s0, s1=s1)


def couple_product(s: Fraction, w: Fraction, ctx: PrecisionContext) -> Real:
    """s0**w * s1: the limit toward which the (s, w) algorithm converges."""
    couple = ramanujan_couple(s, ctx)
    if w == 0:
        return couple.s1
    with ctx.local():
        return rat_pow(couple.s0, w, ctx) * couple.s1


def check_axes(semi_major: Real, semi_minor: Real) -> None:
    """Raise DomainError unless 0 < semi_minor <= semi_major (the ellipse's domain)."""
    if semi_minor <= 0:
        raise DomainError("semi-minor axis must be > 0")
    if semi_minor > semi_major:
        raise DomainError("need semi_minor <= semi_major")


def ellipse_factor(semi_major: Real, semi_minor: Real, ctx: PrecisionContext) -> Real:
    """F(a, b) = sum_k ((1/2)_k)^2/((1)_k)^2 (1+2k) (1 - b^2/a^2)^k.

    The perimeter is P(a, b) = (2 pi b^2 / a) * F(a, b).  Depends only on
    b/a, hence scale-invariant.  Arguments z above 0.99 are rejected: the
    caller should switch to the iterative algorithms there.
    """
    check_axes(semi_major, semi_minor)
    with ctx.local():
        ratio = semi_minor / semi_major
        z = 1 - ratio * ratio
        if z > Decimal("0.99"):
            raise SlowConvergenceError(
                "1 - b^2/a^2 exceeds 0.99; use the iterative perimeter algorithms"
            )
        half = Fraction(1, 2)
        spec = SeriesSpec(half, half, ctx.real(1), ctx.real(2), z)
        return evaluate_series(spec, ctx)
