"""Certified truncated evaluation of the central hypergeometric-type series.

The generic sum is

    S(a, b; z) = sum_k  (p)_k (q)_k / ((1)_k)^2 * (a + b*k) * z^k,      0 <= z < 1,

with Pochhammer parameters p, q in (0, 1].  Because the coefficient ratio
(p+k)(q+k)/(1+k)^2 is below 1 and increases toward 1, successive terms decay
at least geometrically with ratio z, which yields the cheap certified tail
bound used by the stopping rule.

This module is the package's independent oracle.  Its one term loop sums
S(1, 0; z) and S(a, b; z) in a single pass, and with (p, q) = (s, 1 - s)
:func:`invariant` forms A = S(1, 0; z)**w * S(a, b; z), the quantity every
state of a run conserves.  The pi and Gamma limits are A at z = 1/2
(:func:`couple_product`); the ellipse factor is A at w = 0 (:func:`ellipse_factor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
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


def _sums(p: Fraction, q: Fraction, a: Real, b: Real, z: Real,
          ctx: PrecisionContext) -> tuple[Real, Real]:
    """S(1, 0; z) and S(a, b; z), summed in one pass over the terms.

    Terms follow the recurrence term_{k+1} = term_k * (p+k)(q+k)/(1+k)^2 * z.
    Summation stops once

        term_k * max(1, |a| + |b| k) * z/(1-z) * (1+k)  <  10**(-working_digits),

    a geometric majorant of the remaining tail including its linear weight.
    The rule of S(1, 0; z) has 1 in place of the max, so it holds by then
    too: each sum has absolute truncation error <= 10**(-working_digits+2).
    """
    if z < 0:
        raise DomainError("series argument z must be >= 0")
    if z >= 1:
        raise DivergenceError("series argument z must be < 1")
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    with ctx.local():
        tol = ctx.epsilon()
        zfac = z / (1 - z)
        # (p)_k (q)_k/(k!)^2 >= p q/k^2, so at every k <= K = _MAX_TERMS the rule's
        # left side is >= p q zfac z^K/K; where that is >= 10 tol, the cap is certain.
        low = Context(prec=20)
        if z > 0 and (low.log10(zfac * pn * qn / (pd * qd * _MAX_TERMS))
                      + _MAX_TERMS * low.log10(z) > 1 - ctx.working_digits):
            raise SlowConvergenceError(f"series cannot certify in {_MAX_TERMS} terms (z = {z})")
        abs_a, abs_b = abs(a), abs(b)
        term = Decimal(1)
        s0 = total = Decimal(0)
        k = 0
        while True:
            s0 += term
            total += term * (a + b * k)
            if term * max(1, abs_a + abs_b * k) * zfac * (1 + k) < tol:
                return +s0, +total
            if k >= _MAX_TERMS:
                raise SlowConvergenceError(
                    f"series did not certify after {_MAX_TERMS} terms (z = {z})"
                )
            num = (pn + k * pd) * (qn + k * qd)
            den = pd * qd * (1 + k) ** 2
            term = term * z * num / den
            k += 1


def evaluate_series(spec: SeriesSpec, ctx: PrecisionContext) -> Real:
    """S(a, b; z) with absolute truncation error <= 10**(-working_digits+2)."""
    return _sums(spec.p, spec.q, spec.a, spec.b, spec.z, ctx)[1]


def invariant(s: Fraction, w: Fraction, a: Real, b: Real, z: Real,
              ctx: PrecisionContext) -> Real:
    """A = S(1, 0; z)**w * S(a, b; z) with Pochhammer pair (s, 1 - s), s in {1/2, 1/3}."""
    if s not in SUPPORTED_COUPLE_PARAMETERS:
        raise UnsupportedParameterError(
            f"couple parameter must be one of {SUPPORTED_COUPLE_PARAMETERS}, got {s}"
        )
    s0, weighted = _sums(s, 1 - s, a, b, z, ctx)
    w = Fraction(w)
    if w == 0:
        return weighted
    with ctx.local():
        return rat_pow(s0, w, ctx) * weighted


def couple_product(s: Fraction, w: Fraction, ctx: PrecisionContext) -> Real:
    """s0**w * s1, A at z = 1/2 with weight (0, 1): the limit of the (s, w) algorithm.

    s0 = S(1, 0; 1/2) and s1 = S(0, 1; 1/2) are the couple that seeds the algorithms.
    """
    return invariant(s, w, ctx.real(0), ctx.real(1), ctx.real(Fraction(1, 2)), ctx)


def check_axes(semi_major: Real, semi_minor: Real) -> None:
    """Raise DomainError unless the axes are finite and 0 < semi_minor <= semi_major
    (the ellipse's domain)."""
    if not (semi_major.is_finite() and semi_minor.is_finite()):
        raise DomainError("axes must be finite decimals")
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
    return invariant(Fraction(1, 2), Fraction(0), ctx.real(1), ctx.real(2), z, ctx)
