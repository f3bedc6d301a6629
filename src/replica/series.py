"""Certified truncated evaluation of the central hypergeometric-type series.

The generic sum is

    S(a, b; z) = sum_k  (p)_k (q)_k / ((1)_k)^2 * (a + b*k) * z^k,      0 <= z < 1,

with Pochhammer parameters p, q in (0, 1].  Because the coefficient ratio
(p+k)(q+k)/(1+k)^2 is below 1 and increases toward 1, successive terms decay
at least geometrically with ratio z, which yields the cheap certified tail
bound used by the stopping rule.

This module is the package's independent oracle.  Its one term loop sums
S(1, 0; z) and S(a, b; z) in a single pass, in fixed-point Python ints with z
an exact rational, so each term costs a few multiplications and one division
of a big int by small ones (Brent & Zimmermann, *Modern Computer Arithmetic*
§4.9); the error bound is stated on :func:`_sums`.  With (p, q) = (s, 1 - s)
:func:`invariant` forms A = S(1, 0; z)**w * S(a, b; z), the quantity every
state of a run conserves.  The pi and Gamma limits are A at z = 1/2
(:func:`couple_product`); the ellipse factor is A at w = 0 (:func:`ellipse_factor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, Context, Decimal
from fractions import Fraction

from .errors import DomainError, SlowConvergenceError, UnsupportedParameterError
from .precision import PrecisionContext, Real, pow_rational

#: Couples are wired only for the parameters that have a matching transform.
SUPPORTED_COUPLE_PARAMETERS = (Fraction(1, 2), Fraction(1, 3))

_MAX_TERMS = 2_000_000

#: Digits the fixed-point terms carry beyond the working digits and the size of the
#: weights: they absorb the floor of every term update and keep the stopping rule
#: reachable up to the term cap (see :func:`_sums`).
_TERM_GUARD_DIGITS = 30

# A context that never rounds: scaleb under it only moves the exponent.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


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


def _sums(p: Fraction, q: Fraction, a: Real, b: Real, z: Real | Fraction,
          ctx: PrecisionContext) -> tuple[Real, Real]:
    """S(1, 0; z) and S(a, b; z), summed in one pass of fixed-point integer terms.

    z = zn/zd is taken exactly from its Decimal or Fraction value.  The term
    t_k = (p)_k (q)_k/((1)_k)^2 z^k is the int T_k, scaled by 10**G with
    G = W + E + D: W working digits, E = ``_TERM_GUARD_DIGITS`` and D >= 1 the
    smallest count with |a|, |b| < 10**D.  T_0 = 10**G and

        T_{k+1} = floor(T_k zn (pn + k pd)(qn + k qd) / (zd pd qd (1 + k)^2)).

    The ratio is below 1 and each floor loses less than one unit, so
    T_k <= t_k 10**G < T_k + k.  The loop carries sum T_k and sum k T_k, and stops at
    the first k with

        (T_k + k + 1) max(1, A + B k) z/(1-z) (1 + k)  <  10**(G - W),

    for integer upper bounds A >= |a| and B >= |b|.  That certifies the exact rule
    t_k max(1, |a| + |b| k) z/(1-z) (1+k) < 10**(-W), a geometric majorant of the
    remaining tail including its linear weight; the rule of S(1, 0; z) has 1 in
    place of the max, so it holds by then too.  After K terms each sum is off by
    at most the sum of

    - truncation: 10**(2 - W);
    - floor: sum_k (|a| + |b| k) (t_k 10**G - T_k) 10**(-G), below K(K+1)/2 units
      of 10**(-G) for S(1, 0) and below K(K+1)(K+2)/3 * 10**(-W-E) for S(a, b);
    - rounding: each sum is formed at W + E digits and rounded once to W digits,
      half an ulp, plus 10**(1 - W - E) of |a| S(1, 0) + |b| S(0, 1) from forming it.

    E = 30 is sized by the ``_MAX_TERMS`` cap of 2 000 000.  Up to it the floor
    error stays under 10**(-W-11), and the rule's k + 1 units of slack stay far
    below its threshold while 2 (k+1)^3 z/(1-z) < 10**E, that is for every
    z/(1-z) < 6e10; a larger one needs more terms than the cap, which the up-front
    refusal sees.
    """
    if z < 0:
        raise DomainError("series argument z must be >= 0")
    if z >= 1:
        raise DomainError("series argument z must be < 1")
    if not (a.is_finite() and b.is_finite()):
        raise DomainError("series weights a, b must be finite")
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    exact_z = Fraction(z)
    zn, zd = exact_z.numerator, exact_z.denominator
    # (p)_k (q)_k/(k!)^2 >= p q/k^2, so at every k <= K = _MAX_TERMS the rule's
    # left side is >= p q zfac z^K/K; where that is >= 10 tol, the cap is certain.
    low = Context(prec=20)
    z20 = low.divide(zn, zd)  # also names z in the messages, however long zn and zd are
    if zn and (low.log10(low.divide(zn * pn * qn, (zd - zn) * pd * qd * _MAX_TERMS))
               + _MAX_TERMS * low.log10(z20) > 1 - ctx.working_digits):
        raise SlowConvergenceError(f"series cannot certify in {_MAX_TERMS} terms (z = {z20})")
    abs_a, abs_b = abs(a), abs(b)
    big_a, big_b = (int(x.to_integral_value(ROUND_CEILING)) for x in (abs_a, abs_b))
    shift = _TERM_GUARD_DIGITS + max(1, abs_a.adjusted() + 1, abs_b.adjusted() + 1)
    limit = 10**shift * (zd - zn)
    term = 10 ** (ctx.working_digits + shift)
    s0 = s1 = 0
    k = 0
    while True:
        s0 += term
        s1 += k * term
        # The first comparison, of sizes alone, skips the product while terms are large.
        if term < limit and (term + k + 1) * (max(1, big_a + big_b * k) * zn * (1 + k)) < limit:
            break
        if k >= _MAX_TERMS:
            raise SlowConvergenceError(
                f"series did not certify after {_MAX_TERMS} terms (z = {z20})"
            )
        term = (term * (zn * (pn + k * pd) * (qn + k * qd))
                // (zd * pd * qd * (1 + k) ** 2))
        k += 1
    with ctx.elevated(_TERM_GUARD_DIGITS):
        scaled_s0 = Decimal(s0).scaleb(-ctx.working_digits - shift)
        total = a * scaled_s0 + b * Decimal(s1).scaleb(-ctx.working_digits - shift)
    with ctx.local():
        return +scaled_s0, +total


def evaluate_series(spec: SeriesSpec, ctx: PrecisionContext) -> Real:
    """S(a, b; z), off by at most its truncation, floor and rounding errors, which
    :func:`_sums` bounds: about 10**(2 - working_digits) in all, plus half an ulp."""
    return _sums(spec.p, spec.q, spec.a, spec.b, spec.z, ctx)[1]


def invariant(s: Fraction, w: Fraction, a: Real, b: Real, z: Real | Fraction,
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
        return pow_rational(s0, w, ctx) * weighted


def couple_product(s: Fraction, w: Fraction, ctx: PrecisionContext) -> Real:
    """s0**w * s1, A at z = 1/2 with weight (0, 1): the limit of the (s, w) algorithm.

    s0 = S(1, 0; 1/2) and s1 = S(0, 1; 1/2) are the couple that seeds the algorithms.
    """
    return invariant(s, w, ctx.real(0), ctx.real(1), Fraction(1, 2), ctx)


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

    The perimeter is P(a, b) = 2 pi b ((b/a) F(a, b)); (b/a) F stays of order
    a/b, where b^2 underflows for axes near 1e-500000000000060.  Depends only on
    b/a, hence scale-invariant: z = 1 - b^2/a^2 is formed exactly from the axes,
    as a Fraction.  Arguments z above 0.99 are rejected: the caller should
    switch to the iterative algorithms there.
    """
    check_axes(semi_major, semi_minor)
    # Both axes shifted by a's exponent, so the Fractions carry no power of ten
    # beyond their digits.  b/a < 1/10 (z > 0.99) once b's leading digit sits two
    # places below a's; the exact ratio is not formed then.
    shift = -semi_major.adjusted()
    z = Fraction(1)
    if semi_minor.adjusted() + shift >= -1:
        ratio = (Fraction(semi_minor.scaleb(shift, _EXACT))
                 / Fraction(semi_major.scaleb(shift, _EXACT)))
        z = 1 - ratio * ratio
    if z > Fraction(99, 100):
        raise SlowConvergenceError(
            "1 - b^2/a^2 exceeds 0.99; use the iterative perimeter algorithms"
        )
    return invariant(Fraction(1, 2), Fraction(0), ctx.real(1), ctx.real(2), z, ctx)
