"""Independent brute-force oracles used to pin expected values in tests.

Everything here deliberately avoids the package's own evaluation paths:
series sums are exact rational arithmetic or a plain Decimal term loop
(the package sums fixed-point integer terms), powers use ``Decimal.__pow__``,
square roots go through ``decimal.Decimal.sqrt`` or integer ``math.isqrt``.
The paper's replication maps, whose divisions a run's chain of homogeneous
means cancels, are the form each row of a run is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from replica.errors import DomainError
from replica.precision import PrecisionContext


def series_sum_fraction(p: Fraction, q: Fraction, a: Fraction, b: Fraction,
                        z: Fraction, digits: int) -> Fraction:
    """Exact partial sum of sum_k (p)_k(q)_k/((1)_k)^2 (a+bk) z^k.

    Terms are added until the geometric tail bound drops below
    10**-(digits+10); everything is a Fraction, so there is no rounding at
    all until the caller converts.
    """
    assert 0 <= z < 1
    tail_tol = Fraction(1, 10 ** (digits + 10))
    term = Fraction(1)
    total = Fraction(0)
    k = 0
    while True:
        total += term * (a + b * k)
        weight = max(Fraction(1), abs(a) + abs(b) * (k + 1))
        if z == 0 or term * weight * z / (1 - z) * (k + 2) < tail_tol:
            return total
        term *= (p + k) * (q + k) * z / (1 + k) ** 2
        k += 1
        assert k < 10_000_000


def series_sum_decimal(p: Fraction, q: Fraction, a: Decimal, b: Decimal, z: Decimal,
                       ctx) -> Decimal:
    """sum_k (p)_k(q)_k/((1)_k)^2 (a+bk) z^k alone, in Decimal at ``ctx``'s precision.

    Each term is the previous one times z (p+k)(q+k)/(1+k)^2, every operation
    rounded to working precision, until
    |term_k| max(1, |a|+|b|k) |z|/(1-|z|) (1+k) < 10**-working, for -1 < z < 1.
    The roundings cost the last two or three of the working digits, so tests run
    it at 40 digits above the context they check.
    """
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    with ctx.local():
        tol = ctx.epsilon()
        zfac = abs(z) / (1 - abs(z))
        abs_a, abs_b = abs(a), abs(b)
        term, total, k = Decimal(1), Decimal(0), 0
        while True:
            total += term * (a + b * k)
            if abs(term) * max(1, abs_a + abs_b * k) * zfac * (1 + k) < tol:
                return +total
            term = term * z * ((pn + k * pd) * (qn + k * qd)) / (pd * qd * (1 + k) ** 2)
            k += 1


@dataclass(frozen=True)
class ReplicatedCoefficients:
    """The (alpha, beta) pair produced by a replication map; beta is 0 iff b is 0."""

    alpha: Decimal
    beta: Decimal


def _check_t(t: Decimal) -> None:
    if t < 0 or t >= 1:
        raise DomainError(f"t must lie in [0, 1), got {t}")


def quad_replicate(a: Decimal, b: Decimal, t: Decimal, ctx: PrecisionContext) -> ReplicatedCoefficients:
    """alpha = a(1+t) + b t(1+t)/(1-t), beta = 2b (1+t)^2/(1-t)."""
    _check_t(t)
    with ctx.local():
        opt = 1 + t
        omt = 1 - t
        alpha = a * opt + b * t * opt / omt
        beta = 2 * b * opt * opt / omt
        return ReplicatedCoefficients(alpha, beta)


def cubic_replicate(a: Decimal, b: Decimal, t: Decimal, ctx: PrecisionContext) -> ReplicatedCoefficients:
    """alpha = a(1+2t) + 2b t(1+2t)(1-t^3)/(1-t)^3, beta = 3b (1-t^3)(1+2t)^2/(1-t)^3."""
    _check_t(t)
    with ctx.local():
        f = 1 + 2 * t
        omt = 1 - t
        omt3 = omt * omt * omt  # computed once, reused by both coefficients
        num = 1 - t * t * t
        alpha = a * f + 2 * b * t * f * num / omt3
        beta = 3 * b * num * f * f / omt3
        return ReplicatedCoefficients(alpha, beta)


def quartic_replicate(a: Decimal, b: Decimal, t: Decimal, ctx: PrecisionContext) -> ReplicatedCoefficients:
    """alpha = a(1+t)^2 + 2b t(1+t^2)(1+t)^2/(1-t)^3, beta = 4b (1+t^2)(1+t)^3/(1-t)^3."""
    _check_t(t)
    with ctx.local():
        opt = 1 + t
        opt2 = opt * opt
        omt = 1 - t
        omt3 = omt * omt * omt
        s2 = 1 + t * t
        alpha = a * opt2 + 2 * b * t * s2 * opt2 / omt3
        beta = 4 * b * s2 * opt2 * opt / omt3
        return ReplicatedCoefficients(alpha, beta)


#: order -> replication map
REPLICATE = {2: quad_replicate, 3: cubic_replicate, 4: quartic_replicate}


def reference_context(ctx):
    """``ctx`` with 40 more guard digits, at which :func:`series_sum_decimal` is exact
    to ``ctx``'s working precision."""
    return PrecisionContext(ctx.target_digits, ctx.guard_digits + 40)


def invariant_decimal(s: Fraction, w: Fraction, a: Decimal, b: Decimal, z: Decimal,
                      ctx) -> Decimal:
    """S(1, 0; z)**w * S(a, b; z) with Pochhammer pair (s, 1 - s), at ``ctx``'s precision:
    each series alone by :func:`series_sum_decimal`, the power by ``Decimal.__pow__``."""
    s0 = series_sum_decimal(s, 1 - s, Decimal(1), Decimal(0), z, ctx)
    weighted = series_sum_decimal(s, 1 - s, a, b, z, ctx)
    with ctx.local():
        return s0 ** (Decimal(w.numerator) / w.denominator) * weighted


def assert_invariant_accurate(got: Decimal, want: Decimal, w: Fraction, ctx) -> None:
    """``got``, a value of A = S(1, 0)**w * S(a, b) at ``ctx``, against ``want`` from
    :func:`invariant_decimal` 40 digits higher: W - 1 matching significant digits at
    w = 0, else within pow_rational's relative bound (|p| + 3) 10**(1 - W) for
    w = p/q plus one ulp of ``got``."""
    with localcontext() as c:
        c.prec = ctx.working_digits + 40
        err = abs(got - want)
        if w == 0:
            matching = want.adjusted() - err.adjusted() if err else ctx.working_digits
            assert matching >= ctx.working_digits - 1, (got, want)
            return
        bound = ((abs(w.numerator) + 3) * ctx.epsilon(1) * abs(want)
                 + Decimal(1).scaleb(got.adjusted() + 1 - ctx.working_digits))
        assert err <= bound, (got, want, w)


def fraction_to_decimal(x: Fraction, digits: int) -> Decimal:
    with localcontext() as c:
        c.prec = digits
        return Decimal(x.numerator) / Decimal(x.denominator)


def decimal_sqrt(x: Decimal | int | str, digits: int) -> Decimal:
    """Square root through the stdlib decimal implementation (not ours)."""
    with localcontext() as c:
        c.prec = digits
        return Decimal(x).sqrt()


def isqrt_sqrt(n: int, digits: int) -> Decimal:
    """sqrt(n) for integer n via math.isqrt on a scaled integer."""
    scaled = math.isqrt(n * 10 ** (2 * digits))
    with localcontext() as c:
        c.prec = digits + 10
        return Decimal(scaled).scaleb(-digits)


def sig_digits_reference(x: Decimal, n: int) -> str:
    """The first ``n`` significant digits of x truncated toward zero, in the form
    ``to_sig_digits`` prints: positional when -6 <= e(x) <= n + 6, else
    ``d.ddde<e(x)>``.

    Built from ``x.as_tuple()`` by integer arithmetic and string slicing alone,
    with no ``quantize``, no ``format`` and no decimal context.
    """
    if x == 0:
        return "0"
    sign, digits, exp = x.as_tuple()
    coefficient = int("".join(map(str, digits)))
    length = len(str(coefficient))
    adjusted = exp + length - 1
    if length >= n:
        coefficient //= 10 ** (length - n)
    else:
        coefficient *= 10 ** (n - length)
    digs = str(coefficient)
    prefix = "-" if sign else ""
    if not -6 <= adjusted <= n + 6:
        return f"{prefix}{digs[0]}.{digs[1:]}e{adjusted}"
    point = adjusted + 1  # digits before the decimal point
    if point <= 0:
        return prefix + "0." + "0" * -point + digs
    if point >= n:
        return prefix + digs + "0" * (point - n)
    return prefix + digs[:point] + "." + digs[point:]


def near_degenerate_perimeter(a: str, b: str, digits: int) -> Decimal:
    """4a[1 + (k^2/2)(ln(4/k) - 1/2)] with k = b/a, at ``digits`` digits: the
    perimeter of an ellipse with semi-axes a >= b up to a remainder of order
    k^4 ln(1/k) relative (DLMF 19.12, the expansion of E about k' = 0), by
    ``Decimal.ln``."""
    with localcontext() as c:
        c.prec = digits
        c.Emin, c.Emax = -(10**9), 10**9
        a, k = Decimal(a), Decimal(b) / Decimal(a)
        return 4 * a * (1 + k * k / 2 * ((4 / k).ln() - Decimal("0.5")))
