"""Independent brute-force oracles used to pin expected values in tests.

Everything here deliberately avoids the package's own evaluation paths:
series sums are exact rational arithmetic, square roots go through
``decimal.Decimal.sqrt`` or integer ``math.isqrt``.  The one exception is
:func:`series_sum_decimal`, the term loop of ``replica.series`` kept here for
one series at a time, which the package's one-pass sums must equal bit for bit.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction


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

    The same operations, in the same order, as the package's term loop, with
    the same stopping rule: term_k max(1, |a|+|b|k) z/(1-z) (1+k) < 10**-working.
    """
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    with ctx.local():
        tol = ctx.epsilon()
        zfac = z / (1 - z)
        abs_a, abs_b = abs(a), abs(b)
        term, total, k = Decimal(1), Decimal(0), 0
        while True:
            total += term * (a + b * k)
            if term * max(1, abs_a + abs_b * k) * zfac * (1 + k) < tol:
                return +total
            term = term * z * ((pn + k * pd) * (qn + k * qd)) / (pd * qd * (1 + k) ** 2)
            k += 1


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
