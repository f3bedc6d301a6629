"""Arbitrary-precision real arithmetic in decimal digits.

Every quantity in this package is a ``decimal.Decimal`` handled under a
``PrecisionContext`` that fixes the working precision (in decimal digits,
never bits).  Field operations inherit their rounding from the stdlib
``decimal`` module.  Roots and rational powers x**(p/q) need no exp/log: for
q > 1 each is one call to a single Newton kernel (Brent & Zimmermann, *Modern
Computer Arithmetic* §4.2), the division-free inverse-root step
y += y*(1 - X*y**q)/q from a float seed y ~ X**(-1/q) of X = x**|p|, at
precisions that about double per step.  For p < 0 the power is y, taken up to
the elevated working precision P.  For p > 0, every root among them, y and
r = X*y**(q-1) are taken at about P/2 digits and one correction at P digits,
r += y**(q-1)*(X - r**q)/q, finishes r (Karp & Markstein, ACM TOMS 23, 1997):
the full-precision work is then r**q and products of half-length operands.
The error bounds are stated on :func:`nth_root` and :func:`pow_rational`.
Quotients at full precision (the one of a cubic step, a run's value and a
trace row's d_n and a_n, 1/X for q = 1 and p < 0, and a perimeter run's
c_0) take :func:`quotient`:
below ``_QUOTIENT_CROSSOVER`` digits decimal's long division, from there up
the same kernel at q = 1, a reciprocal at about P/2 digits and one
correction at P digits.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, UnsupportedParameterError

# A "Real" is a plain Decimal; its precision is whatever context produced it.
Real = Decimal

# Exponent range far beyond any digit count this tool is asked for, so the
# tiny deltas of a converged run never underflow to subnormals.
_EMAX = 10**15

#: Denominators q of the exponents p/q that :func:`pow_rational` takes, and of w.
SUPPORTED_DENOMINATORS = (1, 2, 3, 4, 6, 12)

MIN_GUARD_DIGITS = 32
#: Guard digits per step of the budget: each step loses a bounded number of digits to rounding.
GUARD_DIGITS_PER_STEP = 8

# Digits above working precision at which roots and rational powers are taken.
_ROOT_EXTRA_DIGITS = 10

# Correct digits the float seed of a root is trusted to: a double carries
# 15.9, less the rounding of the float conversion and of ``**``.
_SEED_DIGITS = 14


def step_budget(target_digits: int, order: int) -> int:
    """Steps a run of the given order is allowed: ceil(log_order(target_digits)) + 3,
    since correct digits multiply by ``order`` per step."""
    if order not in (2, 3, 4):
        raise UnsupportedParameterError("algorithm_order must be 2, 3 or 4")
    # Integer form of ceil(log(target)/log(order)); exact, unlike float logs.
    k = 0
    while order**k < target_digits:
        k += 1
    return k + 3


@dataclass(frozen=True)
class PrecisionContext:
    """The precision of one computation.

    ``working_digits = target_digits + guard_digits``; the guard absorbs the
    rounding loss of the whole downstream computation so that the first
    ``target_digits`` digits of any result are exact.
    """

    target_digits: int
    guard_digits: int

    def __post_init__(self):
        if self.target_digits < 1:
            raise DomainError("target_digits must be >= 1")
        if self.guard_digits < MIN_GUARD_DIGITS:
            raise DomainError(f"guard_digits must be >= {MIN_GUARD_DIGITS}")

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    @cached_property
    def _decimal_context(self) -> decimal.Context:
        return decimal.Context(
            prec=self.working_digits,
            rounding=decimal.ROUND_HALF_EVEN,
            Emin=-_EMAX,
            Emax=_EMAX,
        )

    def local(self):
        """Context manager installing this precision as the thread's decimal context."""
        return localcontext(self._decimal_context)

    def elevated(self, extra_digits: int):
        """Like :meth:`local` but with ``extra_digits`` more working digits."""
        c = self._decimal_context.copy()
        c.prec = self.working_digits + extra_digits
        return localcontext(c)

    def real(self, value: int | str | Decimal | Fraction) -> Real:
        """Convert ``value`` to a Real at working precision.

        Floats are rejected on purpose: decimal inputs must arrive as exact
        strings or rationals, never through hardware floating point.  A nonzero
        value that would round to a subnormal or to zero raises :class:`DomainError`.
        """
        if isinstance(value, float):
            raise TypeError("floats are not accepted; pass a str, int, Fraction or Decimal")
        with self.local() as c:
            result = (Decimal(value.numerator) / Decimal(value.denominator)
                      if isinstance(value, Fraction) else +Decimal(value))
            if c.flags[decimal.Subnormal]:
                raise DomainError(f"{value} is out of range (nonzero and below 1e-{_EMAX})")
            return result

    def epsilon(self, shift: int = 0) -> Real:
        """10**(-working_digits + shift) as an exact Decimal."""
        return Decimal(1).scaleb(shift - self.working_digits)

    def doubled_guard(self) -> "PrecisionContext":
        """Same target, twice the guard (for stability reruns)."""
        return replace(self, guard_digits=2 * self.guard_digits)


def make_context(target_digits: int, algorithm_order: int) -> PrecisionContext:
    """``target_digits`` with ``MIN_GUARD_DIGITS`` plus 8 guard digits per step of
    :func:`step_budget`; runs may compute at a larger context (see ``RunResult.ctx``).
    """
    budget = step_budget(target_digits, algorithm_order)
    return PrecisionContext(target_digits, MIN_GUARD_DIGITS + GUARD_DIGITS_PER_STEP * budget)


def _float_seed(x: Real, n: int) -> Real:
    """Hardware-precision estimate of x**(-1/n), robust to any decimal exponent."""
    e = x.adjusted()
    q, r = divmod(e, n)
    # x = m * 10**(n*q + r) with 1 <= m < 10, so x**(-1/n) = (m*10**r)**(-1/n) * 10**-q.
    mantissa = float(x.scaleb(-e)) * 10.0**r
    return Decimal(repr(mantissa ** (-1.0 / n))).scaleb(-q)


def _newton_schedule(prec: int) -> list[int]:
    """Precisions of the Newton steps of a root at ``prec`` digits, last step first.

    Each step roughly doubles the correct digits, so a step at ``p`` digits
    needs an input good to ``p // 2 + 2``; the halving stops once the float
    seed's digits cover a step (``p <= 2 * _SEED_DIGITS``).
    """
    schedule = [prec]
    while schedule[-1] > 2 * _SEED_DIGITS:
        schedule.append(schedule[-1] // 2 + 2)
    return schedule


def _inverse_root(x: Real, n: int) -> Real:
    """x**(-1/n) for x > 0 (any x != 0 when n = 1) at the ambient (already
    elevated) decimal context.

    Each step y += y*(1 - x*y**n)/n at most squares the relative error (times
    (n+1)/2), so the steps run at the precisions of :func:`_newton_schedule`,
    with ``x`` rounded to each, and only the last one at full precision.
    """
    y = _float_seed(x, n)
    with localcontext() as step:
        for prec in reversed(_newton_schedule(step.prec)):
            step.prec = prec
            y += y * (1 - +x * y**n) / n
    return y


# Working digits from which :func:`quotient` takes the Newton reciprocal.
_QUOTIENT_CROSSOVER = 10_000


def quotient(num: Real, den: Real) -> Real:
    """num / den for den != 0 at the ambient decimal context of P digits.

    Below ``_QUOTIENT_CROSSOVER`` digits this is ``num / den``, correctly
    rounded.  From there up, y ~ 1/den (:func:`_inverse_root` with n = 1)
    and q = num*y are taken at H = P // 2 + 2 digits, and one correction at
    P digits finishes q (Karp & Markstein, ACM TOMS 23, 1997):

        q -= y * (den*q - num),

    the residual being one fused multiply-add rounded once, to H digits.  If
    y = (1 + f)/den and q = (num/den)(1 + e), the corrected q is
    (num/den)(1 - e*f) plus the roundings.  |f| is at most 1.6 and |e| 2.1
    units of 10**(1 - H) (both under 0.9 measured) and 2H >= P + 3, so e*f
    stays below 0.034 * 10**(1 - P), the roundings of the residual and of
    its product with y below 0.021 * 10**(1 - P) together, and the final
    subtraction adds half a unit in the last place: the relative error is
    at most 0.56 * 10**(1 - P), against 0.5 * 10**(1 - P) for ``num / den``.

    The crossover is where H passes 4 864 digits (256 words), below which
    libmpdec multiplies by a quadratic base case.  Per call, best of 5, on
    operands of P digits (2 vCPU, Python 3.11.7, libmpdec 2.5.1, shared
    machine):

        P        num / den   quotient   quotient / (num / den)
        1 000     0.033 ms    0.087 ms   2.6
        5 000     0.70 ms     1.37 ms    1.95
        9 600     2.69 ms     5.05 ms    1.88
        9 800     2.65 ms     2.16 ms    0.81
        10 000    2.71 ms     1.94 ms    0.71
        13 337    4.77 ms     4.06 ms    0.85
        20 100    8.27 ms     4.47 ms    0.54
        100 000  48.4 ms     26.3 ms     0.54
    """
    prec = decimal.getcontext().prec
    if prec < _QUOTIENT_CROSSOVER:
        return num / den
    with localcontext() as half:
        half.prec = prec // 2 + 2
        y = _inverse_root(den, 1)
        q = num * y
        correction = y * den.fma(q, num.copy_negate())
    return q - correction


def _power(x: Real, p: int, q: int, ctx: PrecisionContext) -> Real:
    """x**(p/q) for x > 0 and p != 0, from X = x**|p| at P = working precision
    + ``_ROOT_EXTRA_DIGITS`` digits: X or :func:`quotient` (1, X) for q = 1,
    else one inverse root y = X**(-1/q).

    For p < 0 the power is y, taken at P digits.  For p > 0, y and
    r = X*y**(q-1) are taken at H = P // 2 + 2 digits, whose Newton schedule
    is that of P without its last step, and one correction at P digits
    finishes r in place of that step:

        r += y**(q-1) * (X - r**q) / q.

    If r = X**(1/q) * (1 + e) and y**(q-1) = X**((1-q)/q) * (1 + f), the
    corrected r is X**(1/q) * (1 - (q-1)/2 * e**2 - e*f + O(e**3)).  |e| and
    |f| are a few units in the H-th digit and 2H >= P + 3, so what is left is
    a fraction of a unit in the P-th digit, as after a last Newton step.  The
    correction costs r**q from an H-digit r and products of H-digit by
    (P - H)-digit operands, where the last step cost several P-digit products.
    """
    with ctx.elevated(_ROOT_EXTRA_DIGITS) as full:
        big = x ** abs(p)
        if q == 1:
            r = big if p > 0 else quotient(Decimal(1), big)
        elif p < 0:
            r = _inverse_root(big, q)
        else:
            with localcontext() as half:
                half.prec = full.prec // 2 + 2
                z = _inverse_root(big, q) ** (q - 1)  # y**(q-1)
                r = +big * z
            r += z * (big - r**q) / q
    with ctx.local():
        return +r


def nth_root(x: Real, n: int, ctx: PrecisionContext) -> Real:
    """n-th root of x >= 0 for n in {2, 3, 4}, by the kernel of :func:`pow_rational`:
    the inverse root at half precision, then one correction (see :func:`_power`).

    The result r, rounded to working precision, satisfies
    |r**n - x| <= 3 * x * 10**(1 - working_digits).
    ``x`` may carry more digits than the context.
    """
    if n not in (2, 3, 4):
        raise UnsupportedParameterError(f"nth_root supports n in {{2, 3, 4}}, got {n}")
    if x == 0:
        return Decimal(0)
    if x.is_signed():
        raise DomainError("nth_root requires x >= 0")
    return _power(x, 1, n, ctx)


def pow_rational(x: Real, exponent: Fraction | int, ctx: PrecisionContext) -> Real:
    """x**exponent for x > 0 and a rational exponent p/q (a Fraction or an int),
    q in ``SUPPORTED_DENOMINATORS``.

    q = 1 is integer-power arithmetic, x**p or :func:`quotient` (1, x**|p|),
    whose error is inside the same bound; any other q is one
    inverse root of order q of x**|p|, with no long division, taken at half
    precision and corrected once when p > 0 (see :func:`_power`).
    Relative error <= (|p| + 3) * 10**(1 - working_digits).
    """
    p, q = exponent.numerator, exponent.denominator
    if q not in SUPPORTED_DENOMINATORS:
        raise UnsupportedParameterError(f"denominator {q} not in {SUPPORTED_DENOMINATORS}")
    if x.is_signed() or x == 0:
        raise DomainError("pow_rational requires x > 0")
    if p == 0:
        return Decimal(1)
    return _power(x, p, q, ctx)


def to_sig_digits(x: Real, n: int) -> str:
    """String of the first ``n`` significant digits of x.

    Truncated toward zero, never rounded, so the output is a stable prefix
    as ``n`` grows.  The form is positional, zero-padded to ``n`` digits, when
    -6 <= e(x) <= n + 6 (e(x) = x.adjusted()), else scientific, ``d.ddde<e(x)>``.
    """
    if n < 1:
        raise DomainError("need at least one digit")
    if x == 0:
        return "0"
    adj = x.adjusted()
    # n digits exactly, the last at 10**(adj - n + 1), so q keeps x's adjusted exponent
    with localcontext(decimal.Context(prec=n + 5, Emin=-_EMAX, Emax=_EMAX)):
        q = x.quantize(Decimal(1).scaleb(adj - n + 1), rounding=decimal.ROUND_DOWN)
    if -6 <= adj <= n + 6:
        return format(q, "f")
    sign, (head, *tail), _ = q.as_tuple()
    return f"{'-' * sign}{head}.{''.join(map(str, tail))}e{adj}"


# x - y rounded toward zero keeps the exponent of the exact difference, and
# decimal's widest exponent range keeps a tiny difference from rounding to 0.
_TRUNCATED = decimal.Context(prec=1, rounding=decimal.ROUND_DOWN,
                             Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def matching_digits(x: Real, y: Real) -> int:
    """Significant decimal digits on which x and y agree (conservative floor):
    e(max(|x|, |y|)) - e(|x - y|), at least 0, with e(v) = v.adjusted().

    Returns a large sentinel (10**9) when the two values are identical.  The
    answer depends on x and y alone, not on the calling thread's decimal
    context: the difference is taken at its exact exponent, so it is 0 only
    when x = y, however far below 1 both values are.
    """
    with localcontext(_TRUNCATED):
        diff = x - y
    if not diff:
        return 10**9
    ref = max(x.copy_abs(), y.copy_abs())
    return max(0, ref.adjusted() - diff.adjusted())
