"""Arbitrary-precision real arithmetic in decimal digits.

Every quantity in this package, but for a run's chain between two
crossovers (below), is a ``decimal.Decimal`` handled under a
``PrecisionContext`` that fixes the working precision (in decimal digits,
never bits).  Field operations inherit their rounding from the stdlib
``decimal`` module.  Roots and rational powers x**(p/q) need no exp/log: for
q > 1 each is one call to a single Newton kernel (Brent & Zimmermann, *Modern
Computer Arithmetic* §4.2), the division-free inverse-root step
y += y*(1 - X*y**q)/q from a float seed y ~ X**(-1/q) of X = x**|p|, at
precisions that about double per step.  For p < 0 the power is y, taken up to
the working precision P of :attr:`PrecisionContext.wide`.  For p > 0, every
root among them, y and r = X*y**(q-1) are taken at about P/2 digits and one
correction at P digits, r += y**(q-1)*(X - r**q)/q, finishes r (Karp &
Markstein, ACM TOMS 23, 1997): the full-precision work is then r**q and
products of half-length operands.
The error bounds are stated on :func:`nth_root` and :func:`pow_rational`.
Quotients at full precision (the one of a cubic step, a run's value and a
trace row's d_n and a_n, 1/X for q = 1 and p < 0, and a perimeter run's
c_0) take :func:`quotient`:
below ``_QUOTIENT_CROSSOVER`` digits decimal's long division, from there up
the same kernel at q = 1, a reciprocal at about P/2 digits and one
correction at P digits.

At 50 to 200 digits a root costs more in Python calls than in digits, so the
kernel keeps them few: a power copies the decimal context once, on entering
``ctx.wide``, and every precision it then takes (each Newton step's, the half
precision of p > 0, and W for the result) is set on that one copy; the Newton
schedule of a precision is built once (:func:`_newton_schedule`).

Between two crossovers of its working digits a run's chain is carried in
binary fixed point, as :class:`Fixed` values, Python ints scaled by 2**f,
whose products CPython forms faster than libmpdec does there.  Their roots
and quotients take the same kernels in ints (:meth:`Fixed.root`,
:meth:`Fixed.inverse_root`, :func:`_quotient_bits`), and each value becomes
a Decimal only when read (:meth:`Fixed.head`, :meth:`Fixed.rounded`).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from functools import cache, lru_cache

from .errors import DomainError, UnsupportedParameterError

# A "Real" is a plain Decimal; its precision is whatever context produced it.
Real = Decimal

# Exponent range far beyond any digit count this tool is asked for, so the
# tiny deltas of a converged run never underflow to subnormals.
_EMAX = 10**15

#: Denominators q of the exponents p/q that :func:`pow_rational` takes, and of w.
SUPPORTED_DENOMINATORS = (1, 2, 3, 4, 6, 12)

#: Largest |w| that a run, a limit or a series takes: the limit of a run at 2e16
#: leaves decimal's exponent range.
MAX_ABS_W = 10**16

_W_OUT_OF_RANGE = "w is out of range: |w| must be at most 1e16"
_W_DENOMINATOR = "w must have a denominator dividing 12"

MIN_GUARD_DIGITS = 32
#: Guard digits per step of the budget: each step loses a bounded number of digits to rounding.
GUARD_DIGITS_PER_STEP = 8

# Guard digits :attr:`PrecisionContext.wide` adds: every root and power, a
# run's chain, start and rows and the series couple are formed there.
_WIDE_DIGITS = 10

# Correct digits the float seed of a root is trusted to: a double carries
# 15.9, less the rounding of the float conversion and of ``**``.
_SEED_DIGITS = 14


class lazy:
    """A field formed on its first read and kept in the instance's ``__dict__``
    under its own name, as by ``functools.cached_property``, but without the
    lock that one takes on every first read before Python 3.12."""

    def __init__(self, form):
        self.form, self.__doc__ = form, form.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.form(instance)
        return value


def as_weight(w) -> Fraction:
    """``Fraction(w)`` for a free parameter given as a Fraction, an int, a
    Decimal or a text (p/q or a decimal).

    A w with a denominator not dividing 12, a zero denominator or
    |w| > :data:`MAX_ABS_W` raises :class:`UnsupportedParameterError`.
    Fraction builds the integer 10**k of a decimal exponent form, which takes
    seconds for 1e4000000, so a decimal with |w| >= 1e17 or nonzero |w| < 0.1
    (a finite decimal with a denominator dividing 12 is a multiple of 1/4)
    raises first.  A text that is neither p/q nor a finite decimal raises
    ValueError.
    """
    if isinstance(w, Decimal) or (isinstance(w, str) and "/" not in w):
        try:
            value = Decimal(w)
        except InvalidOperation:  # not a decimal, or an exponent beyond decimal's range
            value = Decimal("NaN")
        if not value.is_finite():
            raise ValueError(f"w must be a number p/q or a decimal, got {w!r}")
        if value.adjusted() > 16:
            raise UnsupportedParameterError(_W_OUT_OF_RANGE)
        if value and value.adjusted() < -1:
            raise UnsupportedParameterError(_W_DENOMINATOR)
        w = value
    try:
        w = Fraction(w)
    except ZeroDivisionError:
        raise UnsupportedParameterError(_W_OUT_OF_RANGE) from None
    if w.denominator not in SUPPORTED_DENOMINATORS:
        raise UnsupportedParameterError(_W_DENOMINATOR)
    if abs(w) > MAX_ABS_W:
        raise UnsupportedParameterError(_W_OUT_OF_RANGE)
    return w


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
    ``target_digits`` digits of any result are exact.  A request is
    ``PrecisionContext(digits)``, at the least guard; a run sizes its own.
    """

    target_digits: int
    guard_digits: int = MIN_GUARD_DIGITS

    def __post_init__(self):
        if self.target_digits < 1:
            raise DomainError("target_digits must be >= 1")
        if self.guard_digits < MIN_GUARD_DIGITS:
            raise DomainError(f"guard_digits must be >= {MIN_GUARD_DIGITS}")

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    @lazy
    def _decimal_context(self) -> decimal.Context:
        return decimal.Context(
            prec=self.working_digits,
            rounding=decimal.ROUND_HALF_EVEN,
            Emin=-_EMAX,
            Emax=_EMAX,
        )

    @lazy
    def wide(self) -> "PrecisionContext":
        """The same target with ``_WIDE_DIGITS`` = 10 more guard digits, built once
        per context: where a value rounded once to this precision is formed."""
        return PrecisionContext(self.target_digits, self.guard_digits + _WIDE_DIGITS)

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
        """10**(-working_digits + shift) as an exact Decimal, built from its digit
        tuple: ``scaleb`` would round and clamp it under the caller's context."""
        return Decimal((0, (1,), shift - self.working_digits))


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


@lru_cache(maxsize=1024)
def _newton_schedule(prec: int) -> tuple[int, ...]:
    """Precisions of the Newton steps of a root at ``prec`` digits, in the order
    they run, the last at ``prec``; built once per precision and kept for the
    last 1 024 precisions asked for.

    Each step roughly doubles the correct digits, so a step at ``p`` digits
    needs an input good to ``p // 2 + 2``; the halving stops once the float
    seed's digits cover a step (``p <= 2 * _SEED_DIGITS``).
    """
    if prec <= 2 * _SEED_DIGITS:
        return (prec,)
    return _newton_schedule(prec // 2 + 2) + (prec,)


def _inverse_root(x: Real, n: int) -> Real:
    """x**(-1/n) for x > 0 (any x != 0 when n = 1) at the ambient (already
    widened) decimal context.

    Each step y += y*(1 - x*y**n)/n at most squares the relative error (times
    (n+1)/2), so the steps run at the precisions of :func:`_newton_schedule`,
    with ``x`` rounded to each, and only the last one at full precision.  The
    steps set the precision of the ambient context itself, which the caller
    has copied, and the last one leaves it where it was: a root makes no copy
    of its own.
    """
    y = _float_seed(x, n)
    step = decimal.getcontext()
    for prec in _newton_schedule(step.prec):
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
    """x**(p/q) for x > 0 and p != 0, from X = x**|p| at the P working digits
    of ``ctx.wide``: X or :func:`quotient` (1, X) for q = 1, else one inverse
    root y = X**(-1/q).

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

    The power copies the decimal context once, on entering ``ctx.wide``: the
    Newton steps, the half precision and the rounding of r to the W working
    digits of ``ctx`` each set the precision of that copy.
    """
    with ctx.wide.local() as c:
        big = x ** abs(p)
        if q == 1:
            r = big if p > 0 else quotient(Decimal(1), big)
        elif p < 0:
            r = _inverse_root(big, q)
        else:
            full, c.prec = c.prec, c.prec // 2 + 2
            z = _inverse_root(big, q) ** (q - 1)  # y**(q-1)
            r = +big * z
            c.prec = full
            r += z * (big - r**q) / q
        c.prec = ctx.working_digits
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


# A context that never rounds: scaleb under it only moves the exponent.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

#: Ints of at most this many bits go to Decimal in one conversion (see :func:`_to_decimal`).
_SPLIT_BITS = 2_000


@cache
def _power_of_two(bits: int) -> Decimal:
    """2**bits, exact, for bits = ``_SPLIT_BITS`` 2**j: the square of the one before."""
    if bits == _SPLIT_BITS:
        return Decimal(1 << bits)
    root = _power_of_two(bits // 2)
    return _EXACT.multiply(root, root)


def _to_decimal(n: int) -> Decimal:
    """Decimal(n), exactly, for any int n.

    ``Decimal(int)`` takes time quadratic in the length of the int on CPython
    3.11 (0.20 s at 100 000 digits).  A longer int than ``_SPLIT_BITS`` is split
    as n = hi 2**m + lo at the largest m = ``_SPLIT_BITS`` 2**j below its
    length, with 0 <= lo < 2**m (so a negative n has a negative hi), and the
    halves, converted in turn, are joined in the exact context ``_EXACT``; the
    powers 2**m are kept from call to call, one per doubling of the longest int
    converted.  Per conversion of a random int, best of 1 to 5
    runs with the powers cached (2 vCPU, Python 3.11.7, shared machine):

        digits       Decimal(int)   split
        5 000        0.52 ms        0.39 ms
        10 000       2.13 ms        1.74 ms
        40 000       34.0 ms        11.1 ms
        100 000      0.20 s         0.032 s
        1 000 000    20.8 s         0.39 s
    """
    bits = n.bit_length()
    if bits <= _SPLIT_BITS:
        return Decimal(n)
    m = _SPLIT_BITS
    while 2 * m < bits:
        m *= 2
    hi = n >> m
    return _EXACT.fma(_to_decimal(hi), _power_of_two(m), _to_decimal(n - (hi << m)))


# The context of a :meth:`Fixed.head` and of a chain step's 30-digit reads
# (``algorithms._run``): 30 digits at any exponent; every operand read
# there is positive, so each is good to a relative 1e-28.
_HEAD = decimal.Context(prec=30, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)

# Bits of a value :meth:`Fixed.head` reads: 33 digits, 3 beyond the 30 it keeps.
_HEAD_BITS = 110

# Correct bits the float seed of :func:`_inverse_root_bits` is trusted to: a
# double carries 53, less the rounding of the int's conversion and of ``**``.
_SEED_BITS = 48

# Bits a Newton step of :func:`_inverse_root_bits` and the half precision of
# :meth:`Fixed.root` keep beyond half of the bits they serve.
_HALF_GUARD_BITS = 4


def _bits(x: int, f: int, p: int) -> int:
    """x / 2**f to p fraction bits, rounded toward -infinity."""
    return x >> f - p if f >= p else x << p - f


def _inverse_root_bits(x: int, f: int, n: int, p: int) -> int:
    """The int y with y / 2**p = (x / 2**f)**(-1/n), for x / 2**f in
    [1/2, 2**n) and n >= 1, to a few units of 2**-p.

    The steps of :func:`_inverse_root` in ints: a float seed at p <= ``_SEED_BITS``,
    else y at h = p // 2 + ``_HALF_GUARD_BITS`` bits, then y += y (1 - x y**n) / n
    at p bits, with x cut to p bits: a step at most squares the relative error
    (times (n + 1)/2), and 2h >= p + 7 leaves it a fraction of 2**-p.  x is
    of order 1, so its cut loses no more than that relatively.

    y**n is exact for n <= 4, and for n > 4 (the ninth roots of
    ``postprocess_constant``) squarings and products cut to p + 8 bits
    (:meth:`Fixed.__pow__`): each cut is a unit of 2**-(p + 8) on factors
    below 2, so y**n is within a unit of 2**-(p + 8) times about 2n, a tenth
    of a unit of 2**-p at n = 9, where the exact y**9 would carry 9h bits.
    """
    if p <= _SEED_BITS:
        shift = x.bit_length() - 64
        return int(math.ldexp(math.ldexp(_bits(x, shift, 0), shift - f) ** (-1.0 / n), p))
    h = p // 2 + _HALF_GUARD_BITS
    y = _inverse_root_bits(x, f, n, h)
    power = _bits(y**n, n * h, p) if n <= 4 else (Fixed(y << p + 8 - h, p + 8) ** n).v >> 8
    miss = (1 << p) - (_bits(x, f, p) * power >> p)  # 1 - x y**n, to 2**-p
    return (y << p - h) + (y * miss >> h) // n


# Bits of a quotient from which :func:`_quotient_bits` takes the Newton reciprocal.
_QUOTIENT_BITS = 10_000


def _quotient_bits(num: int, den: int, f: int) -> int:
    """(num << f) // den for ints num >= 0 and den > 0, to within two units.

    Below ``_QUOTIENT_BITS`` bits of quotient, p = e(num) + f - e(den) + 1
    (e(x) = x.bit_length()), this is the floor division itself.  From there
    up it is :func:`quotient` in ints (Karp & Markstein, ACM TOMS 23, 1997):
    y = 2**(e(den) + h) / den to h = p // 2 + ``_HALF_GUARD_BITS`` bits
    (:func:`_inverse_root_bits` with n = 1) and q, the quotient cut to its
    leading h bits, q 2**(p - h) = num y 2**(f - e(den) - h) from num cut to
    h + 4 bits; then one correction by the exact residual
    r = num 2**f - den q 2**(p - h), cut to h + 4 bits:

        (q 2**(p - h)) + r y 2**-(e(den) + h).

    If q 2**(p - h) = Q (1 + e), Q the exact quotient, and y carries a
    relative error g, the corrected value is Q (1 - e g) less the floor of
    the last product: |e| and |g| are a few units of 2**-h and 2h >= p + 7,
    so it lies within two units of the floor of Q.  The floor division
    takes time quadratic in p, the correction a few products of h bits.
    Per call on random operands of p bits, best of 7 (2 vCPU, Python 3.11.7,
    shared machine):

        p         floor      Newton    Newton / floor
        5 000     44 us      65 us     1.47
        10 000    171 us     141 us    0.82
        17 000    455 us     224 us    0.49
        30 000    1.45 ms    0.58 ms   0.40
        70 000    7.88 ms    2.08 ms   0.26
    """
    top, g = num.bit_length(), den.bit_length()
    p = top + f - g + 1
    if p < _QUOTIENT_BITS:
        return (num << f) // den
    h = p // 2 + _HALF_GUARD_BITS
    y = _inverse_root_bits(den, g, 1, h)
    cut = max(top - h - _HALF_GUARD_BITS, 0)
    q = (num >> cut) * y >> top + 1 - cut
    rest = (num << f) - (den * q << p - h)
    cut = max(rest.bit_length() - h - _HALF_GUARD_BITS, 0)
    return (q << p - h) + ((rest >> cut) * y >> g + h - cut)


class Fixed:
    """A real v / 2**f, carried as the int v with f fraction bits: how a run's
    chain holds its means and sums where CPython's int products beat
    libmpdec's (:func:`replica.algorithms._fixed_bits`).

    Sums, differences and products by ints are exact.  A product or square
    of two values and a quotient by an int round toward -infinity, to one
    unit of 2**-f, and a power x**n is squarings and products of such; a
    quotient of two values (:func:`_quotient_bits`) and :meth:`root` are
    within two units.  Every operand of
    a chain is positive, and the units are absolute: a value x carries
    log2(1/x) fewer correct bits than one near 1.  :meth:`head` and
    :meth:`rounded` convert a value to Decimal, each under its own context,
    whatever the calling thread's.
    """

    __slots__ = ("v", "f")

    def __init__(self, v: int, f: int):
        self.v, self.f = v, f

    @classmethod
    def ratio(cls, num: Real, den: Real, f: int) -> Fixed:
        """num / den for finite Decimals num >= 0 and den > 0 whose quotient is
        of order 1 or less, exact before the one rounding, whatever their exponents."""
        (_, num_digits, num_exp), (_, den_digits, den_exp) = num.as_tuple(), den.as_tuple()
        top, bottom = (int(Decimal((0, digits, 0))) for digits in (num_digits, den_digits))
        if num_exp >= den_exp:
            top *= 10 ** (num_exp - den_exp)
        else:
            bottom *= 10 ** (den_exp - num_exp)
        return cls((top << f) // bottom, f)

    def __add__(self, other: Fixed) -> Fixed:
        return Fixed(self.v + other.v, self.f)

    def __sub__(self, other: Fixed) -> Fixed:
        return Fixed(self.v - other.v, self.f)

    def __mul__(self, other: Fixed | int) -> Fixed:
        if isinstance(other, int):
            return Fixed(self.v * other, self.f)
        return Fixed(self.v * other.v >> self.f, self.f)

    __rmul__ = __mul__

    def __truediv__(self, other: Fixed | int) -> Fixed:
        if isinstance(other, int):
            return Fixed(self.v // other, self.f)
        return Fixed(_quotient_bits(self.v, other.v, self.f), self.f)

    def __pow__(self, n: int) -> Fixed:
        if n == 1:
            return self
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    def __eq__(self, other) -> bool:
        return isinstance(other, Fixed) and (self.v, self.f) == (other.v, other.f)

    def __hash__(self) -> int:
        return hash(self.v)

    def __bool__(self) -> bool:
        return bool(self.v)

    def root(self, n: int) -> Fixed:
        """The n-th root r of a value x > 0, for n in {2, 3, 4}, within two
        units of r 2**-p relatively, by the kernel of :func:`_power` in ints.

        With x = x' 2**(n k) and x' in [1/2, 2**n), r = x'**(1/n) 2**k, and
        r' = x'**(1/n) to p = f + k bits is r to f bits: y = x'**(-1/n)
        (:func:`_inverse_root_bits`) and r' = x' y**(n-1) at
        h = p // 2 + ``_HALF_GUARD_BITS`` bits, then one correction at p bits,
        r' += y**(n-1) (x' - r'**n) / n.  As there, what the correction leaves
        is second order in the h-bit errors, and 2h >= p + 7 makes it a
        fraction of 2**-p; the roundings of the correction add about one unit
        more.  Working on x', not x, keeps every step's relative precision
        whatever the size of x."""
        x, f = self.v, self.f
        k = (x.bit_length() - f) // n
        g, p = f + n * k, f + k  # x' = x / 2**g
        h = p // 2 + _HALF_GUARD_BITS
        z = _inverse_root_bits(x, g, n, h) ** (n - 1) >> (n - 2) * h  # y**(n-1)
        r = _bits(x, g, h) * z >> h
        miss = _bits(x, g, p) - (r**n >> n * h - p)  # x' - r'**n, to 2**-p
        return Fixed((r << p - h) + (z * miss >> h) // n, f)

    def inverse_root(self, n: int) -> Fixed:
        """y = x**(-1/n) of a value x > 0, for any n >= 1, within two units of
        y 2**-f relatively (:func:`_inverse_root_bits`).

        With x = x' 2**(n k) and x' in [1, 2**n), y = x'**(-1/n) 2**-k, and
        x'**(-1/n) to f - k bits is y to f bits, so every x keeps the
        relative precision of one near 1.  It is taken to n bits more and
        cut: the Newton residual 1 - x' y'**n reads y'**n, near 1/x', to a
        unit, which x' <= 2**n would otherwise weigh up to 2**n units."""
        x, f = self.v, self.f
        k = (x.bit_length() - 1 - f) // n
        return Fixed(_inverse_root_bits(x, f + n * k, n, f - k + n) >> n, f)

    def head(self) -> Real:
        """The value to 30 digits, from its leading ``_HEAD_BITS`` bits: a
        relative error below 1e-29 for any value not 0."""
        shift = max(self.v.bit_length() - _HEAD_BITS, 0)
        return _HEAD.multiply(Decimal(self.v >> shift), _HEAD.power(2, shift - self.f))

    def rounded(self, ctx: PrecisionContext) -> Real:
        """The value rounded to the working digits P of ``ctx``: v 10**k // 2**f,
        an int of at least P + 2 digits, made exact by :func:`_to_decimal`,
        then shifted by 10**-k and rounded once, within 0.51 units in its
        P-th digit."""
        digits = ctx.working_digits + 2
        k = digits - (self.v.bit_length() - 1 - self.f) * 30103 // 100000
        exact = _to_decimal(self.v * 10**k >> self.f).scaleb(-k, _EXACT)
        return ctx.real(exact)


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
