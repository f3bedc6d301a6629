import hashlib
import math
import random
import re
from decimal import Context, Decimal, Inexact, localcontext
from fractions import Fraction

import pytest

import frozen
from oracles import decimal_sqrt, isqrt_sqrt
from replica import (
    DomainError,
    PrecisionContext,
    UnsupportedParameterError,
)
from replica import precision
from replica.precision import (
    MIN_GUARD_DIGITS,
    SUPPORTED_DENOMINATORS,
    _QUOTIENT_CROSSOVER,
    _WIDE_DIGITS,
    _newton_schedule,
    make_context,
    matching_digits,
    nth_root,
    pow_rational,
    quotient,
    step_budget,
    to_sig_digits,
)
from replica.transforms import DESCEND


class TestMakeContext:
    def test_thousand_digits_quadratic(self):
        ctx = make_context(1000, 2)
        assert step_budget(1000, 2) == 13
        assert ctx.guard_digits == 136
        assert ctx.working_digits == 1136

    def test_single_digit(self):
        ctx = make_context(1, 2)
        assert step_budget(1, 2) == 3
        assert ctx.guard_digits == 56

    def test_thousand_digits_quartic(self):
        ctx = make_context(1000, 4)
        assert step_budget(1000, 4) == 8
        assert ctx.guard_digits == 96

    def test_rejects_bad_target(self):
        with pytest.raises(DomainError):
            make_context(0, 2)
        with pytest.raises(DomainError):
            make_context(-5, 2)

    def test_rejects_bad_order(self):
        with pytest.raises(UnsupportedParameterError, match="algorithm_order must be 2, 3 or 4"):
            make_context(100, 5)
        with pytest.raises(UnsupportedParameterError, match="algorithm_order must be 2, 3 or 4"):
            step_budget(100, 1)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            PrecisionContext(100, 20)  # guard below minimum
        with pytest.raises(DomainError):
            PrecisionContext(0, 40)  # no target digits
        assert PrecisionContext(100, 40).working_digits == 140

    def test_a_request_takes_the_least_guard_and_one_wide_context(self):
        ctx = PrecisionContext(100)
        assert ctx == PrecisionContext(100, MIN_GUARD_DIGITS)
        assert ctx.wide is ctx.wide
        assert ctx.wide == PrecisionContext(100, MIN_GUARD_DIGITS + _WIDE_DIGITS)

    @pytest.mark.parametrize("context", [Context(), Context(prec=6, Emin=-60, Emax=60),
                                         Context(traps=[Inexact])])
    def test_epsilon_is_exact_whatever_the_callers_context(self, context):
        # a 6-digit context with Emin = -60 once clamped 1e-110 to 0E-65
        with localcontext(context):
            wide = PrecisionContext(70).wide
            for shift in (0, 2, 10, -8):
                assert wide.epsilon(shift).as_tuple() == (0, (1,), shift - 112)
            assert PrecisionContext(10**5, 200).epsilon().as_tuple() == (0, (1,), -100200)

    def test_real_rejects_floats(self):
        ctx = make_context(50, 2)
        with pytest.raises(TypeError):
            ctx.real(0.5)

    @pytest.mark.parametrize("value", [
        "9.99e-1000000000000001", "-1e-1000000000000050", Decimal("1e-1000000000000000000"),
    ])
    def test_real_refuses_what_would_round_to_a_subnormal_or_zero(self, value):
        with pytest.raises(DomainError, match="out of range"):
            make_context(50, 2).real(value)

    @pytest.mark.parametrize("value", ["1e-1000000000000000", "-1e-1000000000000000",
                                       "0E-1000000000000000000", "0"])
    def test_real_keeps_the_exponent_floor_and_zero(self, value):
        assert make_context(50, 2).real(value) == Decimal(value)


class TestNthRoot:
    def test_exact_power(self):
        ctx = make_context(50, 2)
        assert nth_root(Decimal(16), 4, ctx) == 2

    def test_identity(self):
        ctx = make_context(50, 2)
        assert nth_root(Decimal(1), 3, ctx) == 1

    def test_zero(self):
        ctx = make_context(50, 2)
        assert nth_root(Decimal(0), 2, ctx) == 0

    def test_sqrt2_squares_back(self):
        ctx = make_context(200, 2)
        r = nth_root(Decimal(2), 2, ctx)
        with ctx.local():
            defect = abs(r * r - 2)
            assert defect <= 2 * ctx.epsilon(1)

    def test_sqrt2_against_integer_sqrt(self):
        ctx = make_context(300, 2)
        r = nth_root(Decimal(2), 2, ctx)
        oracle = isqrt_sqrt(2, ctx.working_digits + 20)
        assert matching_digits(r, oracle) >= ctx.working_digits - 2

    def test_negative_rejected(self):
        ctx = make_context(50, 2)
        with pytest.raises(DomainError):
            nth_root(Decimal(-1), 2, ctx)

    def test_unsupported_degree(self):
        ctx = make_context(50, 2)
        with pytest.raises(UnsupportedParameterError,
                           match=re.escape("nth_root supports n in {2, 3, 4}, got 5")):
            nth_root(Decimal(2), 5, ctx)

    def test_roundtrip_random(self):
        # nth_root(x**n, n) recovers x to working_digits - 2 for x in (0, 10)
        ctx = make_context(120, 2)
        rng = random.Random(20260810)
        for _ in range(25):
            x = ctx.real(Fraction(rng.randint(1, 99999), 10000))
            n = rng.choice((2, 3, 4))
            with ctx.local():
                power = x**n
            r = nth_root(power, n, ctx)
            assert matching_digits(r, x) >= ctx.working_digits - 2

    def test_extreme_magnitudes(self):
        ctx = make_context(80, 2)
        big = Decimal("1e3001")  # odd exponent
        r = nth_root(big, 2, ctx)
        with ctx.local():
            assert matching_digits(r * r, big) >= ctx.working_digits - 2
        tiny = Decimal("7e-2999")
        r = nth_root(tiny, 3, ctx)
        with ctx.local():
            assert matching_digits(r * r * r, tiny) >= ctx.working_digits - 2


class TestPowRational:
    def test_identity_exponent(self):
        ctx = make_context(50, 2)
        x = ctx.real("1.75")
        assert pow_rational(x, Fraction(1, 1), ctx) == x

    def test_exact_power(self):
        ctx = make_context(50, 2)
        assert pow_rational(Decimal(4), Fraction(3, 2), ctx) == 8

    def test_an_int_exponent(self):
        ctx = make_context(50, 2)
        assert pow_rational(Decimal(4), -2, ctx) == Decimal("0.0625")

    def test_inverse_square_root(self):
        ctx = make_context(150, 2)
        r = pow_rational(Decimal(2), Fraction(-1, 2), ctx)
        with ctx.local():
            assert abs(r * r * 2 - 1) <= ctx.epsilon(2)

    def test_zero_exponent(self):
        ctx = make_context(50, 2)
        assert pow_rational(ctx.real("3.7"), Fraction(0, 1), ctx) == 1

    def test_unsupported_denominator(self):
        ctx = make_context(50, 2)
        with pytest.raises(UnsupportedParameterError,
                           match=re.escape(f"denominator 5 not in {SUPPORTED_DENOMINATORS}")):
            pow_rational(Decimal(2), Fraction(1, 5), ctx)

    def test_requires_positive_base(self):
        ctx = make_context(50, 2)
        with pytest.raises(DomainError):
            pow_rational(Decimal(0), Fraction(1, 2), ctx)
        with pytest.raises(DomainError):
            pow_rational(Decimal(-3), Fraction(1, 3), ctx)

    def test_a_fraction_exponent_is_in_lowest_terms(self):
        ctx = make_context(50, 2)
        x = ctx.real("5.25")
        assert pow_rational(x, Fraction(2, 4), ctx) == pow_rational(x, Fraction(1, 2), ctx)

    def test_twelfth_roots(self):
        # x**(1/12): one inverse root of order 12, then x*y**11
        ctx = make_context(100, 2)
        x = ctx.real("5.25")
        r = pow_rational(x, Fraction(1, 12), ctx)
        with ctx.local():
            assert matching_digits(r**12, x) >= ctx.working_digits - 3

    def test_inverse_product_random(self):
        ctx = make_context(100, 2)
        rng = random.Random(77)
        for _ in range(20):
            x = ctx.real(Fraction(rng.randint(1, 9999), 1000))
            p = rng.choice((1, 2, 3, 5, -1, -3))
            q = rng.choice((1, 2, 3, 4, 6, 12))
            from math import gcd

            if gcd(p, q) != 1:
                continue
            with ctx.local():
                product = (pow_rational(x, Fraction(p, q), ctx)
                           * pow_rational(x, Fraction(-p, q), ctx))
            assert matching_digits(product, Decimal(1)) >= ctx.working_digits - 2


class TestDigitStrings:
    def test_pi_prefix(self):
        value = Decimal(frozen.PI)
        assert to_sig_digits(value, 10) == "3.141592653"
        assert to_sig_digits(value, 1) == "3"

    def test_truncates_never_rounds(self):
        assert to_sig_digits(Decimal("0.19999"), 2) == "0.19"
        assert to_sig_digits(Decimal("2.999"), 2) == "2.9"

    def test_integerlike(self):
        assert to_sig_digits(Decimal("4000.25"), 2) == "4000"
        assert to_sig_digits(Decimal("4000.25"), 6) == "4000.25"

    def test_small_values(self):
        assert to_sig_digits(Decimal("0.0012345"), 3) == "0.00123"

    def test_pads_exact_values(self):
        assert to_sig_digits(Decimal(2), 5) == "2.0000"

    def test_scientific_fallback(self):
        assert to_sig_digits(Decimal("1.5e-40"), 3) == "1.50e-40"

    @pytest.mark.parametrize("value, n, expected", [
        # positional for -6 <= e(x) <= n + 6, scientific outside
        ("6.28318530717958e-6", 8, "0.0000062831853"),
        ("6.28318530717958e-7", 8, "6.2831853e-7"),
        ("6.28318530717958e14", 8, "628318530000000"),
        ("6.28318530717958e15", 8, "6.2831853e15"),
        ("-6.28318530717958e-6", 8, "-0.0000062831853"),
        ("-6.28318530717958e-7", 8, "-6.2831853e-7"),
        ("-6.28318530717958e14", 8, "-628318530000000"),
        ("-6.28318530717958e15", 8, "-6.2831853e15"),
        ("-31.4159", 3, "-31.4"),
        # one digit keeps the point of the scientific form
        ("6.28318530717958e20", 1, "6.e20"),
        # exponents at the edges of the package's exponent range
        ("6.28318530717958e999999999999999", 8, "6.2831853e999999999999999"),
        ("6.28318530717958e-1000000000000000", 8, "6.2831853e-1000000000000000"),
        ("-6.28318530717958e-999999999999999", 1, "-6.e-999999999999999"),
    ])
    def test_form_at_the_exponent_edges(self, value, n, expected):
        assert to_sig_digits(Decimal(value), n) == expected

    def test_needs_at_least_one_digit(self):
        with pytest.raises(DomainError):
            to_sig_digits(Decimal("3.14"), 0)

    def test_zero_is_one_digit(self):
        assert to_sig_digits(Decimal(0), 5) == "0"

    def test_matching_digits(self):
        a = Decimal("3.14159265358979")
        assert matching_digits(a, a) == 10**9
        assert matching_digits(a, Decimal("3.14159265999999")) in (8, 9)
        assert matching_digits(Decimal(1), Decimal(2)) == 0

    @pytest.mark.parametrize("exp", [0, -1400000, 1400000, -999999999999999])
    def test_matching_digits_ignores_the_callers_context(self, exp):
        # the default context underflowed the difference at 1e-1400000 to an
        # exact agreement and overflowed at 1e1400000
        x, y = Decimal(f"3.14159265358979e{exp}"), Decimal(f"3.14159265999999e{exp}")
        for context in (Context(), Context(prec=6, Emin=-60, Emax=60)):
            with localcontext(context):
                assert matching_digits(x, y) == 9
                assert matching_digits(x.copy_negate(), y.copy_negate()) == 9
                assert matching_digits(x, x) == 10**9


class TestTwoPrecisionStability:
    def test_root_stable_under_doubled_guard(self):
        ctx = make_context(400, 2)
        first = nth_root(Decimal(7), 3, ctx)
        second = nth_root(Decimal(7), 3, PrecisionContext(ctx.target_digits, 2 * ctx.guard_digits))
        assert to_sig_digits(first, 400) == to_sig_digits(second, 400)

    def test_sqrt_matches_decimal_library(self):
        ctx = make_context(500, 2)
        ours = nth_root(Decimal(5), 2, ctx)
        theirs = decimal_sqrt(5, ctx.working_digits + 20)
        assert matching_digits(ours, theirs) >= ctx.working_digits - 2


def _schedule_boundaries(limit):
    """Working precisions w at which the root kernel takes one step more than at w - 1."""
    steps = [len(_newton_schedule(w + _WIDE_DIGITS)) for w in range(limit)]
    return [w for w in range(MIN_GUARD_DIGITS + 2, limit) if steps[w] != steps[w - 1]]


def _min_guard_context(working_digits):
    return PrecisionContext(working_digits - MIN_GUARD_DIGITS, MIN_GUARD_DIGITS)


def _exact_power(r, n):
    with localcontext(Context(prec=n * len(r.as_tuple().digits) + 5)):
        return r**n


class TestNewtonKernelAtScale:
    def test_sqrt2_against_integer_sqrt_20k(self):
        ctx = make_context(20000, 2)
        r = nth_root(Decimal(2), 2, ctx)
        oracle = isqrt_sqrt(2, ctx.working_digits + 20)
        assert matching_digits(r, oracle) >= ctx.working_digits - 2

    def test_roundtrip_either_side_of_schedule_boundaries(self):
        boundaries = _schedule_boundaries(26000)
        assert len(boundaries) >= 9  # every precision doubling up to 20k digits
        contexts = [_min_guard_context(w) for b in boundaries for w in (b - 1, b)]
        contexts += [make_context(t, order) for t in (1, 13, 14, 40, 1000, 20000)
                     for order in (2, 3, 4)]
        rng = random.Random(20261017)
        for ctx in contexts:
            for n in (2, 3, 4, 6, 12):
                x = ctx.real(Fraction(rng.getrandbits(4 * ctx.working_digits),
                                      rng.getrandbits(4 * ctx.working_digits) | 1))
                with ctx.local():
                    power = x**n
                r = nth_root(power, n, ctx) if n <= 4 else pow_rational(power, Fraction(1, n), ctx)
                assert matching_digits(r, x) >= ctx.working_digits - 2, (ctx, n)

    def test_documented_bound_across_magnitudes(self):
        ctx = make_context(60, 2)
        rng = random.Random(5)
        for exponent in range(-400, 401, 25):
            for n in (2, 3, 4):
                x = Decimal(f"{rng.randrange(10**39, 10**40)}e{exponent - 39}")
                r = nth_root(x, n, ctx)
                with localcontext(Context(prec=4 * ctx.working_digits + 50)):
                    defect = abs(_exact_power(r, n) - x)
                    assert defect <= 3 * x * ctx.epsilon(1), (x, n)

    @pytest.mark.parametrize("q", SUPPORTED_DENOMINATORS)
    def test_inverse_pair_20k(self, q):
        ctx = make_context(20000, 4)
        x = ctx.real(Fraction(22, 7))
        with ctx.local():
            product = (pow_rational(x, Fraction(5, q), ctx)
                       * pow_rational(x, Fraction(-5, q), ctx))
        assert matching_digits(product, Decimal(1)) >= ctx.working_digits - 2

    @pytest.mark.parametrize("q", (6, 12))
    def test_inverse_roots_exact_residual_20k(self, q):
        # r = x**(p/q) with p < 0 in one inverse root: (1 + B)**q - 1 bounds
        # the exact residual |r**q * x**|p| - 1| when r meets the documented
        # relative bound B = (|p| + 3) * 10**(1 - W)
        ctx = make_context(20000, 4)
        for p, x in zip((-1, -5, -7, -11, -13), ("7.3e-300", "0.37", "41.5", "2.9e300", "5.25")):
            x = Decimal(x)
            r = pow_rational(x, Fraction(p, q), ctx)
            with localcontext(Context(prec=q * (len(r.as_tuple().digits) + 4) + 50)):
                bound = (-p + 3) * ctx.epsilon(1)
                residual = abs(_exact_power(r, q) * _exact_power(x, -p) - 1)
                assert residual <= (1 + bound) ** q - 1, (p, q, x)

    def test_input_with_more_digits_than_context(self):
        ctx = make_context(300, 2)
        wide = PrecisionContext(ctx.target_digits, 2 * ctx.guard_digits)
        x = wide.real(Fraction(10, 7))
        assert len(x.as_tuple().digits) > ctx.working_digits
        for n in (2, 3, 4):
            r = nth_root(x, n, ctx)
            assert matching_digits(r, nth_root(x, n, wide)) >= ctx.working_digits - 2
            with localcontext(Context(prec=4 * wide.working_digits + 50)):
                assert abs(_exact_power(r, n) - x) <= 3 * x * ctx.epsilon(1)
        y = pow_rational(x, Fraction(-5, 12), ctx)
        assert matching_digits(y, pow_rational(x, Fraction(-5, 12), wide)) >= ctx.working_digits - 2


class TestPowRationalOracle:
    """pow_rational against Decimal's own ln and exp, which share no code with it."""

    @pytest.mark.parametrize("working_digits", (100, 300))
    def test_documented_bound_against_ln_exp(self, working_digits):
        ctx = _min_guard_context(working_digits)
        rng = random.Random(working_digits)
        exponents = [(p, q) for q in SUPPORTED_DENOMINATORS for p in range(-13, 14)
                     if p != 0 and math.gcd(p, q) == 1]
        for p, q in exponents:
            for exponent in (-300, -41, 0, 37, 300):
                x = Decimal(f"{rng.randrange(10**19, 10**20)}e{exponent - 19}")
                r = pow_rational(x, Fraction(p, q), ctx)
                with localcontext(Context(prec=working_digits + 20, Emin=-10**6, Emax=10**6)):
                    expected = (p * x.ln() / q).exp()
                    assert abs(r - expected) <= (abs(p) + 3) * ctx.epsilon(1) * expected, (x, p, q)


class TestHalfPrecisionRoot:
    """A power with p > 0 (every root among them) takes its inverse root at
    about half the precision and finishes with one correction.  The documented
    bounds hold, checked in exact arithmetic, where that half lies below the
    float seed's 28 digits (working digits 33 to 35) and far above it (5 000)."""

    @pytest.mark.parametrize("working_digits", (33, 34, 35, 5000))
    def test_documented_bounds_at_the_edges(self, working_digits):
        ctx = _min_guard_context(working_digits)
        rng = random.Random(working_digits)
        exponents = (-300, -157, -41, -1, 0, 1, 37, 211, 300)
        if working_digits > 100:
            exponents = (-300, 0, 300)
        for q in SUPPORTED_DENOMINATORS:
            for p in (1, 2, 5, 7, 13):
                if math.gcd(p, q) != 1:
                    continue
                bound = Context().multiply(p + 3, ctx.epsilon(1))
                for exponent in exponents:
                    x = Decimal(f"{rng.randrange(10**19, 10**20)}e{exponent - 19}")
                    r = pow_rational(x, Fraction(p, q), ctx)
                    with _exact_context(q * (working_digits + 2) + 20 * p + 50):
                        power = x**p
                        assert (1 - bound) ** q * power <= r**q <= (1 + bound) ** q * power, \
                            (x, p, q)
                    if p == 1 and q in (2, 3, 4):
                        r = nth_root(x, q, ctx)
                        with _exact_context(q * (working_digits + 2) + 50):
                            assert abs(r**q - x) <= 3 * x * ctx.epsilon(1), (x, q)


def _exact_context(prec):
    """A decimal context of ``prec`` digits in which any rounding raises."""
    return localcontext(Context(prec=prec, Emin=-10**6, Emax=10**6, traps=[Inexact]))


def _operand(rng, digits, exponent, sign=""):
    """A random ``digits``-digit Decimal of adjusted exponent ``exponent``."""
    mantissa = (rng.randrange(1, 10), *rng.choices(range(10), k=digits - 1))
    return Decimal((sign == "-", mantissa, exponent - digits + 1))


def _wide_context(prec):
    return Context(prec=prec, Emin=-10**6, Emax=10**6)


# The relative error bound documented on quotient, in units of 10**(1 - P).
_QUOTIENT_BOUND = Decimal("0.56")


def _assert_quotient_bound(num, den, prec):
    with localcontext(_wide_context(prec)):
        got = quotient(num, den)
    with localcontext(_wide_context(prec + 30)):
        exact = num / den
        assert abs(got - exact) <= _QUOTIENT_BOUND * Decimal(10) ** (1 - prec) * abs(exact), \
            (prec, num.adjusted(), den.adjusted())


class TestQuotient:
    """quotient is decimal's division below the crossover, and a Newton
    reciprocal at half precision with one correction from there up."""

    @pytest.mark.parametrize("prec", (1, 50, 1136, _QUOTIENT_CROSSOVER - 1))
    def test_is_long_division_below_the_crossover(self, prec):
        rng = random.Random(prec)
        for exponent in (-400000, -3, 0, 7, 400000):
            num = _operand(rng, prec + 5, exponent, rng.choice(("", "-")))
            den = _operand(rng, prec + 5, -exponent // 2)
            with localcontext(_wide_context(prec)):
                assert quotient(num, den) == num / den

    @pytest.mark.parametrize("prec", (_QUOTIENT_CROSSOVER, 13337, 20100))
    def test_documented_bound_above_the_crossover(self, prec):
        rng = random.Random(prec)
        cases = [(_operand(rng, prec, e1, sign), _operand(rng, prec, e2))
                 for e1, e2, sign in ((0, 0, ""), (400000, -400000, ""), (-400000, 400000, "-"),
                                      (-400000, -400000, ""), (400000, 400000, "-"),
                                      (3, 250000, ""), (-1, -250000, "-"))]
        # den = 1 - 10**-k, whose leading nines round the float seed to 1
        cases += [(_operand(rng, prec, 0), 1 - Decimal(10) ** -k) for k in (1, 17, prec // 2, prec - 1)]
        # a negative den, and short operands, as in 1/X and 2/(b/a)**2
        cases += [(_operand(rng, prec, 2), -_operand(rng, prec, 5)),
                  (Decimal(1), _operand(rng, prec, 11)), (Decimal(2), Decimal("0.25"))]
        cases += [(_operand(rng, prec + rng.randrange(-5, 6), rng.randrange(-400000, 400001),
                            rng.choice(("", "-"))),
                   _operand(rng, prec + rng.randrange(-5, 6), rng.randrange(-400000, 400001)))
                  for _ in range(20)]
        for num, den in cases:
            _assert_quotient_bound(num, den, prec)

    def test_the_newton_branch_starts_at_the_crossover(self, monkeypatch):
        reciprocals = []
        original = precision._inverse_root
        monkeypatch.setattr(precision, "_inverse_root",
                            lambda x, n: reciprocals.append(n) or original(x, n))
        for prec in (_QUOTIENT_CROSSOVER - 1, _QUOTIENT_CROSSOVER):
            with localcontext(_wide_context(prec)):
                quotient(Decimal(2), Decimal(3))
        assert reciprocals == [1]

    def test_zero_numerator_and_denominator_above_the_crossover(self):
        with localcontext(_wide_context(_QUOTIENT_CROSSOVER)):
            assert quotient(Decimal(0), Decimal(3)) == 0
            with pytest.raises(ZeroDivisionError):
                quotient(Decimal(1), Decimal(0))

    @pytest.mark.parametrize("order", (2, 3, 4))
    def test_descend_maps_match_their_division_at_12000_digits(self, order):
        # The map's numerator and denominator, formed as in transforms.py,
        # divided 30 digits higher.
        ctx = make_context(12000, order)
        assert ctx.working_digits >= _QUOTIENT_CROSSOVER
        prec = ctx.working_digits
        for x in (ctx.real(Fraction(1, 3)), ctx.real("0.999"), ctx.real("1e-3000")):
            t = DESCEND[order](x, ctx)
            with ctx.local():
                xm = x * x * x if order == 3 else x * x
                xm = xm * xm if order == 4 else xm
                u = nth_root(1 - xm, order, ctx)
                den = {2: (1 + u) * (1 + u),
                       3: (1 + u + u * u) * (1 + 2 * u),
                       4: (1 + u) * (1 + u) * (1 + u * u)}[order]
            with localcontext(_wide_context(prec + 30)):
                exact = xm / den
                assert abs(t - exact) <= _QUOTIENT_BOUND * Decimal(10) ** (1 - prec) * exact, x


def kernel_results(name):
    """Every result of the kernel function ``name`` on seeded operands at 1, 50,
    200 and 1 000 target digits, plus, for ``quotient``, two at 12 000 digits,
    on the Newton reciprocal's path.  Each operand carries 25 digits more than
    the working precision, so every Newton step rounds it.

    A root or power takes its last Newton step or its correction on operands
    already rounded to that step's precision, and the steps before it move its
    result only to second order, so ``_inverse_root`` is also pinned on its
    own, at the ambient context, and ``_newton_schedule`` at every precision
    up to 20 000."""
    if name == "_newton_schedule":
        return [sorted(_newton_schedule(prec)) for prec in range(1, 20001)]
    rng = random.Random(name)
    results = []
    for digits in (1, 50, 200, 1000, 12000):
        ctx = PrecisionContext(digits)
        operands = [_operand(rng, ctx.working_digits + 25, exponent)
                    for exponent in ((-301, 0) if digits == 12000 else (-301, -1, 0, 2, 77))]
        if name == "quotient":
            with ctx.wide.local():
                results += [quotient(x, _operand(rng, ctx.working_digits + 25, rng.randrange(-50, 51)))
                            for x in operands]
        elif digits == 12000:
            continue
        elif name == "_inverse_root":
            with ctx.wide.local():
                results += [precision._inverse_root(x, n) for x in operands for n in (1, 2, 3, 4, 6, 12)]
        elif name == "nth_root":
            results += [nth_root(x, n, ctx) for x in operands for n in (2, 3, 4)]
        else:
            results += [pow_rational(x, Fraction(p, q), ctx) for x in operands
                        for q in SUPPORTED_DENOMINATORS for p in (1, -1, 5, -8)]
    return results


class TestKernelBits:
    """Every bit of the root kernel's results is frozen: a change to the kernel
    that keeps every Decimal operation, operand and precision keeps them."""

    @pytest.mark.parametrize("name", sorted(frozen.KERNEL_BITS))
    def test_results_keep_their_bits(self, name):
        text = "\n".join(map(str, kernel_results(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == frozen.KERNEL_BITS[name]


class TestKernelOverhead:
    """A root or power copies the decimal context once, and builds each Newton
    schedule once per precision."""

    @pytest.mark.parametrize("exponent", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(-1, 4),
                                          Fraction(-8, 3), Fraction(5, 12), Fraction(3), Fraction(-1)])
    def test_a_power_at_150_digits_copies_the_context_once(self, monkeypatch, exponent):
        ctx = PrecisionContext(150)
        copies = []
        monkeypatch.setattr(precision, "localcontext",
                            lambda *args: copies.append(args) or localcontext(*args))
        x = Decimal(7) / 3
        power = (nth_root(x, exponent.denominator, ctx) if exponent.numerator == 1
                 else pow_rational(x, exponent, ctx))
        assert power > 0 and len(copies) == 1

    def test_a_schedule_is_built_once_per_precision(self):
        _newton_schedule.cache_clear()
        ctx = PrecisionContext(150)
        first = nth_root(Decimal(7), 3, ctx)
        built = _newton_schedule.cache_info().misses
        assert nth_root(Decimal(7), 3, ctx) == first and built
        assert _newton_schedule.cache_info().misses == built


class TestFixed:
    """Binary fixed point, the chain's number type between the crossovers:
    its roots, quotients and conversions against exact Decimal arithmetic."""

    BITS = 2_000
    EXACT = Context(prec=1_000, Emin=-10**6, Emax=10**6)

    def exact(self, x):
        return self.EXACT.divide(Decimal(x.v), self.EXACT.power(2, x.f))

    def units(self, got, want, x):
        """|got - want| in units of 2**-f."""
        return abs(self.EXACT.multiply(self.EXACT.subtract(got, want), self.EXACT.power(2, x.f)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_root_is_within_two_units_relatively(self, n):
        rng = random.Random(n)
        f = self.BITS
        for value in ("0.7", "1", "1.3", "3.9", "0.005", "1e-6", "1e-12"):
            v = int(Decimal(value).scaleb(30)) * (1 << f) // 10**30 + rng.getrandbits(f // 2)
            x = precision.Fixed(v, f)
            root = x.root(n)
            want = self.EXACT.power(self.exact(x), self.EXACT.divide(1, n))
            # two units of r 2**-f relatively: within two units of 2**-f near 1, fewer below
            assert self.units(self.exact(root), want, x) <= 2 * max(want, 1), (n, value)

    def test_two_to_the_minus_one_over_m(self):
        for m in (2, 3, 4):
            b0 = precision.Fixed(2 << self.BITS, self.BITS).inverse_root(m)
            want = self.EXACT.power(2, self.EXACT.divide(-1, m))
            assert self.units(self.exact(b0), want, b0) <= 4, m

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_an_inverse_root_keeps_its_relative_precision_at_any_size(self, n):
        rng = random.Random(n)
        f = self.BITS
        for value in ("3.7e-5", "0.003", "0.2", "0.7", "1", "1.9", "500", "1e-12"):
            v = int(Decimal(value).scaleb(30)) * (1 << f) // 10**30 + rng.getrandbits(f // 2)
            x = precision.Fixed(v, f)
            y = x.inverse_root(n)
            want = self.EXACT.power(self.exact(x), self.EXACT.divide(-1, n))
            # two units of y 2**-f relatively, whatever the size of x
            assert self.units(self.exact(y), want, x) <= 2 * max(want, 1), (n, value)

    @staticmethod
    def exact_power_inverse_root_bits(x, f, n, p):
        """precision._inverse_root_bits with y**n exact at every Newton step."""
        if p <= precision._SEED_BITS:
            return precision._inverse_root_bits(x, f, n, p)
        h = p // 2 + precision._HALF_GUARD_BITS
        y = TestFixed.exact_power_inverse_root_bits(x, f, n, h)
        miss = (1 << p) - (precision._bits(x, f, p) * precision._bits(y**n, n * h, p) >> p)
        return (y << p - h) + (y * miss >> h) // n

    @pytest.mark.parametrize("bits", [5_000, 30_000, 66_900])
    def test_a_ninth_roots_power_is_cut_and_lower_roots_keep_their_bits(self, bits):
        # y**n of n <= 4 stays exact, bit for bit; the ninth root's y**9, by
        # squarings cut to p + 8 bits, moves the root by at most two units
        rng = random.Random(bits)
        for value in ("3.7e-5", "0.7", "1", "1.9", "500"):
            v = int(Decimal(value).scaleb(30)) * (1 << bits) // 10**30 + rng.getrandbits(bits // 2)
            for n in (2, 3, 4):
                assert (precision._inverse_root_bits(v, bits, n, bits)
                        == self.exact_power_inverse_root_bits(v, bits, n, bits)), (n, value)
            k = (v.bit_length() - 1 - bits) // 9  # as Fixed.inverse_root cuts it
            want = self.exact_power_inverse_root_bits(v, bits + 9 * k, 9, bits - k + 9) >> 9
            assert abs(precision.Fixed(v, bits).inverse_root(9).v - want) <= 2, value

    @pytest.mark.parametrize("bits", [precision._QUOTIENT_BITS // 2, precision._QUOTIENT_BITS - 1,
                                      precision._QUOTIENT_BITS, precision._QUOTIENT_BITS + 1,
                                      3 * precision._QUOTIENT_BITS, 10 * precision._QUOTIENT_BITS])
    def test_a_quotient_is_within_two_units_of_the_floor_division(self, bits):
        # bits of quotient p = e(num) + f - e(den) + 1: operands of order 1 at f
        # fraction bits, as a chain's, and ones whose quotient is far below 1
        rng = random.Random(bits)
        for _ in range(40):
            f = bits + rng.randrange(-3, 4)
            num = rng.getrandbits(f + rng.randrange(-2, 3)) | 1
            den = rng.getrandbits(f + rng.randrange(-2, 3)) | 1 << f - 3
            if rng.random() < 0.3:  # a quotient of about 2**-40 of fewer bits, at more fraction bits
                num >>= 40
            if rng.random() < 0.3:  # operands at powers of two, where the seeds round
                den = (1 << f + rng.randrange(-2, 3)) - rng.randrange(0, 2)
            floor = (num << f) // den
            newton = num.bit_length() + f - den.bit_length() + 1 >= precision._QUOTIENT_BITS
            got = precision._quotient_bits(num, den, f)
            assert abs(got - floor) <= (2 if newton else 0), (bits, f)

    def test_the_newton_quotient_starts_at_its_crossover(self, monkeypatch):
        reciprocals = []
        original = precision._inverse_root_bits
        monkeypatch.setattr(precision, "_inverse_root_bits",
                            lambda x, f, n, p: reciprocals.append(n) or original(x, f, n, p))
        f = precision._QUOTIENT_BITS
        for num in (1 << f - 2, 1 << f - 1):  # quotients of f - 1 and f bits, by 1
            precision._quotient_bits(num, 1 << f, f)
        assert reciprocals[:1] == [1] and len(set(reciprocals)) == 1
        reciprocals.clear()
        precision._quotient_bits(1 << f - 2, 1 << f, f)
        assert reciprocals == []

    @pytest.mark.parametrize("num, den, want", [
        ("1", "2", Fraction(1, 2)), ("2", "3", Fraction(2, 3)), ("1e-6", "1", Fraction(1, 10**6)),
        ("3e-500000000000060", "9e-500000000000059", Fraction(1, 30)),
        ("0.333", "1000e-3", Fraction(333, 1000)),
    ])
    def test_a_ratio_of_axes_rounds_down_once_whatever_their_exponents(self, num, den, want):
        x = precision.Fixed.ratio(Decimal(num), Decimal(den), self.BITS)
        assert x.v == want.numerator * 2**self.BITS // want.denominator

    def test_arithmetic_rounds_toward_minus_infinity(self):
        f = 64
        a, b = precision.Fixed(3 << f - 1, f), precision.Fixed(7 << f - 3, f)  # 1.5, 0.875
        assert (a + b).v == 19 << f - 3 and (a - b).v == 5 << f - 3
        assert (a * b).v == 21 << f - 4 and (3 * b).v == 21 << f - 3
        assert (a / b).v == (12 << f) // 7 and (a / 3).v == 1 << f - 1
        assert (b ** 2).v == 49 << f - 6
        assert a == precision.Fixed(3 << f - 1, f) and a != b and not precision.Fixed(0, f)

    @pytest.mark.parametrize("value", ["1", "0.5", "0.7071067811865475244008443621", "1e-6",
                                       "12345.678", "3e-40"])
    def test_rounded_and_head_convert_under_their_own_contexts(self, value):
        f = 20_000
        x = precision.Fixed(int(Context(prec=40).scaleb(Decimal(value), 60)) * (1 << f) // 10**60
                            + 12345, f)
        ctx = PrecisionContext(5_000)
        want = self.exact_at(x, ctx.working_digits + 60)
        with localcontext(Context(prec=6, Emin=-60, Emax=60)):
            rounded, head = x.rounded(ctx), x.head()
        assert rounded == ctx.real(want)
        assert abs(head - want) <= abs(want) * Decimal("1e-29")
        assert len(head.as_tuple().digits) <= 30

    @staticmethod
    def exact_at(x, digits):
        c = Context(prec=digits, Emin=-10**6, Emax=10**6)
        return c.divide(Decimal(x.v), c.power(2, x.f))
