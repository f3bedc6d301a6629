import itertools
import random
import time
from decimal import Context, Decimal, Inexact, localcontext
from fractions import Fraction

import pytest

import frozen
from oracles import (
    assert_invariant_accurate,
    fraction_to_decimal,
    invariant_decimal,
    reference_context,
    series_sum_decimal,
    series_sum_fraction,
)
from replica import (
    DomainError,
    PrecisionContext,
    SlowConvergenceError,
    UnsupportedParameterError,
    couple_product,
    ellipse_factor,
)
from replica import precision, series
from replica.precision import make_context, matching_digits
from replica.series import evaluate_series

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def series_at(ctx, s, a, b, z):
    """S(a, b; z) for the couple (s, 1 - s): evaluate_series at w = 0."""
    return evaluate_series(s, Fraction(0), ctx.real(a), ctx.real(b), ctx.real(z), ctx)


def pair_sum(ctx, p, q, a, b, z):
    """S(a, b; z) for any Pochhammer pair (p, q), from the term loop itself."""
    return series._sums(p, q, ctx.real(a), ctx.real(b), ctx.real(z), ctx)[1]


def couple(s, ctx):
    """(s0, s1): the weight-(1, 0) and weight-(0, 1) series at z = 1/2, one call each."""
    return series_at(ctx, s, 1, 0, HALF), series_at(ctx, s, 0, 1, HALF)


class TestEvaluateSeries:
    """evaluate_series at w = 0 is S(a, b; z) for a couple; the checks on general
    pairs (p, q) call the term loop ``_sums`` directly."""

    def test_z_zero_returns_constant_weight(self):
        ctx = make_context(60, 2)
        a = ctx.real("2.75")
        assert series_at(ctx, HALF, "2.75", 3, 0) == a

    def test_geometric_series(self):
        ctx = make_context(80, 2)
        value = pair_sum(ctx, Fraction(1), Fraction(1), 1, 0, HALF)
        assert matching_digits(value, Decimal(2)) >= ctx.working_digits - 2

    def test_central_value_at_half(self):
        ctx = make_context(300, 2)
        value = series_at(ctx, HALF, 1, 0, HALF)
        assert str(value).startswith(frozen.S0_HALF[:250])

    def test_rejects_z_at_one(self):
        ctx = make_context(60, 2)
        with pytest.raises(DomainError, match="series argument z must be < 1"):
            series_at(ctx, HALF, 1, 0, 1)
        with pytest.raises(DomainError, match="series argument z must be < 1"):
            series_at(ctx, HALF, 1, 0, "1.5")

    def test_rejects_negative_z(self):
        ctx = make_context(60, 2)
        with pytest.raises(DomainError):
            series_at(ctx, HALF, 1, 0, "-0.25")

    def test_rejects_non_finite_weights(self):
        ctx = make_context(60, 2)
        for a, b in (("Infinity", 0), (1, "-Infinity"), ("NaN", 0)):
            with pytest.raises(DomainError):
                series_at(ctx, HALF, a, b, HALF)

    def test_rejects_bad_pochhammer(self):
        # only the couples (1/2, 1/2) and (1/3, 2/3), which the stopping rule's
        # proof covers, are summed
        ctx = make_context(60, 2)
        for s in (Fraction(0), Fraction(1, 4), Fraction(3, 2)):
            with pytest.raises(UnsupportedParameterError):
                series_at(ctx, s, 1, 0, 0)

    def test_against_exact_rational_sums(self):
        # stated tail bound: absolute truncation error <= 10**(-wd + 2)
        ctx = make_context(80, 2)
        rng = random.Random(424242)
        params = [HALF, THIRD, Fraction(2, 3), Fraction(1)]
        for _ in range(12):
            p, q = rng.choice(params), rng.choice(params)
            a = Fraction(rng.randint(-400, 400), 100)
            b = Fraction(rng.randint(-400, 400), 100)
            z = Fraction(rng.randint(0, 89), 100)
            got = pair_sum(ctx, p, q, a, b, z)
            want = fraction_to_decimal(
                series_sum_fraction(p, q, a, b, z, ctx.working_digits),
                ctx.working_digits + 10,
            )
            with ctx.local():
                defect = abs(got - want)
            assert defect <= ctx.epsilon(4)

    def test_weights_are_not_rounded_to_the_callers_context(self):
        # |a| and |b| are taken exactly: rounded to a 1-digit context, |3.01|
        # would be 3, below the bound A = ceil(|a|) the stopping rule needs, and
        # a weight of W + 40 digits would trap Inexact
        ctx = make_context(60, 2)
        with ctx.elevated(40):
            long_weight = Decimal(2) / 3
        args = HALF, Fraction(0), Decimal("3.01"), long_weight, Fraction(3, 4), ctx
        with localcontext(Context()):
            want = evaluate_series(*args)
        for context in (Context(prec=1), Context(traps=[Inexact])):
            with localcontext(context):
                assert evaluate_series(*args) == want

    def test_truncation_bound_certified(self):
        # replay the stopping rule in exact rational arithmetic: the tail cut
        # off at the stopping index is below the claimed truncation bound
        ctx = make_context(120, 2)
        p = q = HALF
        a, b, z = Fraction(1), Fraction(2), Fraction(3, 4)
        tol = Fraction(1, 10**ctx.working_digits)
        term, partial, k = Fraction(1), Fraction(0), 0
        while True:
            partial += term * (a + b * k)
            if term * max(1, abs(a) + abs(b) * k) * z / (1 - z) * (1 + k) < tol:
                break
            term *= (p + k) * (q + k) * z / (1 + k) ** 2
            k += 1
        full = series_sum_fraction(p, q, a, b, z, ctx.working_digits + 20)
        truncation = abs(full - partial)
        assert truncation < Fraction(1, 10 ** (ctx.working_digits - 2))
        # and the decimal evaluation lands within rounding distance of the
        # exact partial sum it is supposed to compute
        got = series_at(ctx, p, a, b, z)
        want = fraction_to_decimal(full, ctx.working_digits + 10)
        with PrecisionContext(ctx.target_digits, 2 * ctx.guard_digits).local():
            assert abs(got - want) <= ctx.epsilon(4)


class TestRamanujanCouple:
    def test_half_values(self):
        s0, s1 = couple(HALF, make_context(400, 2))
        assert str(s0).startswith(frozen.S0_HALF[:350])
        assert str(s1).startswith(frozen.S1_HALF[:350])

    def test_third_values(self):
        s0, s1 = couple(THIRD, make_context(400, 3))
        assert str(s0).startswith(frozen.S0_THIRD[:350])
        assert str(s1).startswith(frozen.S1_THIRD[:350])

    def test_invariants(self):
        for s, order in ((HALF, 2), (THIRD, 3)):
            s0, s1 = couple(s, make_context(60, order))
            assert s0 > 1
            assert 0 < s1 < s0

    def test_unsupported_parameter(self):
        ctx = make_context(60, 2)
        with pytest.raises(UnsupportedParameterError):
            couple_product(Fraction(1, 4), Fraction(1), ctx)
        with pytest.raises(UnsupportedParameterError):
            couple_product(Fraction(1, 6), Fraction(1), ctx)


class TestCoupleProduct:
    def test_reciprocal_pi(self):
        ctx = make_context(500, 2)
        value = couple_product(HALF, Fraction(1), ctx)
        with ctx.local():
            recip = 1 / value
        assert str(recip).startswith(frozen.PI[:450])

    def test_w_zero_is_s1(self):
        ctx = make_context(100, 2)
        assert couple_product(HALF, Fraction(0), ctx) == couple(HALF, ctx)[1]

    def test_frozen_sweep(self):
        for (s_txt, w_txt), digits in frozen.COUPLE_PRODUCTS.items():
            s, w = Fraction(s_txt), Fraction(w_txt)
            ctx = make_context(180, 3 if s == THIRD else 2)
            value = couple_product(s, w, ctx)
            assert str(value).startswith(digits[:170]), (s, w)

    def test_closed_form_cross_identity(self):
        # cp(3) * cp(1/3)**3 == cp(1)**4 for s = 1/2 (reflection-formula fact
        # expressible purely between series values)
        ctx = make_context(200, 2)
        with ctx.local():
            lhs = couple_product(HALF, Fraction(3), ctx) * couple_product(HALF, THIRD, ctx) ** 3
            rhs = couple_product(HALF, Fraction(1), ctx) ** 4
        assert matching_digits(lhs, rhs) >= ctx.working_digits - 10

    @pytest.mark.parametrize("s", [HALF, THIRD], ids=["half", "third"])
    def test_refuses_the_w_a_run_refuses(self, s):
        # the w rule of run_borwein, before any term is summed
        ctx = make_context(50, 2)
        for w in (Fraction(10**17), Fraction(-(10**17)), Fraction(1, 5), "1e17"):
            with pytest.raises(UnsupportedParameterError):
                couple_product(s, w, ctx)
            with pytest.raises(UnsupportedParameterError):
                evaluate_series(s, w, ctx.real(1), ctx.real(2), HALF, ctx)
        # s0**w s1 * s0**(-w) s1 = s1**2 at the edge of the range
        up, down = (couple_product(s, Fraction(w), ctx) for w in (10**16, -(10**16)))
        with ctx.local():
            assert matching_digits(up * down, couple(s, ctx)[1] ** 2) >= ctx.target_digits

    def test_third_product_value(self):
        # s0 * s1 at s = 1/3 equals sqrt(3)/(2 pi)
        ctx = make_context(200, 3)
        s0, s1 = couple(THIRD, ctx)
        with ctx.local():
            product = s0 * s1
        assert str(product).startswith("0.27566444771089")
        assert str(product).startswith(frozen.COUPLE_PRODUCTS[("1/3", "1")][:190])


class TestOnePass:
    """_sums sums S(1, 0) and S(a, b) in one pass of fixed-point integer terms;
    every value matches the Decimal reference loop run 40 digits above it, each
    series summed alone: to W - 1 digits, or within the power's bound for w != 0."""

    def test_term_loop_matches_the_reference_loop(self):
        # pairs other than (s, 1 - s), such as couple_product's (1/12, 5/12), take z
        # up to 1/3, where the stopping rule is proved for any p and q in (0, 1]
        ctx = make_context(80, 2)
        rng = random.Random(707)
        params = [HALF, THIRD, Fraction(2, 3), Fraction(1)]
        transformed = [Fraction(1, 4), Fraction(3, 4), Fraction(1, 12), Fraction(5, 12)]
        for _ in range(40):
            p, q = rng.choice(params + transformed), rng.choice(params + transformed)
            a, b = ctx.real(Fraction(rng.randint(-400, 400), 100)), ctx.real(rng.randint(-40, 40))
            top = Fraction(1, 3) if {p, q} & set(transformed) else Fraction(95, 100)
            z = ctx.real(top * Fraction(rng.randint(0, 100), 100))
            got = series._sums(p, q, a, b, z, ctx)[1]
            want = series_sum_decimal(p, q, a, b, z, reference_context(ctx))
            assert matching_digits(got, want) >= ctx.working_digits - 1, (p, q, a, b, z)

    @pytest.mark.parametrize("digits", [1, 50, 500])
    @pytest.mark.parametrize("w", ["0", "1", "-1/2", "1/3", "3"])
    @pytest.mark.parametrize("s", [HALF, THIRD])
    def test_couple_product_matches_the_two_pass_product(self, s, w, digits):
        ctx = make_context(digits, 3 if s == THIRD else 2)
        w = Fraction(w)
        got = couple_product(s, w, ctx)
        want = invariant_decimal(s, w, Decimal(0), Decimal(1), Decimal("0.5"),
                                 reference_context(ctx))
        assert_invariant_accurate(got, want, w, ctx)

    @pytest.mark.parametrize("digits", [1, 50, 500, 5000])
    @pytest.mark.parametrize("w", ["0", "1", "-1/2", "1/3", "3", "10000000000000000",
                                   "-10000000000000000"])
    @pytest.mark.parametrize("s", [HALF, THIRD])
    def test_couple_product_matches_the_direct_sum(self, s, w, digits):
        # the sum over (1/12, 5/12) at u = 8/1331 or -9/64000 against
        # evaluate_series's sum of the same couple at z = 1/2, a second summation
        # with no transformation
        ctx = make_context(digits, 3 if s == THIRD else 2)
        w = Fraction(w)
        direct = evaluate_series(s, w, ctx.real(0), ctx.real(1), HALF, ctx)
        assert matching_digits(couple_product(s, w, ctx), direct) >= ctx.working_digits - 1

    @pytest.mark.parametrize("semi_major, semi_minor", [
        ("2", "1"), ("1", "0.2"), ("1", "0.1"), ("7", "5"), ("0.7", "0.35"),
    ])
    @pytest.mark.parametrize("digits", [1, 50, 500])
    def test_ellipse_factor_is_the_weight_1_2_series(self, semi_major, semi_minor, digits):
        ctx = make_context(digits, 4)
        a, b = Fraction(semi_major), Fraction(semi_minor)
        z = fraction_to_decimal(1 - (b / a) ** 2, ctx.working_digits + 40)
        want = series_sum_decimal(HALF, HALF, Decimal(1), Decimal(2), z, reference_context(ctx))
        factor = ellipse_factor(ctx.real(semi_major), ctx.real(semi_minor), ctx)
        assert matching_digits(factor, want) >= ctx.working_digits - 1
        spec_value = evaluate_series(HALF, Fraction(0), ctx.real(1), ctx.real(2), z, ctx)
        assert matching_digits(spec_value, want) >= ctx.working_digits - 1


class TestTermCap:
    def test_unreachable_cap_is_refused_up_front(self):
        # z = 0.99 at 9 112 working digits needs more than the 2 000 000 terms
        # the loop allows, and summing that many takes minutes
        ctx = make_context(9000, 4)
        start = time.perf_counter()
        with pytest.raises(SlowConvergenceError, match="cannot certify in"):
            series_at(ctx, HALF, 1, 2, Fraction(99, 100))
        assert time.perf_counter() - start < 1

    def test_couples_certify_in_few_terms(self, monkeypatch):
        # at 5 160 working digits z = 1/2 takes 17 184 terms, but the couples sum
        # at u = 8/1331 and u = -9/64000 (and 5 170 digits) in 2 336 and 1 344,
        # inside a 2 500-term cap that refuses the direct sum up front
        ctx = make_context(5000, 2)
        want = {s: couple_product(s, Fraction(1), ctx) for s in (HALF, THIRD)}
        monkeypatch.setattr(series, "_MAX_TERMS", 2_500)
        for s in (HALF, THIRD):
            assert couple_product(s, Fraction(1), ctx) == want[s]
            with pytest.raises(SlowConvergenceError, match="cannot certify in 2500 terms"):
                evaluate_series(s, Fraction(1), ctx.real(0), ctx.real(1), HALF, ctx)

    def test_ellipse_refusal_names_z_and_h(self):
        # at 400 000 digits even h = (9/11)^2 needs more than 2 000 000 terms; the
        # refusal comes before any term, and names the ellipse's z and the h summed
        ctx = make_context(400_000, 4)
        start = time.perf_counter()
        with pytest.raises(SlowConvergenceError) as refusal:
            ellipse_factor(ctx.real(1), ctx.real("0.1"), ctx)
        assert time.perf_counter() - start < 1
        message = str(refusal.value)
        assert "series argument 0.669421487603305785" in message
        assert "h = ((a - b)/(a + b))^2" in message and "z = 1 - b^2/a^2 = 0.99" in message

    def test_ellipse_factor_at_the_z_limit_sums_in_few_terms(self, monkeypatch):
        # z = 0.99 at 8 612 working digits takes 1 974 910 terms at z, but the
        # factor sums at h = (9/11)^2 in 49 446, inside a 60 000-term cap
        monkeypatch.setattr(series, "_MAX_TERMS", 60_000)
        ctx = make_context(8500, 4)
        factor = ellipse_factor(ctx.real(1), ctx.real("0.1"), ctx)
        low = make_context(100, 4)
        want = ellipse_factor(low.real(1), low.real("0.1"), low)
        assert matching_digits(factor, want) >= low.working_digits - 1

    def test_up_front_refusal_only_where_the_loop_would_hit_the_cap(self, monkeypatch):
        # with a cap of 300 terms, replay the stopping rule exactly: every sum
        # refused up front stops after the cap, and sums just inside it still run
        cap = 300
        monkeypatch.setattr(series, "_MAX_TERMS", cap)
        p = q = HALF
        a, b, z = Fraction(1), Fraction(2), Fraction(1, 2)
        outcomes = set()
        for guard in range(40, 100):
            ctx = PrecisionContext(20, guard)
            tol = Fraction(1, 10**ctx.working_digits)
            term, k = Fraction(1), 0
            while term * max(1, abs(a) + abs(b) * k) * z / (1 - z) * (1 + k) >= tol:
                term *= (p + k) * (q + k) * z / (1 + k) ** 2
                k += 1
            try:
                series_at(ctx, p, a, b, z)
                outcomes.add("summed")
                assert k <= cap
            except SlowConvergenceError as exc:
                assert k > cap
                outcomes.add("refused" if "cannot certify in" in str(exc) else "capped")
        assert outcomes == {"summed", "refused", "capped"}

    def test_floors_never_stop_a_sum_early(self, monkeypatch):
        # with 3 guard digits the floored terms sit as far from the true ones as
        # the rule's margin (on either side, for z < 0); the rule must still never
        # stop before the exact one, so with the cap one term short of the exact
        # stopping index every sum raises
        monkeypatch.setattr(series, "_TERM_GUARD_DIGITS", 3)
        p = q = HALF
        a, b = Fraction(1), Fraction(2)
        for z, guard in itertools.product((HALF, -HALF, Fraction(-3, 4)), range(40, 80)):
            ctx = PrecisionContext(20, guard)
            k = replay_stop(p, q, a, b, z, ctx.working_digits, 1)[0]
            monkeypatch.setattr(series, "_MAX_TERMS", k - 1)
            with pytest.raises(SlowConvergenceError):
                series._sums(p, q, ctx.real(a), ctx.real(b), z, ctx)


def replay_stop(p, q, a, b, z, working_digits, block):
    """Replay the stopping rule |t_k| max(1, |a| + |b| k) |z|/(1-|z|) (1+k) < 10**-W
    in exact integers, for -1 < z < 1: the first k at which it holds, the first
    block start (k = 0, block, 2 block, ...) at which it holds, and the exact
    partial sums of t_j and of j t_j for j up to that start, both to 10**-(W + 60).

    t_k 10**W = num/den, and the sums are over the same den."""
    zn, zd = z.numerator, z.denominator
    num = sum0 = 10**working_digits
    den = 1
    sum1 = 0
    first = None
    k = 0
    while True:
        weight = max(Fraction(1), abs(a) + abs(b) * k)
        left = weight.numerator * abs(zn) * (1 + k)
        right = weight.denominator * (zd - abs(zn))
        # the bit lengths alone settle the comparison while terms are large
        if (num.bit_length() + left.bit_length() <= den.bit_length() + right.bit_length() + 1
                and abs(num) * left < den * right):
            first = k if first is None else first
            if k % block == 0:
                scale = 10 ** (working_digits + 60)
                return (first, k, Fraction(sum0 * scale // (den * 10**working_digits), scale),
                        Fraction(sum1 * scale // (den * 10**working_digits), scale))
        ratio_num = zn * (p.numerator + k * p.denominator) * (q.numerator + k * q.denominator)
        ratio_den = zd * p.denominator * q.denominator * (1 + k) ** 2
        num *= ratio_num
        den *= ratio_den
        k += 1
        sum0 = sum0 * ratio_den + num
        sum1 = sum1 * ratio_den + k * num


class TestBlockLength:
    """A sum takes ``_BLOCK_TERMS`` terms per division only for a long term and
    short term ratios; a long zd, from a z of many digits, keeps one term per
    division, and the sums match the Decimal reference loop either way."""

    CTX = PrecisionContext(2000 - 32, 32)

    def first_term(self):
        return 10 ** (self.CTX.working_digits + series._TERM_GUARD_DIGITS + 1)

    def test_short_ratios_at_2000_digits_take_blocks(self):
        # z = 3/4 and s = 1/2: d_k = 16 (1 + k)^2
        assert series._block_length(self.first_term(), 16) == series._BLOCK_TERMS

    def test_short_terms_take_one_term(self):
        assert series._block_length(10**200, 16) == 1

    @pytest.mark.parametrize("s", [HALF, THIRD])
    @pytest.mark.parametrize("z, n", [
        ("0.123456789012", series._BLOCK_TERMS),  # zd of 38 bits, d_k of 2 or 3 words
        (None, 1),                                # 0.01 and 1 998 random digits
    ])
    def test_sums_match_the_reference_loop_at_2000_digits(self, s, z, n):
        ctx = self.CTX
        if z is None:
            rng = random.Random(2000)
            z = "0.01" + "".join(rng.choice("0123456789") for _ in range(1998))
        z = Decimal(z)
        exact_z = Fraction(z)
        zpq = exact_z.denominator * s.denominator * (1 - s).denominator
        assert series._block_length(self.first_term(), zpq) == n
        a, b = ctx.real(1), ctx.real(2)
        got0, got = series._sums(s, 1 - s, a, b, exact_z, ctx)
        ref = reference_context(ctx)
        for value, weights in ((got0, (1, 0)), (got, (1, 2))):
            want = series_sum_decimal(s, 1 - s, *map(Decimal, weights), z, ref)
            assert matching_digits(value, want) >= ctx.working_digits - 1, weights


class TestBlocks:
    """In blocks a sum takes ``_BLOCK_TERMS`` terms per division and checks its
    stopping rule only at block starts: the first term of a block is added before
    the rule is checked, and no block passes the term cap.

    The edge cases need a tiny z, whose long zd would send a sum one term per
    division, so every test here sets the block length itself."""

    BLOCK = series._BLOCK_TERMS
    CTX = PrecisionContext(2000 - 32, 32)

    @pytest.fixture(autouse=True)
    def in_blocks(self, monkeypatch):
        monkeypatch.setattr(series, "_block_length", lambda term, zpq: self.BLOCK)

    @pytest.mark.parametrize("n", [1, BLOCK])
    @pytest.mark.parametrize("digits, tiny", [(100, "1e-500"), (1000, "1e-2000")])
    def test_rule_holding_at_the_first_term_keeps_it(self, digits, tiny, n, monkeypatch):
        # at z = 0 and at z < 10**-W the rule holds at k = 0, and t_0 = 1 is the sum
        monkeypatch.setattr(series, "_block_length", lambda term, zpq: n)
        ctx = make_context(digits, 2)
        a, b = ctx.real("2.75"), ctx.real(3)
        for z in (Fraction(0), Fraction(tiny)):
            assert series._sums(HALF, HALF, a, b, z, ctx) == (1, a)

    @pytest.mark.parametrize("stop", [BLOCK - 1, BLOCK, BLOCK + 1, None])
    def test_block_sums_match_the_exact_partial_sums(self, stop):
        # replay the rule in exact rationals: where it first holds (stop), and the
        # first block start where it holds, through which the sums must be exact to
        # within the floor and rounding bounds stated on series._sums, which hold on
        # either side for z < 0
        ctx, block = self.CTX, self.BLOCK
        working = ctx.working_digits
        p = q = HALF
        a, b = Fraction(1), Fraction(2)
        if stop is None:
            size = Fraction(3, 4)
        else:
            # z = 10**-e stops at about W/e - 1 terms; find the e that stops at `stop`
            size = next(Fraction(1, 10**e) for e in range(40, 80)
                        if replay_stop(p, q, a, b, Fraction(1, 10**e), working, 1)[0] == stop)
        for z in (size, -size):
            first, last, exact0, exact1 = replay_stop(p, q, a, b, z, working, block)
            if stop is None:
                assert first > 10_000
            else:
                assert last == -(-stop // block) * block
            assert 0 <= last - first < block
            got0, got = series._sums(p, q, ctx.real(a), ctx.real(b), z, ctx)
            exact = a * exact0 + b * exact1
            guard = series._TERM_GUARD_DIGITS
            k = last
            replay = Fraction(1 + abs(a) + abs(b), 10 ** (working + 60))
            floor0 = Fraction(k * (k + 3), 2 * 10 ** (working + guard + 1))
            floor = Fraction(k * (k + 1) * (k + 2) // 3 + k * (k + 1), 10 ** (working + guard))
            forming = Fraction(10, 10 ** (working + guard)) * (abs(a) * exact0 + abs(b) * exact1)
            for value, want, bound in ((got0, exact0, floor0),
                                       (got, exact, floor + forming)):
                half_ulp = Fraction(5, 10 ** (working - value.adjusted()))
                assert abs(Fraction(value) - want) <= bound + half_ulp + replay, z

    def test_the_cap_ends_a_block(self, monkeypatch):
        # with the cap one term past the first block, a sum raises exactly when the
        # exact stopping index passes the cap, and the rule is checked at the cap
        cap = self.BLOCK + 1
        monkeypatch.setattr(series, "_MAX_TERMS", cap)
        ctx = self.CTX
        p = q = HALF
        a, b = Fraction(1), Fraction(2)
        outcomes = set()
        for e in range(55, 62):
            for m in (1, 2, 4, 7):
                z = Fraction(1, m * 10**e)
                k = replay_stop(p, q, a, b, z, ctx.working_digits, 1)[0]
                try:
                    series._sums(p, q, ctx.real(a), ctx.real(b), z, ctx)
                    outcomes.add(k)
                    assert k <= cap
                except SlowConvergenceError as exc:
                    assert k > cap
                    if "did not certify after" in str(exc):
                        outcomes.add("capped")
        assert {cap - 1, cap, "capped"} <= outcomes


class TestSignedSums:
    """_sums takes -1 < z < 1: at z < 0 the terms, their block ratios and both sums
    are signed ints, and each sum matches the Decimal reference loop run 40 digits
    above it, in blocks and one term per division alike."""

    @pytest.mark.parametrize("n", [1, series._BLOCK_TERMS])
    @pytest.mark.parametrize("digits", [60, 600, 3000])
    @pytest.mark.parametrize("p, q, a, b, z", [
        (Fraction(1, 12), Fraction(5, 12), 31, 1012, Fraction(-9, 64000)),
        (Fraction(1, 12), Fraction(5, 12), "-2.5", 7, Fraction(-1, 5)),
        (HALF, HALF, 1, 2, Fraction(-3, 4)),
        (THIRD, Fraction(2, 3), 0, 1, Fraction(-1, 2)),
    ], ids=["u", "third", "half", "couple"])
    def test_sums_match_the_reference_loop(self, p, q, a, b, z, digits, n, monkeypatch):
        monkeypatch.setattr(series, "_block_length", lambda term, zpq: n)
        ctx = make_context(digits, 2)
        ref = reference_context(ctx)
        exact_z = fraction_to_decimal(z, ref.working_digits)
        got0, got = series._sums(p, q, ctx.real(a), ctx.real(b), z, ctx)
        for value, weights in ((got0, (1, 0)), (got, (a, b))):
            want = series_sum_decimal(p, q, *map(Decimal, weights), exact_z, ref)
            assert matching_digits(value, want) >= ctx.working_digits - 1, weights

    @pytest.mark.parametrize("z", [Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 100)])
    def test_stops_where_the_exact_rule_first_holds(self, z, monkeypatch):
        # one term per division, a sum stops at the first k where the exact rule
        # |t_k| max(1, |a| + |b| k) |z|/(1-|z|) (1+k) < 10**-W holds: with the cap
        # one term short of it every sum raises, and with the cap there it sums
        monkeypatch.setattr(series, "_block_length", lambda term, zpq: 1)
        p = q = HALF
        a, b = Fraction(1), Fraction(2)
        for guard in range(40, 60):
            ctx = PrecisionContext(20, guard)
            k = replay_stop(p, q, a, b, z, ctx.working_digits, 1)[0]
            monkeypatch.setattr(series, "_MAX_TERMS", k - 1)
            with pytest.raises(SlowConvergenceError):
                series._sums(p, q, ctx.real(a), ctx.real(b), z, ctx)
            monkeypatch.setattr(series, "_MAX_TERMS", k)
            series._sums(p, q, ctx.real(a), ctx.real(b), z, ctx)

    def test_z_must_exceed_minus_one(self):
        ctx = make_context(60, 2)
        one = ctx.real(1)
        with pytest.raises(DomainError, match="series argument z must be > -1"):
            series._sums(HALF, HALF, one, one, Fraction(-1), ctx)
        assert series._sums(HALF, HALF, one, one, Fraction(-99, 100), ctx)[0] > 0


class TestToDecimal:
    """_sums converts its two fixed-point ints to Decimal by halves split at powers
    of two (``precision._to_decimal``, which a run's fixed-point chain converts its
    links with too); each value and its exponent are those of Decimal(int)."""

    SPLIT = precision._SPLIT_BITS

    @pytest.mark.parametrize("bits", [1, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT,
                                      2 * SPLIT + 1, 4 * SPLIT + 1, 13 * SPLIT + 7])
    def test_equals_decimal_of_the_int(self, bits):
        rng = random.Random(bits)
        for n in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1),
                  (1 << bits) - (1 << (bits // 2))):
            assert n.bit_length() == bits
            # a sum at z < 0 can be negative: its hi = n >> m is then negative
            for signed in (n, -n):
                assert precision._to_decimal(signed).as_tuple() == Decimal(signed).as_tuple()

    def test_zero(self):
        assert precision._to_decimal(0).as_tuple() == Decimal(0).as_tuple()

    def test_100_000_digits(self):
        n = random.Random(100_000).randrange(10**99_999, 10**100_000)
        assert precision._to_decimal(n).as_tuple() == Decimal(n).as_tuple()


class TestEllipseFactor:
    def test_circle(self):
        ctx = make_context(80, 2)
        assert ellipse_factor(ctx.real(3), ctx.real(3), ctx) == 1

    def test_two_to_one(self):
        ctx = make_context(400, 2)
        value = ellipse_factor(ctx.real(2), ctx.real(1), ctx)
        assert str(value).startswith(frozen.F21[:350])

    def test_scale_invariance(self):
        ctx = make_context(120, 2)
        base = ellipse_factor(ctx.real(2), ctx.real(1), ctx)
        scaled = ellipse_factor(ctx.real("0.7"), ctx.real("0.35"), ctx)
        assert matching_digits(base, scaled) >= ctx.working_digits - 4

    def test_z_is_exact_from_the_axes(self):
        # z = 5/9 has no finite decimal; the factor is the series at the exact z
        ctx = make_context(2000, 4)
        factor = ellipse_factor(ctx.real(3), ctx.real(2), ctx)
        z = fraction_to_decimal(Fraction(5, 9), ctx.working_digits + 40)
        want = series_sum_decimal(HALF, HALF, Decimal(1), Decimal(2), z, reference_context(ctx))
        assert matching_digits(factor, want) >= ctx.working_digits - 1
        for semi_major, semi_minor in (("0.3", "0.2"), ("3e50", "2e50")):
            assert ellipse_factor(ctx.real(semi_major), ctx.real(semi_minor), ctx) == factor

    @pytest.mark.parametrize("semi_major, semi_minor", [
        ("2", "1"), ("3", "2"), ("1", "0.1"), ("7", "5"), ("1", "0.999"),
    ])
    @pytest.mark.parametrize("digits", [1, 500])
    def test_factor_is_the_landen_series(self, semi_major, semi_minor, digits):
        # F(a, b) = c S(1, 4; h) with r = b/a, h = ((1 - r)/(1 + r))^2 and
        # c = 2/(r (1 + r)), each exact, against the reference loop at 40 digits more
        ctx = make_context(digits, 4)
        ref = reference_context(ctx)
        r = Fraction(semi_minor) / Fraction(semi_major)
        h, c = ((1 - r) / (1 + r)) ** 2, 2 / (r * (1 + r))
        c, c4, h = (fraction_to_decimal(x, ref.working_digits) for x in (c, 4 * c, h))
        want = series_sum_decimal(HALF, HALF, c, c4, h, ref)
        factor = ellipse_factor(ctx.real(semi_major), ctx.real(semi_minor), ctx)
        assert matching_digits(factor, want) >= ctx.working_digits - 1

    def test_slow_convergence_guard(self):
        ctx = make_context(80, 2)
        with pytest.raises(SlowConvergenceError):
            ellipse_factor(ctx.real(1), ctx.real("0.05"), ctx)

    def test_domain_errors(self):
        ctx = make_context(80, 2)
        with pytest.raises(DomainError):
            ellipse_factor(ctx.real(1), ctx.real(0), ctx)
        with pytest.raises(DomainError):
            ellipse_factor(ctx.real(1), ctx.real(2), ctx)
