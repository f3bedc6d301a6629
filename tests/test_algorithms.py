import hashlib
import json
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import frozen
from oracles import (
    REPLICATE,
    assert_invariant_accurate,
    decimal_sqrt,
    invariant_decimal,
    near_degenerate_perimeter,
    reference_context,
)
from replica import (
    CUBIC,
    QUADRATIC,
    QUARTIC,
    AlgorithmKind,
    DomainError,
    NonConvergenceError,
    PrecisionContext,
    UnsupportedParameterError,
    couple_product,
    ellipse_factor,
    make_context,
    postprocess_constant,
    replication_invariant,
    run_borwein,
    run_ellipse,
)
from replica import algorithms
from replica.algorithms import IterationState, _eccentric_steps, _sized, error_table
from replica import cli
from replica.cli import main
from replica.precision import (
    MIN_GUARD_DIGITS,
    matching_digits,
    nth_root,
    pow_rational,
    step_budget,
    to_sig_digits,
)
from replica.transforms import DESCEND

HALF = Fraction(1, 2)
ONE = Fraction(1)
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def synthetic_trace(errors, final):
    with localcontext() as c:
        c.prec = 300
        states = [
            IterationState(n, Decimal(0), Decimal(1), final + Decimal(e))
            for n, e in enumerate(errors)
        ]
    states.append(IterationState(len(errors), Decimal(0), Decimal(1), final))
    return states


class TestRunBorwein:
    def test_first_quadratic_step_exact_algebra(self):
        # d1 = 3 - 2 sqrt(2), c1 = 4, a1 = 20 sqrt(2) - 28
        ctx = make_context(150, 2)
        run = run_borwein(QUADRATIC, ONE, ctx)
        sqrt2 = decimal_sqrt(2, ctx.working_digits + 10)
        with ctx.local():
            d1_expected = 3 - 2 * sqrt2
            a1_expected = 20 * sqrt2 - 28
        state1 = run.trace[1]
        assert matching_digits(state1.d, d1_expected) >= ctx.working_digits - 3
        assert matching_digits(state1.c, Decimal(4)) >= ctx.working_digits - 3
        assert matching_digits(state1.a, a1_expected) >= ctx.working_digits - 3
        assert str(state1.a).startswith("0.2842712474619")

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_limit_matches_series_oracle(self, kind):
        ctx = make_context(250, kind.order)
        run = run_borwein(kind, ONE, ctx)
        oracle = couple_product(kind.couple_parameter, ONE, ctx)
        assert matching_digits(run.value, oracle) >= ctx.target_digits
        assert run.iterations <= step_budget(250, kind.order)
        assert run.value == run.trace[-1].a

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_trace_monotonic(self, kind):
        run = run_borwein(kind, Fraction(2), make_context(120, kind.order))
        ds = [st.d for st in run.trace]
        assert all(0 <= d < 1 for d in ds)
        assert all(b < a for a, b in zip(ds, ds[1:]))
        assert all(st.c > 0 for st in run.trace)

    def test_stopping_rule_two_small_deltas(self):
        ctx = make_context(200, 2)
        run = run_borwein(QUADRATIC, ONE, ctx)
        last, prev = run.trace[-1], run.trace[-2]
        for state in (last, prev):
            assert state.delta_exp is None or state.delta_exp <= -(ctx.target_digits + 9)

    def test_contraction_power_once_small(self):
        # d_{n+1} < d_n**m after d drops below 1/2
        for kind in (QUADRATIC, CUBIC, QUARTIC):
            run = run_borwein(kind, ONE, make_context(150, kind.order))
            with make_context(150, kind.order).local():
                for a, b in zip(run.trace, run.trace[1:]):
                    if 0 < a.d < Decimal("0.5") and b.d > 0:
                        assert b.d < a.d**kind.order

    def test_w_denominator_rejected(self, capsys):
        ctx = make_context(60, 2)
        with pytest.raises(UnsupportedParameterError, match="w must have a denominator dividing 12"):
            run_borwein(QUADRATIC, Fraction(1, 5), ctx)
        # The quartic step's power 2w - 2 = -23/12 has a supported denominator,
        # so only run_borwein's own check refuses w = 1/24.
        with pytest.raises(UnsupportedParameterError, match="w must have a denominator dividing 12"):
            run_borwein(QUARTIC, Fraction(1, 24), make_context(60, 4))
        assert main(["constant", "custom", "--w", "1/24", "--algorithm", "quartic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: w must have a denominator dividing 12\n"

    @pytest.mark.parametrize("w", [-10_000, -1_000, 1_000])
    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_stopping_rule_is_relative_to_the_limit(self, kind, w):
        # the limit is about 10**(0.07 w): an absolute rule stopped early (w < 0)
        # or never (w = 1000, quadratic)
        run = run_borwein(kind, Fraction(w), make_context(20, kind.order))
        oracle = couple_product(kind.couple_parameter, Fraction(w), run.ctx)
        assert matching_digits(run.value, oracle) >= run.ctx.target_digits

    def test_an_exponent_form_w_is_refused_before_its_integer_exists(self):
        # Fraction("1e40000000") builds 10**40000000, which takes minutes
        for text, message in (("1e40000000", "w is out of range"),
                              ("-1.5e40000000", "w is out of range"),
                              ("1e-40000000", "w must have a denominator dividing 12"),
                              ("-3e-40000000", "w must have a denominator dividing 12")):
            for w in (text, Decimal(text)):
                started = perf_counter()
                with pytest.raises(UnsupportedParameterError, match=message):
                    run_borwein(CUBIC, w, make_context(20, 3))
                assert perf_counter() - started < 0.1
        # p/q texts and decimals in range keep their exact value
        assert algorithms.as_weight("-3/12") == Fraction(-1, 4)
        assert algorithms.as_weight("1e16") == 10**16
        assert algorithms.as_weight(Decimal("-2.25")) == Fraction(-9, 4)
        assert algorithms.as_weight("0e-40000000") == 0
        assert algorithms.as_weight(Fraction(1, 3)) == Fraction(1, 3)
        for text in ("abc", "nan", "inf", "1e9999999999999999999999"):
            with pytest.raises(ValueError, match="w must be a number p/q or a decimal"):
                algorithms.as_weight(text)

    @pytest.mark.parametrize("w, message", [
        ("1/0", "w is out of range"), ("1/5", "w must have a denominator dividing 12"),
        ("0.1", "w must have a denominator dividing 12"),
        (Fraction(1, 7), "w must have a denominator dividing 12"),
        (10**16 + 1, "w is out of range"), ("-10000000000000001", "w is out of range"),
    ])
    def test_as_weight_states_the_w_rule(self, w, message):
        with pytest.raises(UnsupportedParameterError, match=message):
            algorithms.as_weight(w)

    def test_huge_w_is_refused_before_any_arithmetic(self, capsys):
        # a power of f with a numerator of 300 000 digits took seconds to overflow
        for w in (Fraction(10**16 + 1), Fraction(-12 * 10**16 - 1, 12), Fraction(10**300_000)):
            started = perf_counter()
            with pytest.raises(UnsupportedParameterError, match="w is out of range"):
                run_borwein(CUBIC, w, make_context(20, 3))
            assert perf_counter() - started < 0.1
        started = perf_counter()
        assert main(["constant", "custom", "--w", "1e300000", "--digits", "20"]) == 2
        assert perf_counter() - started < 1
        assert capsys.readouterr() == ("", "error: w is out of range: |w| must be at most 1e16\n")
        for kind in (QUADRATIC, CUBIC, QUARTIC):
            for w in (Fraction(10**16), Fraction(-(10**16))):
                run = run_borwein(kind, w, make_context(20, kind.order))
                oracle = couple_product(kind.couple_parameter, w, run.ctx)
                with run.ctx.local():  # the limit is beyond the default context's exponents
                    assert matching_digits(run.value, oracle) >= 20

    def test_non_convergence_carries_trace(self, monkeypatch):
        monkeypatch.setattr(algorithms, "step_budget", lambda target, order: 2)
        with pytest.raises(NonConvergenceError) as err:
            run_borwein(QUADRATIC, ONE, PrecisionContext(target_digits=100, guard_digits=48))
        assert len(err.value.trace) == 3

    def test_bad_order_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            AlgorithmKind(5)

    def test_small_target_runs_at_the_32_digit_floor(self):
        run = run_borwein(QUADRATIC, ONE, make_context(1, 2))
        assert run.ctx == make_context(32, 2)
        assert run.ctx.target_digits == 32
        assert (run.kind, run.w) == (QUADRATIC, ONE)
        ctx = make_context(32, 2)
        assert run_borwein(QUADRATIC, ONE, ctx).ctx is ctx

    def test_one_small_delta_is_not_a_certificate(self, monkeypatch):
        # the last delta is 0, the one before only 10**-85 > 10**-108
        monkeypatch.setattr(algorithms, "step_budget", lambda target, order: 5)
        with pytest.raises(NonConvergenceError) as err:
            run_borwein(QUARTIC, ONE, PrecisionContext(target_digits=100, guard_digits=88))
        assert [st.delta_exp for st in err.value.trace[1:]] == [-1, -4, -20, -85, None]


def measured_orders(trace, final, ctx):
    """The orders of :func:`error_table`, in row order."""
    return [order for _, order in error_table(trace, final, ctx) if order is not None]


class TestMeasureOrders:
    # working precision so wide that the noise floor cuts no synthetic error
    WIDE = PrecisionContext(target_digits=300, guard_digits=32)

    def test_exact_doubling(self):
        trace = synthetic_trace(["1e-2", "1e-4", "1e-8"], Decimal("0.5"))
        orders = measured_orders(trace, Decimal("0.5"), self.WIDE)
        assert orders == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_single_pair(self):
        trace = synthetic_trace(["1e-3", "1e-9"], Decimal("0.5"))
        assert measured_orders(trace, Decimal("0.5"), self.WIDE) == pytest.approx([3.0], abs=1e-9)

    def test_insufficient_trace(self):
        trace = synthetic_trace(["1e-2"], Decimal("0.5"))
        assert measured_orders(trace, Decimal("0.5"), self.WIDE) == []
        trace = synthetic_trace(["5", "3", "2"], Decimal("0.5"))  # errors not in (0,1)
        assert measured_orders(trace, Decimal("0.5"), self.WIDE) == []

    def test_noise_floor_cutoff(self):
        # with a context, errors below 10**(10 - working_digits) are unusable
        ctx = PrecisionContext(target_digits=64, guard_digits=32)
        errors = ["1e-2", "1e-4", "1e-8", "1e-16", "1e-32", "1e-64", "1e-92"]
        trace = synthetic_trace(errors, Decimal("0.5"))
        orders = measured_orders(trace, Decimal("0.5"), ctx)
        assert len(orders) == 5  # the 1e-92 point sits below the floor
        assert orders == pytest.approx([2.0] * 5, abs=1e-6)
        # with a context wide enough for the 1e-92 point, the same pair is kept
        assert len(measured_orders(trace, Decimal("0.5"), self.WIDE)) == 6

    def test_one_row_per_state(self):
        # each row holds e(|a_n - limit|) and the order of the pair (n, n + 1);
        # the overshoot at n = 1 and the exact last row give no order
        trace = synthetic_trace(["1e-2", "5", "1e-3", "1e-6"], Decimal("0.5"))
        table = error_table(trace, Decimal("0.5"), self.WIDE)
        assert [err for err, _ in table] == [-2, 0, -3, -6, None]
        assert [order is None for _, order in table] == [True, True, False, True, True]
        assert table[2][1] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("final, errors, expected", [
        # a limit near 1e-73 (scale 10**-72): the overshoot at n = 1 ends the
        # first block, and the last block gives the orders
        ("2.5e-73", ["1e-74", "5e-72", "1e-76", "1e-80", "1e-88"], [2.0, 2.0]),
        # a limit near 2.9e61 (scale 10**62), as of a perimeter trace
        ("2.9e61", ["1e60", "1e58", "1e54", "1e46"], [2.0, 2.0, 2.0]),
    ])
    def test_errors_are_scaled_to_the_limit(self, final, errors, expected):
        trace = synthetic_trace(errors, Decimal(final))
        assert measured_orders(trace, Decimal(final), self.WIDE) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("w", [-1000, 1000])
    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_a_limit_far_from_one_measures_the_family_order(self, kind, w):
        # the limit is about 10**(0.07 w); absolute errors gave orders near 1
        # at w = -1000 and none at quartic w = 1000
        run = run_borwein(kind, Fraction(w), make_context(1000, kind.order))
        assert len(run.orders) >= 3, run.orders
        assert abs(run.orders[-1] - kind.order) <= 0.15, run.orders

    @pytest.mark.parametrize("w", [-10**16, 10**16])
    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_orders_of_a_limit_near_the_exponent_edge_are_exact_log_ratios(self, kind, w):
        # e(limit) is about 7.2e14 w / |w|; a log of the unscaled error less that
        # exponent, both floats, rounded every log to a multiple of 1/8
        run = run_borwein(kind, Fraction(w), make_context(100, kind.order))
        limit = run.trace[-1].a
        with run.ctx.local():
            errors = [abs(state.a - limit) for state in run.trace]
        with localcontext(Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)):
            # log10(err * 10**-(e(limit) + 1)), the shift exact in 40 digits
            logs = [err.log10() - (limit.adjusted() + 1) if err else None for err in errors]
        table = [(n, order) for n, (_, order) in enumerate(run.error_table) if order is not None]
        assert table
        for n, order in table:
            assert order == pytest.approx(float(logs[n + 1] / logs[n]), abs=1e-9), (n, run.orders)

    def test_real_run_tail_orders(self):
        # the measured orders decrease toward the family order and the last
        # one lands in the +-0.1 band (the early entries are pre-asymptotic)
        for kind, band in ((QUADRATIC, (1.9, 2.1)), (CUBIC, (2.9, 3.1)), (QUARTIC, (3.9, 4.1))):
            ctx = make_context(500, kind.order)
            run = run_borwein(kind, ONE, ctx)
            assert len(run.orders) >= 3
            assert all(x > y for x, y in zip(run.orders, run.orders[1:]))
            assert all(value > kind.order for value in run.orders)
            assert band[0] <= run.orders[-1] <= band[1], (kind.name, run.orders)


class TestReplicationInvariant:
    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_initial_state_is_couple_product(self, kind):
        ctx = make_context(200, kind.order)
        w = Fraction(2)
        run = run_borwein(kind, w, ctx)
        a0 = replication_invariant(kind, w, run.trace[0], ctx)
        oracle = couple_product(kind.couple_parameter, w, ctx)
        assert matching_digits(a0, oracle) >= ctx.working_digits - 10

    def test_constant_along_run(self):
        ctx = make_context(150, 2)
        run = run_borwein(QUADRATIC, ONE, ctx)
        values = [
            replication_invariant(QUADRATIC, ONE, state, ctx) for state in run.trace[:4]
        ]
        for v in values[1:]:
            assert matching_digits(values[0], v) >= ctx.working_digits - 10

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_one_pass_matches_two_series_on_every_state(self, kind):
        # late states carry large c_n, so S(a_n, b_n) needs more terms than
        # S(1, 0); the shared pass must still give each sum to working precision.
        # The reference sums each series alone in Decimal, 40 digits higher.
        for w in (Fraction(0), Fraction(1, 3), Fraction(3)):
            run = run_borwein(kind, w, make_context(120, kind.order))
            ctx = run.ctx
            for state in run.trace:
                with ctx.local():
                    z = state.d**kind.order
                    b_n = state.c * (1 - z)
                got = replication_invariant(kind, w, state, ctx)
                want = invariant_decimal(kind.couple_parameter, w, state.a, b_n, z,
                                         reference_context(ctx))
                assert_invariant_accurate(got, want, w, ctx)

    @pytest.mark.parametrize("semi_major, semi_minor", [("2", "1"), ("1", "0.2")])
    @pytest.mark.parametrize("kind", [QUADRATIC, QUARTIC])
    def test_ellipse_run_conserves_the_ellipse_factor(self, kind, semi_major, semi_minor):
        # A perimeter run iterates at w = 1: A at run.w is conserved on every
        # state and is the trace's limit, value * K.  The value is F(a, b), A at
        # w = 0 of the start state.
        ctx = make_context(60, kind.order)
        run = run_ellipse(kind, ctx.real(semi_major), ctx.real(semi_minor), ctx)
        assert run.w == kind.root_free_w == ONE
        working = run.ctx.working_digits
        values = [replication_invariant(kind, run.w, state, run.ctx) for state in run.trace]
        for v in values[1:]:
            assert matching_digits(values[0], v) >= working - 10
        with run.ctx.local():
            assert matching_digits(run.value * run.k, run.trace[-1].a) >= working - 10
        assert matching_digits(values[0], run.trace[-1].a) >= working - 10
        oracle = ellipse_factor(run.ctx.real(semi_major), run.ctx.real(semi_minor), run.ctx)
        assert matching_digits(run.value, oracle) >= working - 10
        start = replication_invariant(kind, Fraction(0), run.trace[0], run.ctx)
        assert matching_digits(start, oracle) >= working - 10

    def test_degenerate_state_collapses_to_a(self):
        ctx = make_context(80, 2)
        state = IterationState(0, Decimal(0), Decimal(2), ctx.real("0.375"))
        assert replication_invariant(QUADRATIC, ONE, state, ctx) == ctx.real("0.375")

    def test_domain_check(self):
        ctx = make_context(80, 2)
        state = IterationState(0, Decimal(1), Decimal(2), Decimal(0))
        with pytest.raises(DomainError):
            replication_invariant(QUADRATIC, ONE, state, ctx)


class TestRunEllipse:
    def test_circle_every_iterate_is_one(self):
        ctx = make_context(100, 4)
        run = run_ellipse(QUARTIC, ctx.real(5), ctx.real(5), ctx)
        assert all(state.a == 1 for state in run.trace)
        assert run.value == 1

    def test_two_to_one_agrees_with_series(self):
        for kind in (QUADRATIC, QUARTIC):
            ctx = make_context(300, kind.order)
            run = run_ellipse(kind, ctx.real(2), ctx.real(1), ctx)
            oracle = ellipse_factor(ctx.real(2), ctx.real(1), ctx)
            assert matching_digits(run.value, oracle) >= ctx.target_digits
            assert str(run.value).startswith(frozen.F21[:300])

    def test_scale_invariance(self):
        ctx = make_context(150, 4)
        v1 = run_ellipse(QUARTIC, ctx.real(2), ctx.real(1), ctx).value
        v2 = run_ellipse(QUARTIC, ctx.real("11"), ctx.real("5.5"), ctx).value
        assert matching_digits(v1, v2) >= ctx.working_digits - 4

    def test_cubic_not_a_perimeter_algorithm(self):
        ctx = make_context(80, 3)
        with pytest.raises(UnsupportedParameterError):
            run_ellipse(CUBIC, ctx.real(2), ctx.real(1), ctx)

    def test_axis_validation(self):
        ctx = make_context(80, 2)
        with pytest.raises(DomainError):
            run_ellipse(QUADRATIC, ctx.real(1), ctx.real(0), ctx)
        with pytest.raises(DomainError):
            run_ellipse(QUADRATIC, ctx.real(1), ctx.real(2), ctx)

    @pytest.mark.parametrize("semi_minor, error, message", [
        ("0", DomainError, "semi-minor axis must be > 0"),
        ("2", DomainError, "need semi_minor <= semi_major"),
        ("0.5", UnsupportedParameterError, "perimeter algorithms exist for quad and quartic only"),
    ])
    def test_axes_are_checked_before_the_family(self, semi_minor, error, message):
        # a cubic request with bad axes reports the axes, in the CLI's words
        with pytest.raises(error) as raised:
            run_ellipse(CUBIC, Decimal(1), Decimal(semi_minor), make_context(20, 3))
        assert str(raised.value) == message

    @pytest.mark.parametrize("semi_major, semi_minor", [
        ("1", "0"), ("1", "-1"), ("1", "2"), ("inf", "1"), ("NaN", "1"),
    ])
    def test_axis_errors_match_the_series_oracle(self, semi_major, semi_minor):
        # run_ellipse and ellipse_factor share one axis check, so one wording
        a, b, ctx = Decimal(semi_major), Decimal(semi_minor), make_context(20, 2)
        with pytest.raises(DomainError) as from_series:
            ellipse_factor(a, b, ctx)
        for kind in (QUADRATIC, QUARTIC):
            with pytest.raises(DomainError) as from_run:
                run_ellipse(kind, a, b, ctx)
            assert str(from_run.value) == str(from_series.value)
        if not (a.is_finite() and b.is_finite()):
            assert str(from_series.value) == "axes must be finite decimals"

    def test_mild_ellipse_runs_at_the_callers_context(self):
        ctx = make_context(100, 4)
        run = run_ellipse(QUARTIC, ctx.real(2), ctx.real(1), ctx)
        assert run.ctx == ctx
        assert (run.kind, run.w) == (QUARTIC, QUARTIC.root_free_w)

    def test_eccentric_budget_extends_steps_and_guard(self):
        # (b/a)^2 = 1e-6: 2 + bit_length(6) = 5 steps more, 8 guard digits each
        a, b = Decimal(1), Decimal("0.001")
        assert _eccentric_steps(a, b) == 5
        ctx = make_context(1000, 4)
        sized, budget = _sized(ctx, 4, 5)
        assert budget == step_budget(1000, 4) + 5 == 13
        run = run_ellipse(QUARTIC, a, b, ctx)
        assert run.ctx == sized
        assert run.ctx.guard_digits == MIN_GUARD_DIGITS + 8 * 13 == 136
        assert run.ctx.working_digits == 1136
        doubled = ctx.doubled_guard()
        sized, budget = _sized(doubled, 4, 5)
        assert budget == 13
        run = run_ellipse(QUARTIC, a, b, doubled)
        assert run.ctx == sized
        assert run.ctx.guard_digits == doubled.guard_digits + 8 * 5 == 232

    def test_near_degenerate_ellipse_converges_at_make_context(self, capsys):
        run = run_ellipse(QUARTIC, Decimal(1), Decimal("1e-50"), make_context(100, 4))
        assert main(["ellipse", "1", "1e-50", "--normalized", "--digits", "100", "--plain"]) == 0
        assert capsys.readouterr().out == to_sig_digits(run.value, 100) + "\n"

    @pytest.mark.parametrize("kind, minor", [(QUADRATIC, "1e-200"), (QUARTIC, "1e-105")],
                             ids=["quadratic", "quartic"])
    def test_axis_ratio_below_the_working_precision_prints_its_digits(self, capsys, kind, minor):
        # 1 - (b/a)^2 rounds to 1 at the working precision (1e-210 survives in
        # it, but its fourth root rounds to 1): the chain starts from b/a itself
        algorithm = "quad" if kind is QUADRATIC else "quartic"
        argv = ["ellipse", "1", minor, "--algorithm", algorithm, "--digits", "50", "--plain"]
        assert main([*argv, "--normalized"]) == 0
        with localcontext() as c:
            c.prec, c.Emax = 120, 10**6
            # F = P a / (2 pi b^2), from the expansion of P about k' = b/a = 0
            factor = near_degenerate_perimeter("1", minor, 120) / (
                2 * Decimal(frozen.PI[:120]) * Decimal(minor) ** 2)
        assert capsys.readouterr().out == to_sig_digits(factor, 50) + "\n"
        # the perimeter lies above 4a by far less than the working precision
        assert main(argv) == 0
        assert capsys.readouterr().out == "4." + "0" * 49 + "\n"
        run = run_ellipse(kind, Decimal(1), Decimal(minor), make_context(50, kind.order))
        assert run.trace[0].d == 1  # d_0, formed when read, rounds to 1

    def test_a_ratio_whose_square_leaves_the_exponent_range_is_refused(self):
        with pytest.raises(DomainError, match="b/a is out of range"):
            run_ellipse(QUADRATIC, Decimal("1e999999999999999"), Decimal("1e-999999999999999"),
                        make_context(20, 2))

    @pytest.mark.parametrize("semi_major, semi_minor", [
        ("3.14159e-1000000000000108", "1.23456e-1000000000000108"),
        ("1", "1e-1000000000000001"),
        ("1e-1000000000000000000", "1e-1000000000000000000"),
    ])
    def test_axes_below_the_exponent_floor_are_refused(self, semi_major, semi_minor):
        # the context would round such an axis to a subnormal or to zero
        for kind in (QUADRATIC, QUARTIC):
            with pytest.raises(DomainError, match="out of range"):
                run_ellipse(kind, Decimal(semi_major), Decimal(semi_minor), make_context(30, 4))


class TestRunsSizeTheirBudget:
    """A run takes its step budget from its own order, not from the context's."""

    @pytest.mark.parametrize("target", [50, 300])
    @pytest.mark.parametrize("run, kind, context_order", [
        ("borwein", QUADRATIC, 4), ("borwein", QUADRATIC, 3), ("borwein", CUBIC, 4),
        ("ellipse", QUADRATIC, 4), ("ellipse", QUADRATIC, 3),
    ])
    def test_a_context_of_another_order_gives_the_same_run(self, target, run, kind,
                                                            context_order):
        def go(ctx):
            if run == "borwein":
                return run_borwein(kind, ONE, ctx)
            return run_ellipse(kind, Decimal(2), Decimal(1), ctx)

        own = go(make_context(target, kind.order))
        other = go(make_context(target, context_order))
        assert other.value == own.value
        assert other.ctx == own.ctx

    @pytest.mark.parametrize("target", [50, 300])
    def test_a_larger_guard_is_honoured_at_the_runs_own_budget(self, target):
        # make_context(target, 2) budgets more steps than a quartic run has, so
        # its guard exceeds the quartic floor: the run keeps that guard (as a
        # doubled_guard rerun needs) and still stops within its own step count
        own = run_borwein(QUARTIC, ONE, make_context(target, 4))
        wide = make_context(target, 2)
        run = run_borwein(QUARTIC, ONE, wide)
        assert run.iterations == own.iterations
        assert run.ctx.guard_digits == wide.guard_digits > own.ctx.guard_digits


class TestRootFreeRuns:
    """A run at the root-free w1 and its AGM product K give the limit at every w."""

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_only_a_run_off_w1_takes_a_power_per_row(self, kind, monkeypatch):
        calls = []

        def counted(x, exponent, ctx):
            calls.append(exponent)
            return pow_rational(x, exponent, ctx)

        monkeypatch.setattr(algorithms, "pow_rational", counted)
        d0_power = Fraction(-1, kind.order)  # d_0 = 2**(-1/m)
        # at w1 the steps take no power: d_0 takes one and the value
        # a_N = hat_N * A_N**-m one, once the chain has stopped
        w1 = kind.root_free_w
        run = run_borwein(kind, w1, make_context(300, kind.order))
        assert run.iterations > 4 and calls == [d0_power, -kind.e * (w1 + 1)]
        # off w1: one power A_n**(-e (w + 1)) per row, and none more for the value
        calls.clear()
        w = w1 + 1
        run = run_borwein(kind, w, make_context(300, kind.order))
        assert calls == [d0_power] + [-kind.e * (w + 1)] * run.iterations

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_k_is_the_series_s0_at_one_half(self, kind):
        run = run_borwein(kind, kind.root_free_w, make_context(500, kind.order))
        s0 = frozen.S0_THIRD if kind.order == 3 else frozen.S0_HALF
        assert matching_digits(run.k, Decimal(s0)) >= 500

    @pytest.mark.parametrize("digits", [300, 3000])
    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC])
    def test_k_powers_give_the_paper_iteration_at_every_w(self, kind, digits):
        run = run_borwein(kind, kind.root_free_w, make_context(digits, kind.order))
        for w in (Fraction(0), Fraction(1, 6), Fraction(1, 3), HALF, Fraction(3)):
            paper = run_borwein(kind, w, make_context(digits, kind.order))
            assert matching_digits(run.limit(w), paper.value) >= digits, w
        assert run.limit(run.w) is run.value


class TestPostprocessConstant:
    def test_pi(self):
        ctx = make_context(400, 2)
        run = run_borwein(QUADRATIC, ONE, ctx)
        pi = postprocess_constant("pi", run)
        assert str(pi).startswith(frozen.PI[:400])

    def test_gamma34(self):
        ctx = make_context(300, 4)
        value = postprocess_constant("gamma34", run_borwein(QUARTIC, Fraction(3), ctx))
        assert str(value).startswith(frozen.GAMMA34[:290])

    def test_gamma14(self):
        ctx = make_context(300, 4)
        value = postprocess_constant("gamma14", run_borwein(QUARTIC, Fraction(1, 3), ctx))
        assert str(value).startswith(frozen.GAMMA14[:290])

    def test_gamma23(self):
        ctx = make_context(300, 3)
        value = postprocess_constant("gamma23", run_borwein(CUBIC, Fraction(2), ctx))
        assert str(value).startswith(frozen.GAMMA23[:290])

    def test_gamma13(self):
        ctx = make_context(300, 3)
        value = postprocess_constant("gamma13", run_borwein(CUBIC, HALF, ctx))
        assert str(value).startswith(frozen.GAMMA13[:290])

    @pytest.mark.parametrize("name, order", [
        (name, order) for name, (orders, *_) in algorithms.CONSTANT_RECIPES.items()
        for order in orders
    ])
    def test_every_recipe_pair_at_5000_digits(self, name, order):
        # bench/reference.json holds independent AGM digits, cross-checked with mpmath
        # from a run at the recipe's w, and from the root-free run the CLI makes
        exponent, digits = json.loads(REFERENCE.read_text())[name]
        kind = AlgorithmKind(order)
        for w in {algorithms.CONSTANT_RECIPES[name][1], kind.root_free_w}:
            value = postprocess_constant(name, run_borwein(kind, w, make_context(5000, order)))
            assert value.adjusted() == exponent
            assert to_sig_digits(value, 5000).replace(".", "") == digits[:5000]

    def test_reflection_products(self):
        ctx = make_context(200, 4)
        pi = postprocess_constant("pi", run_borwein(QUARTIC, ONE, ctx))
        g34 = postprocess_constant("gamma34", run_borwein(QUARTIC, Fraction(3), ctx))
        g14 = postprocess_constant("gamma14", run_borwein(QUARTIC, Fraction(1, 3), ctx))
        ctx3 = make_context(200, 3)
        g23 = postprocess_constant("gamma23", run_borwein(CUBIC, Fraction(2), ctx3))
        g13 = postprocess_constant("gamma13", run_borwein(CUBIC, HALF, ctx3))
        with ctx.local():
            sqrt2 = decimal_sqrt(2, ctx.working_digits + 10)
            sqrt3 = decimal_sqrt(3, ctx.working_digits + 10)
            assert matching_digits(g14 * g34, pi * sqrt2) >= ctx.target_digits
            assert matching_digits(g13 * g23, 2 * pi / sqrt3) >= ctx3.target_digits

    def test_unknown_constant(self):
        run = run_borwein(QUADRATIC, ONE, make_context(60, 2))
        with pytest.raises(UnsupportedParameterError, match="unknown constant id 'zeta3'"):
            postprocess_constant("zeta3", run)

    def test_refuses_a_run_of_another_recipe(self):
        # every (order, w) of a recipe, plus w = 1/6 which none uses, built once:
        # a run of the recipe's family gives the constant's digits at any w, and a
        # run of another family, or a perimeter run of the right one, is refused
        ws = sorted({w for _, w, _, _ in algorithms.CONSTANT_RECIPES.values()} | {Fraction(1, 6)})
        runs = {(kind.order, w): run_borwein(kind, w, make_context(40, kind.order))
                for kind in (QUADRATIC, CUBIC, QUARTIC) for w in ws}
        perimeters = [run_ellipse(kind, Decimal(2), Decimal(1), make_context(40, kind.order))
                      for kind in (QUADRATIC, QUARTIC)]
        expected = {"pi": frozen.PI, "gamma34": frozen.GAMMA34, "gamma14": frozen.GAMMA14,
                    "gamma23": frozen.GAMMA23, "gamma13": frozen.GAMMA13}
        for name, (orders, *_) in algorithms.CONSTANT_RECIPES.items():
            printed = set()
            for (order, w), run in runs.items():
                if order in orders:
                    printed.add(to_sig_digits(postprocess_constant(name, run), 40))
                    continue
                with pytest.raises(UnsupportedParameterError, match=f"constant {name} "):
                    postprocess_constant(name, run)
            assert printed == {expected[name][:41]}
            for run in perimeters:
                with pytest.raises(UnsupportedParameterError, match="from a_0 = 1"):
                    postprocess_constant(name, run)

    def test_pi_from_a_cubic_run_is_refused(self):
        # the cubic w = 1 limit inverts to 3.6275987284..., which is not pi
        run = run_borwein(CUBIC, ONE, make_context(40, 3))
        with pytest.raises(UnsupportedParameterError, match="constant pi is computed by"):
            postprocess_constant("pi", run)

    def test_custom_raw_limit(self):
        # quadratic w = 3 converges to 1/Gamma(3/4)**4
        ctx = make_context(200, 2)
        raw = run_borwein(QUADRATIC, Fraction(3), ctx).value
        with ctx.doubled_guard().local():
            expected = 1 / Decimal(frozen.GAMMA34) ** 4
        assert matching_digits(raw, expected) >= ctx.target_digits


class TestRowsMatchReplicate:
    """Each row a run forms is the paper's replication map applied to the row
    before it: the chain in homogeneous means is that map with its divisions
    cancelled."""

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC],
                             ids=["quadratic", "cubic", "quartic"])
    def test_every_row_is_the_map_of_the_row_before(self, kind):
        m = kind.order
        w1 = kind.root_free_w
        # w1, the ws next to it, and ws far from it, where each row takes a power
        weights = [w1, w1 + Fraction(1, 12), w1 - Fraction(1, 12), w1 - 1,
                   Fraction(1, 3), Fraction(3), Fraction(-1000)]
        stopped = 0
        for w in weights:
            run = run_borwein(kind, w, PrecisionContext(target_digits=288, guard_digits=32))
            ctx = run.ctx
            working = ctx.working_digits
            fine = PrecisionContext(ctx.target_digits + 20, ctx.guard_digits)
            for prev, row in zip(run.trace, run.trace[1:]):
                with ctx.local():
                    t = DESCEND[m](prev.d, fine)
                    if run.chain[row.n].mean == run.chain[prev.n].mean:
                        # the chain has stopped moving: d_n continues the map
                        # to the working precision
                        stopped += 1
                        assert abs(row.d - t) <= t * ctx.epsilon(2), (w, row.n)
                    rc = REPLICATE[m](prev.a, prev.c * (1 - prev.d**m), t, ctx)
                    pre = (1 + 2 * t) if m == 3 else (1 + t) ** (1 if m == 2 else 2)
                    scale = pow_rational(pre, w, ctx)
                    expected_c = scale * rc.beta / (1 - t**m)
                    expected_a = scale * rc.alpha
                    # d_n = C_n / A_n, C_n a difference of means: good to the
                    # chain's absolute precision, 10 digits below the working one
                    assert abs(row.d - t) <= t * ctx.epsilon(2) + ctx.epsilon(-8), (w, row.n)
                    if row.delta_exp is None:
                        assert row.a == prev.a, (w, row.n)
                    elif row.delta_exp > row.a.adjusted() - working + 12:
                        assert row.delta_exp == abs(row.a - prev.a).adjusted(), (w, row.n)
                agree = min(matching_digits(row.c, expected_c), matching_digits(row.a, expected_a))
                assert agree >= working - 10, (w, row.n, agree)
        assert stopped >= len(weights)

    @pytest.mark.parametrize("kind", [QUADRATIC, CUBIC, QUARTIC],
                             ids=["quadratic", "cubic", "quartic"])
    @pytest.mark.parametrize("w", [Fraction(1, 3), Fraction(3)])
    def test_k_is_the_product_of_the_row_factors(self, kind, w):
        # K = A_N**-e, read off the chain; the factors f(d_n)**e of the rows
        # telescope to the same value, within 2 N units of 10**(1 - W)
        for run in (run_borwein(kind, w, make_context(400, kind.order)),
                    run_borwein(kind, kind.root_free_w, make_context(400, kind.order))):
            with run.ctx.local():
                product = Decimal(1)
                for state in run.trace[1:]:
                    f = 1 + 2 * state.d if kind.order == 3 else 1 + state.d
                    product *= f**kind.e
                bound = 2 * run.iterations * run.ctx.epsilon(1)
                assert abs(run.k / product - 1) <= bound

    def test_ellipse_k_is_the_product_of_the_row_factors(self):
        for kind in (QUADRATIC, QUARTIC):
            run = run_ellipse(kind, Decimal(3), Decimal("0.01"), make_context(300, kind.order))
            with run.ctx.local():
                product = Decimal(1)
                for state in run.trace[1:]:
                    product *= (1 + state.d) ** kind.e
                assert abs(run.k / product - 1) <= 2 * run.iterations * run.ctx.epsilon(1)

    def test_a_text_constant_forms_no_row(self, capsys, monkeypatch):
        runs = []

        def kept(*args):
            runs.append(run_borwein(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "run_borwein", kept)
        assert main(["constant", "pi", "--digits", "20000"]) == 0
        assert capsys.readouterr().out.startswith("3.1415926535 8979323846")
        assert "trace" not in vars(runs[0])
        # --json prints orders, which read every row's a and no d or c
        assert main(["constant", "pi", "--digits", "200", "--json"]) == 0
        formed = [sorted(set(vars(row)) & {"d", "c", "a"}) for row in runs[1].trace]
        assert formed == [["a"]] * (runs[1].iterations + 1)


class TestLateSteps:
    """Late steps skip the root once (C'/A')**m is below the chain's precision,
    and the steps after them move nothing; neither changes a traced number or
    a printed digit."""

    @pytest.mark.parametrize("command", list(frozen.LATE_STEP_TRACES))
    def test_trace_is_unchanged(self, capsys, command):
        deltas, orders, digest = frozen.LATE_STEP_TRACES[command]
        assert main([*command.split(), "--trace"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert [row["delta_exp"] for row in trace["iterations"]] == deltas
        assert trace["orders"] == orders
        assert hashlib.sha256(trace["result"].encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", list(frozen.ROOT_FREE_CONSTANTS))
    def test_named_constant_traces_its_root_free_run(self, capsys, command):
        # gamma34, gamma14 and gamma13 run at w1, as pi and gamma23 do, and
        # print the digits of the paper's iteration at their own w
        root_free, digest = frozen.ROOT_FREE_CONSTANTS[command]
        traces = []
        for argv in (command, root_free):
            assert main([*argv.split(), "--trace"]) == 0
            traces.append(json.loads(capsys.readouterr().out))
        got, want = traces
        assert (got["w"], got["iterations"], got["orders"]) == (
            want["w"], want["iterations"], want["orders"])
        assert hashlib.sha256(got["result"].encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind, w", [(QUADRATIC, ONE), (CUBIC, HALF), (QUARTIC, ONE)],
                             ids=["quadratic", "cubic", "quartic"])
    def test_ten_thousand_digits_match_the_series_oracle(self, kind, w, monkeypatch):
        roots = []

        def counted(x, n, ctx):
            roots.append(n)
            return nth_root(x, n, ctx)

        monkeypatch.setattr(algorithms, "nth_root", counted)
        run = run_borwein(kind, w, make_context(10_000, kind.order))
        oracle = couple_product(kind.couple_parameter, w, run.ctx)
        assert matching_digits(run.value, oracle) >= run.ctx.target_digits
        # The last three steps take no root: the first meets the late-step rule,
        # (C'/A')**m below 10**(2 - W), and the chain stops moving after it,
        # while the rows' d keep falling.
        assert roots == [kind.order] * (run.iterations - 3)
        assert run.chain[-3].mean == run.chain[-2].mean == run.chain[-1].mean
        assert run.trace[-3].d > run.trace[-2].d > run.trace[-1].d > 0

    @pytest.mark.parametrize("kind, w", [(CUBIC, ONE), (CUBIC, Fraction(2)), (CUBIC, Fraction(3)),
                                         (QUARTIC, Fraction(1, 3)), (QUARTIC, Fraction(3))],
                             ids=["cubic-1", "cubic-2", "cubic-3", "quartic-1/3", "quartic-3"])
    def test_a_update_branches_match_the_series_oracle(self, kind, w):
        # A step at w other than w1 scales the root-free update by
        # f**(e (w - w1)): 1/f at cubic w = 1, no power at w = 2 and f at
        # w = 3; the quartic power is f**(2 w - 2), a root at w = 1/3.
        run = run_borwein(kind, w, make_context(3_000, kind.order))
        oracle = couple_product(kind.couple_parameter, w, run.ctx)
        assert matching_digits(run.value, oracle) >= run.ctx.target_digits

    def test_quartic_ellipse_matches_the_series_oracle(self):
        # The quartic a-update at w = 1 from ellipse initial values, and F = L(1) / K.
        run = run_ellipse(QUARTIC, Decimal(2), Decimal(1), make_context(3_000, 4))
        oracle = ellipse_factor(run.ctx.real(2), run.ctx.real(1), run.ctx)
        assert matching_digits(run.value, oracle) >= run.ctx.target_digits
