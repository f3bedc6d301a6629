import random
from decimal import Decimal
from fractions import Fraction

import pytest

import frozen
from oracles import (
    REPLICATE,
    cubic_replicate,
    decimal_sqrt,
    quad_replicate,
    quartic_replicate,
)
from replica import DomainError
from replica.precision import make_context, matching_digits, nth_root
from replica.series import evaluate_series
from replica.transforms import DESCEND, cubic_descend, quad_descend, quartic_descend

CTX = make_context(100, 2)

#: order -> s of the Pochhammer pair (s, 1 - s) its transform preserves
COUPLE = {2: Fraction(1, 2), 3: Fraction(1, 3), 4: Fraction(1, 2)}


def prefactor(order, t):
    if order == 2:
        return 1 + t
    if order == 3:
        return 1 + 2 * t
    return (1 + t) * (1 + t)


class TestDescendExamples:
    def test_zero_is_fixed_point(self):
        for descend in (quad_descend, cubic_descend, quartic_descend):
            assert descend(Decimal(0), CTX) == 0

    def test_quad_rational_point(self):
        # x = 3/5: sqrt(1 - 9/25) = 4/5, so t = (1/5)/(9/5) = 1/9
        t = quad_descend(CTX.real("0.6"), CTX)
        assert matching_digits(t, CTX.real(Fraction(1, 9))) >= CTX.working_digits - 2

    def test_quad_silver_point(self):
        # x = 1/sqrt(2) gives t = 3 - 2 sqrt(2)
        with CTX.local():
            x = 1 / nth_root(Decimal(2), 2, CTX)
            expected = 3 - 2 * decimal_sqrt(2, CTX.working_digits + 10)
        t = quad_descend(x, CTX)
        assert str(t).startswith("0.1715728752538099")
        assert matching_digits(t, expected) >= CTX.working_digits - 3

    def test_cubic_rational_point(self):
        # x**3 = 7/8 makes (1-x^3)^(1/3) = 1/2 and t = 1/4
        x = nth_root(CTX.real("0.875"), 3, CTX)
        t = cubic_descend(x, CTX)
        assert matching_digits(t, Decimal("0.25")) >= CTX.working_digits - 3

    def test_cubic_half_cube_point(self):
        x = nth_root(CTX.real("0.5"), 3, CTX)
        t = cubic_descend(x, CTX)
        assert str(t).startswith(frozen.CUBIC_DESCEND_HALFCUBE[:40])

    def test_quartic_rational_point(self):
        # x**4 = 15/16 makes (1-x^4)^(1/4) = 1/2 and t = 1/3
        x = nth_root(CTX.real("0.9375"), 4, CTX)
        t = quartic_descend(x, CTX)
        assert matching_digits(t, CTX.real(Fraction(1, 3))) >= CTX.working_digits - 3

    def test_domain_errors(self):
        for descend in (quad_descend, cubic_descend, quartic_descend):
            with pytest.raises(DomainError):
                descend(Decimal(1), CTX)
            with pytest.raises(DomainError):
                descend(Decimal("1.5"), CTX)
            with pytest.raises(DomainError):
                descend(Decimal("-0.1"), CTX)


class TestDescendProperties:
    def test_contraction(self):
        # t < x**order for x < 1/2, and t < x everywhere in (0, 0.9]
        rng = random.Random(5150)
        for _ in range(40):
            x = CTX.real(Fraction(rng.randint(1, 9000), 10000))
            for order, descend in DESCEND.items():
                t = descend(x, CTX)
                assert 0 <= t < x
                if x < Decimal("0.5"):
                    with CTX.local():
                        assert t < x**order

    def test_small_x_asymptotics(self):
        # quadratic map behaves like x^2/4 near zero
        x = CTX.real(Fraction(1, 10**6))
        t = quad_descend(x, CTX)
        with CTX.local():
            ratio = t / (x * x)
        assert matching_digits(ratio, Decimal("0.25")) >= 10


class TestReplicateExamples:
    def test_t_zero_collapses(self):
        a, b = CTX.real("1.25"), CTX.real("-0.5")
        rc = quad_replicate(a, b, Decimal(0), CTX)
        assert (rc.alpha, rc.beta) == (a, 2 * b)
        rc = cubic_replicate(a, b, Decimal(0), CTX)
        assert (rc.alpha, rc.beta) == (a, 3 * b)
        rc = quartic_replicate(a, b, Decimal(0), CTX)
        assert (rc.alpha, rc.beta) == (a, 4 * b)

    def test_b_zero_kills_beta(self):
        a, t = CTX.real(2), CTX.real("0.3")
        with CTX.local():
            rc = quad_replicate(a, Decimal(0), t, CTX)
            assert rc.beta == 0 and matching_digits(rc.alpha, a * (1 + t)) > 90
            rc = cubic_replicate(a, Decimal(0), t, CTX)
            assert rc.beta == 0 and matching_digits(rc.alpha, a * (1 + 2 * t)) > 90
            rc = quartic_replicate(a, Decimal(0), t, CTX)
            assert rc.beta == 0 and matching_digits(rc.alpha, a * (1 + t) ** 2) > 90

    def test_quad_exact_rational(self):
        rc = quad_replicate(Decimal(0), Decimal(1), CTX.real(Fraction(1, 9)), CTX)
        assert matching_digits(rc.alpha, CTX.real(Fraction(5, 36))) >= CTX.working_digits - 2
        assert matching_digits(rc.beta, CTX.real(Fraction(25, 9))) >= CTX.working_digits - 2

    def test_cubic_exact_rational(self):
        rc = cubic_replicate(Decimal(0), Decimal(1), Decimal("0.25"), CTX)
        assert matching_digits(rc.alpha, Decimal("1.75")) >= CTX.working_digits - 2
        assert matching_digits(rc.beta, Decimal("15.75")) >= CTX.working_digits - 2

    def test_quartic_exact_rational(self):
        rc = quartic_replicate(Decimal(0), Decimal(1), CTX.real(Fraction(1, 3)), CTX)
        assert matching_digits(rc.alpha, CTX.real(Fraction(40, 9))) >= CTX.working_digits - 2
        assert matching_digits(rc.beta, CTX.real(Fraction(320, 9))) >= CTX.working_digits - 2

    def test_pole_rejected(self):
        for replicate in (quad_replicate, cubic_replicate, quartic_replicate):
            with pytest.raises(DomainError):
                replicate(Decimal(1), Decimal(1), Decimal(1), CTX)


class TestIdentities:
    """Spot checks of the transform and replication identities against the
    series evaluator; the 100-sample suites live in the acceptance tests."""

    def test_transform_identity(self):
        rng = random.Random(99)
        for _ in range(8):
            x = CTX.real(Fraction(rng.randint(1, 8999), 10000))
            for order in (2, 3, 4):
                s = COUPLE[order]
                t = DESCEND[order](x, CTX)
                with CTX.local():
                    lhs = evaluate_series(s, 0, Decimal(1), Decimal(0), x**order, CTX)
                    rhs = prefactor(order, t) * evaluate_series(
                        s, 0, Decimal(1), Decimal(0), t**order, CTX
                    )
                assert matching_digits(lhs, rhs) >= CTX.working_digits - 10

    def test_replication_identity(self):
        rng = random.Random(100)
        for _ in range(8):
            x = CTX.real(Fraction(rng.randint(1, 8999), 10000))
            a = CTX.real(Fraction(rng.randint(-1999, 1999), 1000))
            b = CTX.real(Fraction(rng.randint(-1999, 1999), 1000))
            for order in (2, 3, 4):
                s = COUPLE[order]
                t = DESCEND[order](x, CTX)
                rc = REPLICATE[order](a, b, t, CTX)
                with CTX.local():
                    lhs = evaluate_series(s, 0, a, b, x**order, CTX)
                    rhs = evaluate_series(s, 0, rc.alpha, rc.beta, t**order, CTX)
                with CTX.local():
                    defect = abs(lhs - rhs)
                assert defect <= CTX.epsilon(10)
