"""The Borwein-like iteration families and the ellipse-perimeter iterations.

Each family of order m in {2, 3, 4} iterates

    d_{n+1} = descend_m(d_n)          (the order-m algebraic argument map)
    c_{n+1}, a_{n+1}                  (coefficient updates with free parameter w)

from d_0 = 2**(-1/m), c_0 = 2, a_0 = 0.  The quantity

    A_n = (sum_k C_k d_n^{mk})**w * sum_k C_k (a_n + b_n k) d_n^{mk},

with b_n = c_n (1 - d_n^m), is invariant along the run, so a_n converges to
A_0, the couple product evaluated independently by the series module.  The
same recurrences at w = 0 with ellipse-specific initial values converge to
the normalized perimeter factor F(a, b).

Since d_{n+1} ~ d_n^m, late steps move a by ever less.  Each step computes
d_{n+1} only to the absolute precision its contribution to a needs, a
margin of _SLACK_DIGITS digits below a unit in the last place of a, and a
step that cannot move a (the confirming steps of the stopping rule) returns
(t, m c_n, a_n) outright; see :func:`_step` for the rule and its error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import (
    DomainError,
    NonConvergenceError,
    PrecisionInsufficientError,
    UnsupportedParameterError,
)
from .precision import (
    GUARD_DIGITS_PER_STEP,
    MIN_GUARD_DIGITS,
    SUPPORTED_DENOMINATORS,
    PrecisionContext,
    Real,
    make_context,
    nth_root,
    pow_rational,
    step_budget,
)
from .series import check_axes, invariant
from .transforms import DESCEND

#: Digits below a unit in the last place of a at which a late step keeps d (see _step).
_SLACK_DIGITS = 12


@dataclass(frozen=True)
class AlgorithmKind:
    """One iteration family, identified by its convergence order."""

    order: int

    def __post_init__(self):
        if self.order not in (2, 3, 4):
            raise UnsupportedParameterError("algorithm order must be 2, 3 or 4")

    @property
    def name(self) -> str:
        return {2: "quadratic", 3: "cubic", 4: "quartic"}[self.order]

    @property
    def couple_parameter(self) -> Fraction:
        """The s of the series couple this family starts from and tends to."""
        return Fraction(1, 3) if self.order == 3 else Fraction(1, 2)


QUADRATIC = AlgorithmKind(2)
CUBIC = AlgorithmKind(3)
QUARTIC = AlgorithmKind(4)


@dataclass(frozen=True)
class IterationState:
    """One row of a run trace; delta_exp is floor(log10 |a_n - a_{n-1}|)."""

    n: int
    d: Real
    c: Real
    a: Real
    delta_exp: int | None = None


@dataclass
class RunResult:
    """Outcome of a run: value, trace, the family, w and context it ran at, orders."""

    value: Real
    trace: list[IterationState]
    kind: AlgorithmKind
    w: Fraction
    ctx: PrecisionContext
    orders: list[float]

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def _step(order: int, w: Fraction, d: Real, c: Real, a: Real, ctx: PrecisionContext):
    """One update of (d, c, a) for the given family.

    This is the replication map with its divisions cancelled by hand: with
    t = DESCEND[m](d), (alpha, beta) = REPLICATE[m](a, c (1 - d^m), t) and
    pre = 1 + t, 1 + 2t or (1 + t)^2, the step returns
    (t, pre^w beta / (1 - t^m), pre^w alpha), which tests/test_algorithms.py
    checks to within 10 digits of working precision.  One rational power of
    the factor f serves both updates, and the a-update divides by nothing
    but 2 (f = 1 + t for orders 2 and 4, 1 + 2t for order 3):

    - quadratic: g = f**(w-1), c1 = 2 c g, a1 = a g f^2 + c1 t (1 - t) / 2;
    - cubic: h = f**(w-2), c1 = 3 c h f, a1 = a h f^3 + 2 c h t (1 - t^3),
      which is g = h f with the division by 3 f of (1 - t^3) / (3 f) cancelled
      (at w = 1, h = 1/f is the one division of the step);
    - quartic: g = f**(2w-2), c1 = 4 c g, a1 = a g f^4 + c1 t (1 - t)(1 + t^2) / 2,
      since (1 - t^4) / (2 (1 + t)) = (1 - t)(1 + t^2) / 2.

    The step built from REPLICATE divides twice more at full precision, by
    powers of (1 - t): at 20 000 digits and w = 1/3 it took 53 / 65 / 68 ms
    against 30 / 41 / 38 ms for this one (quadratic / cubic / quartic, best
    of 20, 2 vCPU, Python 3.11.7, shared machine), and steps at full
    precision are the hot path of long runs.

    Precision rule.  Late in a run t ~ d^m is far below 1, and an error in t
    reaches a1 only through the terms c*t and (w+1)*a*t (the other uses of t
    are of order t^2).  So d is kept to the absolute precision those terms
    need, not to W (working digits) significant digits: with
    e(x) = x.adjusted(), d is rounded to

        p = W + m*(e(d) + 1) + e(c) - e(a) + _SLACK_DIGITS

    digits, at least MIN_GUARD_DIGITS + 1, and the descend runs at p digits
    whenever p < W and a != 0.  Since t < d^m < 10**(m*(e(d) + 1)) and the
    p-digit descend is good to 10**(2 - p) * t, the result d1 satisfies
    |c| * |d1 - t| < 10**(2 - _SLACK_DIGITS) units in the last place of a, so
    a1 moves by at most 4 * 10**(2 - _SLACK_DIGITS) of a unit in its last
    place (given |w + 1| * |a| <= |c|, as in every run).  The early steps of
    a run, where p >= W, and d = 0 (a circle) take the full-precision path
    unchanged.  Once t < 10**-(W + _SLACK_DIGITS) and
    |c*t| < 10**-(W + _SLACK_DIGITS) * |a|, the step returns (t, m*c, a),
    which is what the full formula rounds to: f rounds to 1, so g = h = 1, and
    the correction to a is below half a unit in its last place.  The
    confirming steps of the stopping rule are such steps: each costs a
    descend at MIN_GUARD_DIGITS + 1 digits.
    """
    working = ctx.working_digits
    digits = working + order * (d.adjusted() + 1) + c.adjusted() - a.adjusted() + _SLACK_DIGITS
    if a and digits < working:
        # A context of max(digits, MIN_GUARD_DIGITS + 1) working digits.
        small = PrecisionContext(max(digits - MIN_GUARD_DIGITS, 1), MIN_GUARD_DIGITS)
        with small.local():
            d1 = DESCEND[order](+d, small)
        tiny = ctx.epsilon(-_SLACK_DIGITS)
        if d1 < tiny and abs(c * d1) < tiny * abs(a):
            return d1, order * c, a
    else:
        d1 = DESCEND[order](d, ctx)
    if order == 2:
        f = 1 + d1
        g = pow_rational(f, w - 1, ctx)
        c1 = 2 * c * g
        a1 = a * g * f * f + c1 * d1 * (1 - d1) / 2
    elif order == 3:
        f = 1 + 2 * d1
        h = pow_rational(f, w - 2, ctx)
        hf = h * f
        c1 = 3 * c * hf
        a1 = a * hf * f * f + 2 * c * h * d1 * (1 - d1**3)
    else:
        f = 1 + d1
        g = pow_rational(f, 2 * w - 2, ctx)
        c1 = 4 * c * g
        a1 = a * g * f**4 + c1 * d1 * (1 - d1) * (1 + d1 * d1) / 2
    return d1, c1, a1


def _sized(ctx: PrecisionContext, order: int,
           extra_steps: int = 0) -> tuple[PrecisionContext, int]:
    """The context a run of the given order computes at, and its step budget.

    The target is at least 32 digits (below that the budget is too tight for two
    consecutive small deltas) and the guard at least that of make_context; each
    extra step adds 8 guard digits.  ``ctx`` itself is returned when it meets the rule.
    """
    floor = make_context(max(ctx.target_digits, 32), order)
    target = floor.target_digits
    guard = max(ctx.guard_digits, floor.guard_digits) + GUARD_DIGITS_PER_STEP * extra_steps
    if (target, guard) != (ctx.target_digits, ctx.guard_digits):
        ctx = PrecisionContext(target, guard)
    return ctx, step_budget(target, order) + extra_steps


def _iterate(kind: AlgorithmKind, w: Fraction, d0: Real, c0: Real, a0: Real,
             ctx: PrecisionContext, budget: int) -> RunResult:
    """Run the recurrences until two consecutive deltas drop below
    10**(-target_digits - 8), or raise :class:`NonConvergenceError` after ``budget`` steps.
    """
    with ctx.local():
        threshold = Decimal(1).scaleb(-(ctx.target_digits + 8))
        d, c, a = d0, c0, a0
        trace = [IterationState(0, d, c, a)]
        consecutive = 0
        for n in range(1, budget + 1):
            d, c, a1 = _step(kind.order, w, d, c, a, ctx)
            delta = abs(a1 - a)
            a = a1
            trace.append(
                IterationState(n, d, c, a, delta.adjusted() if delta != 0 else None)
            )
            consecutive = consecutive + 1 if delta < threshold else 0
            if consecutive == 2:
                break
        if consecutive < 2:
            raise NonConvergenceError(
                f"{kind.name} run did not converge within {budget} iterations",
                trace=trace,
            )
        return RunResult(a, trace, kind, w, ctx, measure_orders(trace, a, ctx))


def run_borwein(kind: AlgorithmKind, w: Fraction, ctx: PrecisionContext) -> RunResult:
    """Run the order-m constant algorithm with free parameter w.

    The limit is couple_product(s, w) with s = 1/2 for the quadratic and
    quartic families and s = 1/3 for the cubic one.  The run allows
    step_budget(target, m) steps at ``ctx`` raised to at least 32 target
    digits and the guard of make_context(target, m) (see ``RunResult.ctx``).
    """
    w = Fraction(w)
    if w.denominator not in SUPPORTED_DENOMINATORS:
        raise UnsupportedParameterError("w must have a denominator dividing 12")
    m = kind.order
    ctx, budget = _sized(ctx, m)
    with ctx.local():
        d0 = pow_rational(Decimal(2), Fraction(-1, m), ctx)
        return _iterate(kind, w, d0, Decimal(2), Decimal(0), ctx, budget)


def run_ellipse(kind: AlgorithmKind, semi_major: Real, semi_minor: Real,
                ctx: PrecisionContext) -> RunResult:
    """Perimeter iteration (order 2 or 4): the value converges to F(a, b)
    with P(a, b) = (2 pi b^2 / a) * F(a, b).

    Same recurrences as :func:`run_borwein` at w = 0, started from
    d_0 = (1 - b^2/a^2)**(1/m), c_0 = 2 a^2/b^2, a_0 = 1, at the context of
    :func:`run_borwein` plus :func:`_eccentric_steps` steps (``RunResult.ctx``).
    """
    check_axes(semi_major, semi_minor)
    if kind.order not in (2, 4):
        raise UnsupportedParameterError("perimeter algorithms exist for quad and quartic only")
    ctx, budget = _sized(ctx, kind.order, _eccentric_steps(semi_major, semi_minor))
    with ctx.local():
        ratio = ctx.real(semi_minor) / ctx.real(semi_major)
        d0 = nth_root(1 - ratio * ratio, kind.order, ctx)
        if d0 >= 1:
            raise PrecisionInsufficientError(
                "b/a is below the working precision; increase digits to resolve d0 < 1"
            )
        c0 = 2 / (ratio * ratio)
        return _iterate(kind, Fraction(0), d0, c0, Decimal(1), ctx, budget)


def _eccentric_steps(semi_major: Real, semi_minor: Real) -> int:
    """Extra descend steps a near-degenerate ellipse needs before the asymptotic
    regime: 0 when (b/a)^2 > 0.1, else 2 + the bit length of its decimal exponent."""
    probe = make_context(30, 2)
    with probe.local():
        r2 = (probe.real(semi_minor) / probe.real(semi_major)) ** 2
        if r2 > Decimal("0.1"):
            return 0
        return 2 + max(1, -r2.adjusted()).bit_length()


def usable_error_logs(trace: list[IterationState], final_value: Real,
                      ctx: PrecisionContext) -> list[tuple[int, float]]:
    """(n, log10 err_n) for the contiguous block of order-measurable errors.

    err_n = |a_n - final_value| is usable when it lies in (0, 1) and above the
    rounding noise floor 10**(10 - working_digits) * |final_value| of ``ctx``;
    below that floor the trace measures rounding, not the algorithm.
    """
    floor = abs(final_value) * Decimal(1).scaleb(10 - ctx.working_digits)
    logs: list[tuple[int, float]] = []
    for state in trace:
        err = abs(state.a - final_value)
        if err == 0 or err >= 1 or err <= floor:
            if logs:
                break  # errors decrease monotonically; the usable block ended
            continue
        logs.append((state.n, _log10(err)))
    return logs


def measure_orders(trace: list[IterationState], final_value: Real,
                   ctx: PrecisionContext) -> list[float]:
    """Convergence orders log(err_{n+1}) / log(err_n) from a run trace.

    A pair of consecutive states contributes only when both errors are
    usable in the sense of :func:`usable_error_logs`.  The i-th returned
    order belongs to the i-th usable state; with fewer than two usable
    errors the list is empty.
    """
    logs = usable_error_logs(trace, final_value, ctx)
    return [later / earlier for (_, earlier), (_, later) in zip(logs, logs[1:])]


def _log10(x: Real) -> float:
    """log10 of a positive Decimal of any magnitude, as a float."""
    exp = x.adjusted()
    return exp + math.log10(float(x.scaleb(-exp)))


def replication_invariant(kind: AlgorithmKind, w: Fraction, state: IterationState,
                          ctx: PrecisionContext) -> Real:
    """A_n = S(1, 0; z)**w * S(a_n, b_n; z) of one trace state, by :func:`series.invariant`
    with z = d_n^m and b_n = c_n (1 - z).

    Successive states of a single run must produce equal values (to roughly
    working precision); the shared value is the run's limit.
    """
    if state.d < 0 or state.d >= 1:
        raise DomainError("state.d must lie in [0, 1)")
    with ctx.local():
        z = state.d**kind.order
        b_n = state.c * (1 - z)
    return invariant(kind.couple_parameter, w, state.a, b_n, z, ctx)


#: constant id -> (algorithm orders that compute it, the w to run them at, alpha, e):
#: the run's limit is 2**alpha * C**(-1/e) for the constant C.
CONSTANT_RECIPES: dict[str, tuple[tuple[int, ...], Fraction, Fraction, Fraction]] = {
    "pi": ((2, 4), Fraction(1), Fraction(0), Fraction(1)),
    "gamma34": ((2, 4), Fraction(3), Fraction(0), Fraction(1, 4)),
    "gamma14": ((2, 4), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)),
    "gamma23": ((3,), Fraction(2), Fraction(-1, 3), Fraction(1, 3)),
    "gamma13": ((3,), Fraction(1, 2), Fraction(1, 6), Fraction(2, 3)),
}


def postprocess_constant(name: str, run: RunResult) -> Real:
    """The named constant C = (L * 2**(-alpha))**(-e) from the run's limit
    L = 2**alpha * C**(-1/e) of its recipe, at ``run.ctx``.

    Error bound, with W working digits: each :func:`pow_rational` adds a
    relative (|p| + 3) * 10**(1 - W) for its numerator p, and the product half
    a unit in its last place.  A relative error r of L (and of the product)
    becomes |e| * r in C, to first order, and |e| <= 1 in every recipe, so the
    inversion never amplifies the run's own error.  So C is within a relative
    |e| * r + 11 * 10**(1 - W): the largest inversion term, gamma14's, is
    (3/4) * (5 + 1/2) + 6 = 10.125 units of 10**(1 - W).

    Raises :class:`UnsupportedParameterError` for an unknown name, and for a
    run whose family order and w are not the recipe of :data:`CONSTANT_RECIPES`.
    """
    if name not in CONSTANT_RECIPES:
        raise UnsupportedParameterError(f"unknown constant id {name!r}")
    orders, w, alpha, e = CONSTANT_RECIPES[name]
    if run.kind.order not in orders or run.w != w:
        raise UnsupportedParameterError(
            f"constant {name} is computed by an order in {orders} run at w={w}, "
            f"not by a {run.kind.name} run at w={run.w}"
        )
    ctx = run.ctx
    with ctx.local():
        return pow_rational(run.value * pow_rational(Decimal(2), -alpha, ctx), -e, ctx)
