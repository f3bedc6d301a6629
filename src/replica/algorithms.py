"""The Borwein-like iteration families and the ellipse-perimeter iterations.

Each family of order m in {2, 3, 4} iterates

    d_{n+1} = descend_m(d_n)          (the order-m algebraic argument map)
    c_{n+1}, a_{n+1}                  (coefficient updates with free parameter w)

from d_0 = 2**(-1/m), c_0 = 2, a_0 = 0.  The quantity

    A_n = (sum_k C_k d_n^{mk})**w * sum_k C_k (a_n + b_n k) d_n^{mk},

with b_n = c_n (1 - d_n^m), is invariant along the run, so a_n converges to
A_0, the couple product evaluated independently by the series module.

A step is its family's root-free update, the step at the root-free weight
w1 (:attr:`AlgorithmKind.root_free_w`), times one power f(d_{n+1})**(e (w - w1))
of the replication factor, with f and e stated once in
:meth:`AlgorithmKind.factor` (f = 1 + d for orders 2 and 4 and 1 + 2d for
order 3; e = 2 for order 4 and 1 otherwise).  The chain d_n does not depend
on w, so the limit at any w is L(w) = K**(w - w1) * L(w1), with K the product
of the factors f**e along the chain: Gauss's AGM for orders 2 and 4 (Borwein
& Borwein, *Pi and the AGM*, 1987) and the cubic AGM for order 3 (Borwein &
Borwein, Trans. AMS 323, 1991), both 1/AGM = S(1, 0; z_0).  So the named
constants run at w1, whose steps take no power of f, and take their own w
from K (:meth:`RunResult.limit`), and the perimeter factor F(a, b), the limit
at w = 0 from ellipse initial values, is L(1) / K of a run at w1 = 1.

Since d_{n+1} ~ d_n^m, late steps move a by ever less.  Each step computes
d_{n+1} only to the absolute precision its contribution to a needs, a
margin of _SLACK_DIGITS digits below a unit in the last place of a, and a
step that cannot move a (the confirming steps of the stopping rule) returns
(t, m c_n, a_n) outright; see :func:`_step` for the rule and its error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property

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
    quotient,
    step_budget,
)
from .series import check_axes, evaluate_series
from .transforms import DESCEND

#: Digits below a unit in the last place of a at which a late step keeps d (see _step).
_SLACK_DIGITS = 12

#: Largest |w| a run takes: the limit of a run at 2e16 leaves decimal's exponent range.
MAX_ABS_W = 10**16

_W_OUT_OF_RANGE = "w is out of range: |w| must be at most 1e16"
_W_DENOMINATOR = "w must have a denominator dividing 12"


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

    @property
    def root_free_w(self) -> Fraction:
        """w1, the w at which a step takes no power of f: 2 for order 3 and 1
        otherwise."""
        return Fraction(2) if self.order == 3 else Fraction(1)

    def factor(self, t: Real) -> tuple[Real, int]:
        """(f, e) of a step to t = d_{n+1}: the step at w is the step at w1
        times f**(e (w - w1)), with f = 1 + 2t for order 3 and 1 + t otherwise,
        and e = 2 for order 4 and 1 otherwise."""
        return (1 + 2 * t, 1) if self.order == 3 else (1 + t, 2 if self.order == 4 else 1)


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
    """Outcome of a run: value, trace, the family, the w its trace rows belong
    to, and the context it ran at.

    The value is the trace's limit, except for a perimeter run, whose trace
    runs at w = 1 and whose value is the limit at w = 0 (``limit(0)``).  The
    run measures its errors and orders (:attr:`error_table`, :attr:`orders`)
    only when they are first read, at ``ctx``, whatever the calling thread's
    decimal context.
    """

    value: Real
    trace: list[IterationState]
    kind: AlgorithmKind
    w: Fraction
    ctx: PrecisionContext

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    @cached_property
    def error_table(self) -> list[tuple[int | None, float | None]]:
        """:func:`error_table` of the trace against its own limit ``trace[-1].a``,
        at ``ctx``: (err_exp, order or None) per trace row."""
        return error_table(self.trace, self.trace[-1].a, self.ctx)

    @property
    def orders(self) -> list[float]:
        """The convergence orders of :attr:`error_table`, in row order."""
        return [order for _, order in self.error_table if order is not None]

    @property
    def k(self) -> Real:
        """K = prod f(d_n)**e over ``trace[1:]``, at ``ctx``: the ratio of the
        limits at w + 1 and at w from this run's start, 1/AGM = S(1, 0; z_0).

        f and e are those of :meth:`AlgorithmKind.factor`.  A factor that
        rounds to 1 is skipped.  Against the product of the traced factors,
        the run's own chain, each of the N = ``iterations`` factors adds at
        most 3/2 units of 10**(1 - W) of rounding (W working digits): f, its
        square and the product round half a unit each.  A d_n that a late
        step kept to reduced precision is off by less than 10**(-10 - W) as
        long as |a| <= |c| (the :func:`_step` rule bounds |c| * |d_n - t|),
        so such steps move K by far less than a unit in its last place.  So
        r_K <= 2 * N * 10**(1 - W).
        """
        with self.ctx.local():
            k = Decimal(1)
            for state in self.trace[1:]:
                f, e = self.kind.factor(state.d)
                if f != 1:
                    k *= f * f if e == 2 else f
            return k

    def limit(self, w: Fraction) -> Real:
        """The limit of this family's iteration at weight ``w`` from this run's
        start: K**(w - self.w) times the trace's limit, at ``ctx``.

        Only a ``w`` other than ``self.w`` computes :attr:`k`; the power adds
        a relative |w - self.w| * r_K + (|p| + 3) * 10**(1 - W) for the
        numerator p of w - self.w, and the product half a unit.
        """
        limit = self.trace[-1].a
        if w == self.w:
            return limit
        with self.ctx.local():
            return pow_rational(self.k, w - self.w, self.ctx) * limit


def _step(kind: AlgorithmKind, w: Fraction, d: Real, c: Real, a: Real, ctx: PrecisionContext):
    """One update of (d, c, a) for the given family.

    This is the paper's replication map with its divisions cancelled by hand:
    with t = DESCEND[m](d), (alpha, beta) the map's weights for (a, c (1 - d^m))
    at t, and pre = 1 + t, 1 + 2t or (1 + t)^2, the step returns
    (t, pre^w beta / (1 - t^m), pre^w alpha).  The maps themselves live in
    tests/oracles.py, and tests/test_algorithms.py checks the step against them
    to within 10 digits of working precision.  At the root-free w1 the
    updates take no power of f (:meth:`AlgorithmKind.factor`) and divide by
    nothing but 2:

    - quadratic: c1 = 2 c, a1 = a f^2 + c1 t (1 - t) / 2;
    - cubic: c1 = 3 c f, a1 = a f^3 + 2 c t (1 - t^3);
    - quartic: c1 = 4 c, a1 = a f^4 + c1 t (1 - t)(1 + t^2) / 2,
      since (1 - t^4) / (2 (1 + t)) = (1 - t)(1 + t^2) / 2.

    Any other w multiplies both c1 and a1 by the one rational power
    f**(e (w - w1)).

    The step built from the maps divides twice more at full precision, by
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
    p-digit descend is good to 10**(2 - p) * t (its closing :func:`quotient`
    adds at most one unit in the last place to a long division's half unit),
    the result d1 satisfies
    |c| * |d1 - t| < 10**(2 - _SLACK_DIGITS) units in the last place of a, so
    a1 moves by at most 4 * 10**(2 - _SLACK_DIGITS) of a unit in its last
    place, given |w + 1| * |a| <= |c|.  That holds on every row of a w1 run,
    the run of every named constant and perimeter.  At other w the bound grows
    by the ratio: over the trace rows, log10(|w + 1| * |a| / |c|) reaches 1.9,
    1.7 and 1.6 (quadratic, cubic, quartic) at w = 1000 and 14.9, 14.7 and 14.6
    at |w| = 10**16, a few times 10**5 units in the last place of a, inside the
    guard; at w = +-1000 and +-10**16 the runs at 50, 100 and 1000 digits give
    values and traces bit-identical to runs without late steps.  The early steps of
    a run, where p >= W, and d = 0 (a circle) take the full-precision path
    unchanged.  Once t < 10**-(W + _SLACK_DIGITS) and
    |c*t| < 10**-(W + _SLACK_DIGITS) * |a|, the step returns (t, m*c, a),
    which is what the full formula rounds to: f and its power round to 1, and
    the correction to a is below half a unit in its last place.  The
    confirming steps of the stopping rule are such steps: each costs a
    descend at MIN_GUARD_DIGITS + 1 digits.
    """
    working = ctx.working_digits
    order = kind.order
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
    f, e = kind.factor(d1)
    if order == 2:
        c1 = 2 * c
        a1 = a * f * f + c1 * d1 * (1 - d1) / 2
    elif order == 3:
        c1 = 3 * c * f
        a1 = a * f * f * f + 2 * c * d1 * (1 - d1**3)
    else:
        c1 = 4 * c
        a1 = a * f**4 + c1 * d1 * (1 - d1) * (1 + d1 * d1) / 2
    if w != kind.root_free_w:
        g = pow_rational(f, e * (w - kind.root_free_w), ctx)
        c1, a1 = c1 * g, a1 * g
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
    """Run the recurrences until two consecutive deltas are small, or raise
    :class:`NonConvergenceError` after ``budget`` steps.

    A delta |a_n - a_{n-1}| is small when delta_exp <= e(a_n) - target_digits - 8
    (e(x) = x.adjusted()): below 10**(-target_digits - 8) times the power of ten
    just above |a_n|.  So a limit far from 1 (about 1e-73 at w = -1000) keeps
    its digits, and a limit in [0.1, 1), as of pi and gamma23, stops where the
    absolute bound 10**(-target_digits - 8) stopped it.
    """
    with ctx.local():
        d, c, a = d0, c0, a0
        trace = [IterationState(0, d, c, a)]
        consecutive = 0
        for n in range(1, budget + 1):
            d, c, a1 = _step(kind, w, d, c, a, ctx)
            delta = abs(a1 - a)
            a = a1
            delta_exp = delta.adjusted() if delta != 0 else None
            trace.append(IterationState(n, d, c, a, delta_exp))
            small = delta_exp is None or delta_exp <= a.adjusted() - ctx.target_digits - 8
            consecutive = consecutive + 1 if small else 0
            if consecutive == 2:
                break
        if consecutive < 2:
            raise NonConvergenceError(
                f"{kind.name} run did not converge within {budget} iterations",
                trace=trace,
            )
        return RunResult(a, trace, kind, w, ctx)


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


def run_borwein(kind: AlgorithmKind, w: Fraction, ctx: PrecisionContext) -> RunResult:
    """Run the order-m constant algorithm with free parameter w.

    The limit is couple_product(s, w) with s = 1/2 for the quadratic and
    quartic families and s = 1/3 for the cubic one.  The run allows
    step_budget(target, m) steps at ``ctx`` raised to at least 32 target
    digits and the guard of make_context(target, m) (see ``RunResult.ctx``).
    A w that :func:`as_weight` refuses raises before any arithmetic.
    """
    w = as_weight(w)
    m = kind.order
    ctx, budget = _sized(ctx, m)
    with ctx.local():
        d0 = pow_rational(Decimal(2), Fraction(-1, m), ctx)
        return _iterate(kind, w, d0, Decimal(2), Decimal(0), ctx, budget)


def run_ellipse(kind: AlgorithmKind, semi_major: Real, semi_minor: Real,
                ctx: PrecisionContext) -> RunResult:
    """Perimeter iteration (order 2 or 4): the value is F(a, b) with
    P(a, b) = 2 pi b ((b/a) F(a, b)), the form whose products stay in the
    exponent range (b^2 underflows for axes near 1e-500000000000060).

    F is the limit at w = 0 of the recurrences of :func:`run_borwein` started
    from d_0 = (1 - b^2/a^2)**(1/m), c_0 = 2 a^2/b^2, a_0 = 1.  The run
    iterates from that start at the root-free w = 1, whose steps take no power
    and no division of f, and returns F = L(1) / K (``RunResult.limit(0)``);
    ``RunResult.w`` is 1, the w of the trace rows.  It runs at the context of
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
        c0 = quotient(Decimal(2), ratio * ratio)
        run = _iterate(kind, kind.root_free_w, d0, c0, Decimal(1), ctx, budget)
        run.value = run.limit(Fraction(0))
        return run


def _eccentric_steps(semi_major: Real, semi_minor: Real) -> int:
    """Extra descend steps a near-degenerate ellipse needs before the asymptotic
    regime: 0 when (b/a)^2 > 0.1, else 2 + the bit length of its decimal exponent."""
    probe = make_context(30, 2)
    with probe.local():
        r2 = (probe.real(semi_minor) / probe.real(semi_major)) ** 2
        if r2 > Decimal("0.1"):
            return 0
        return 2 + max(1, -r2.adjusted()).bit_length()


def error_table(trace: list[IterationState], limit: Real,
                ctx: PrecisionContext) -> list[tuple[int | None, float | None]]:
    """(err_exp, order) for each row of ``trace``, measured at ``ctx``.

    err_exp is e(|a_n - limit|) (e(x) = x.adjusted()), None when a_n = limit.
    The order of row n is log(err_{n+1}) / log(err_n) of the scaled errors
    err_n = |a_n - limit| / 10**(e(limit) + 1), on the scale of the stopping
    rule of :func:`_iterate`: the power of ten just above |limit|, which is 1
    for a limit in [0.1, 1).  An error is usable when its scaled value lies in
    (0, 1) and |a_n - limit| lies above the rounding noise floor
    10**(10 - working_digits) * |limit| of ``ctx``; below that floor the trace
    measures rounding, not the algorithm.  Row n has an order only when rows
    n and n + 1 both lie in the last contiguous block of usable errors, so an
    early step that overshoots the limit (as the first one does at w = -1000)
    does not end the block; every other order is None.
    """
    shift = limit.adjusted() + 1
    with ctx.local():
        errors = [abs(state.a - limit) for state in trace]
        floor = abs(limit) * ctx.epsilon(10)
        # scaleb shifts the exponent exactly; subtracting shift from a float log
        # near e(limit) would round the log to that float's spacing
        logs = [_log10(err.scaleb(-shift)) if err and err.adjusted() < shift and err > floor
                else None for err in errors]
    # the block runs from just after the last unusable row before its end to
    # the last usable row
    end = max((n for n, log in enumerate(logs) if log is not None), default=-1)
    start = max((n + 1 for n, log in enumerate(logs[:end]) if log is None), default=0)
    return [(err.adjusted() if err else None,
             logs[n + 1] / logs[n] if start <= n < end else None)
            for n, err in enumerate(errors)]


def _log10(x: Real) -> float:
    """log10 of a positive Decimal of any magnitude, as a float."""
    exp = x.adjusted()
    return exp + math.log10(float(x.scaleb(-exp)))


def replication_invariant(kind: AlgorithmKind, w: Fraction, state: IterationState,
                          ctx: PrecisionContext) -> Real:
    """A_n = S(1, 0; z)**w * S(a_n, b_n; z) of one trace state, by
    :func:`series.evaluate_series` with z = d_n^m and b_n = c_n (1 - z).

    Successive states of a single run must produce equal values (to roughly
    working precision); the shared value is the run's limit.
    """
    if state.d < 0 or state.d >= 1:
        raise DomainError("state.d must lie in [0, 1)")
    with ctx.local():
        z = state.d**kind.order
        b_n = state.c * (1 - z)
    return evaluate_series(kind.couple_parameter, w, state.a, b_n, z, ctx)


#: constant id -> (algorithm orders that compute it, the w of its limit, alpha, e):
#: the limit at that w is 2**alpha * C**(-1/e) for the constant C.
CONSTANT_RECIPES: dict[str, tuple[tuple[int, ...], Fraction, Fraction, Fraction]] = {
    "pi": ((2, 4), Fraction(1), Fraction(0), Fraction(1)),
    "gamma34": ((2, 4), Fraction(3), Fraction(0), Fraction(1, 4)),
    "gamma14": ((2, 4), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)),
    "gamma23": ((3,), Fraction(2), Fraction(-1, 3), Fraction(1, 3)),
    "gamma13": ((3,), Fraction(1, 2), Fraction(1, 6), Fraction(2, 3)),
}


def postprocess_constant(name: str, run: RunResult) -> Real:
    """The named constant C = (L * 2**(-alpha))**(-e) from the limit
    L = 2**alpha * C**(-1/e) at its recipe's w, at ``run.ctx``.

    ``run`` is a :func:`run_borwein` run of one of the recipe's orders at any
    w; L is ``run.limit(w)`` = K**(w - run.w) * run.value, so a run at the
    recipe's own w (the root-free w1 of pi and gamma23) needs no K.

    Error bound, with W working digits: each :func:`pow_rational` adds a
    relative (|p| + 3) * 10**(1 - W) for its numerator p, and each product
    half a unit in its last place.  With a relative error r of the run's
    value and r_K of K (see :attr:`RunResult.k`), L is within a relative
    r + |w - run.w| * r_K plus the rounding of ``RunResult.limit``.  A
    relative error of L (and of the product) becomes |e| times as large in
    C, to first order, and |e| <= 1 in every recipe, so the inversion never
    amplifies it.  So C is within a relative
    |e| * (r + |w - run.w| * r_K) + 15 * 10**(1 - W): the largest rounding
    term, gamma14's from a run at w1 = 1, is (3/4) * (5.5 + 5 + 1/2) + 6 = 14.25
    units of 10**(1 - W).

    Raises :class:`UnsupportedParameterError` for an unknown name, and for a
    run that is not a :func:`run_borwein` run (a_0 = 0) of an order of the
    recipe of :data:`CONSTANT_RECIPES`.
    """
    if name not in CONSTANT_RECIPES:
        raise UnsupportedParameterError(f"unknown constant id {name!r}")
    orders, w, alpha, e = CONSTANT_RECIPES[name]
    start = run.trace[0].a
    if run.kind.order not in orders or start != 0:
        raise UnsupportedParameterError(
            f"constant {name} is computed by a run_borwein run (a_0 = 0) of an order in "
            f"{orders}, not by a {run.kind.name} run from a_0 = {start}"
        )
    ctx = run.ctx
    with ctx.local():
        return pow_rational(run.limit(w) * pow_rational(Decimal(2), -alpha, ctx), -e, ctx)
