"""The Borwein-like iteration families and the ellipse-perimeter iterations.

Each family of order m in {2, 3, 4} has the paper's state (d_n, c_n, a_n),
from d_0 = 2**(-1/m), c_0 = 2, a_0 = 0 for the constants.  The quantity

    A_n = (sum_k C_k d_n^{mk})**w * sum_k C_k (a_n + b_n k) d_n^{mk},

with b_n = c_n (1 - d_n^m), is invariant along the run, so a_n converges to
A_0, the couple product evaluated independently by the series module.

The chain d_n does not depend on w, and a step at w is the step at the
root-free weight w1 (:attr:`AlgorithmKind.root_free_w`) times the power
f(d_{n+1})**(e (w - w1)), with f = 1 + d for orders 2 and 4 and 1 + 2d for
order 3, and e = 2 for order 4 and 1 otherwise (:attr:`AlgorithmKind.e`).
At w1 the iteration is its family's AGM (Borwein & Borwein, *Pi and the
AGM*, 1987; Trans. AMS 323, 1991) written in ratios of the means, so a run
carries the means themselves, as the Gauss-Legendre algorithm does (Brent,
J. ACM 23, 1976): A_0 = 1, B_0 = (1 - d_0^m)**(1/m), h_0 = 0, and per step

    quadratic  A' = (A + B)/2,  C' = (A - B)/2,  B' = (A B)**(1/2),
               h' = h + 2**n C' B
    cubic      A' = (A + 2B)/3, C' = (A - B)/3,  B'**3 = B (A^2 + A B + B^2)/3,
               h' = h + 2 * 3**n C' B'**3 / (A A')
    quartic    A' = (A + B)/2,  C' = (A - B)/2,  B'**4 = A B (A^2 + B^2)/2,
               h' = h + 4**n C' B (A^2 + B^2)

(for the quartic, A, B and C are Borwein's alpha, beta and gamma on the
square roots of the means).  The paper's row n at weight w is then

    d_n = C_n / A_n,   c_n = c_0 m**n A_n**(-e (w - 1)),
    a_n = (a_0 + c_0 h_n) A_n**(-e (w + 1)),

so a step takes one root and, for the cubic family only, one quotient, and
each f is A_{n-1} / A_n: K = prod f(d_n)**e = A_N**(-e), and the limits of
one chain satisfy L(w) = K**(w - w1) * L(w1).  The named constants run at
w1 and take their own w from K (:meth:`RunResult.limit`), and the perimeter
factor F(a, b), the limit at w = 0 from ellipse initial values, is L(1) / K
of a run at w1 = 1.

A run at w1 forms no row: the stopping rule reads each step's rise in a
from the chain (:func:`_rise_at_w1`), and a row's d, c and a are each formed
when first read (:attr:`RunResult.trace`).  A run at any other w forms each
row's a at w, one power per row, and stops on those rows.  The chain runs at
W' = W + ``_CHAIN_DIGITS`` digits, which covers the digits its differences
of means lose, and every value is rounded once to W.  Once (C'/A')**m falls
below 10**(2 - W') the root is skipped and B' = A', so the chain stops
moving and the confirming steps of the stopping rule cost nothing.  The
error bounds are stated on :func:`_advance` (the chain), :attr:`RunResult.k`
(K) and :class:`_ChainRow` (a row formed when read).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DomainError,
    NonConvergenceError,
    UnsupportedParameterError,
)
from .precision import (
    GUARD_DIGITS_PER_STEP,
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

#: Largest |w| a run takes: the limit of a run at 2e16 leaves decimal's exponent range.
MAX_ABS_W = 10**16

_W_OUT_OF_RANGE = "w is out of range: |w| must be at most 1e16"
_W_DENOMINATOR = "w must have a denominator dividing 12"

#: Digits the chain carries beyond the working digits: more than the N log10(m) + 2
#: its differences of means lose (see :func:`_advance`).
_CHAIN_DIGITS = 10

#: order -> L of the descend map's leading term t ~ d**m / L near d = 0
#: (:mod:`replica.transforms`), which continues the rows once the chain stops moving.
_DESCEND_LEADING = {2: 4, 3: 9, 4: 8}

#: The context of a step's rise in a at w1 and of the late-step test: every
#: operand is positive there, so 30 digits give each to a relative 1e-28.
_LOW = decimal.Context(prec=30, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


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

    @property
    def e(self) -> int:
        """The power of the chain's mean in K = A_N**-e and in a row's scale:
        2 for order 4 (whose chain carries the square roots of the means), else 1."""
        return 2 if self.order == 4 else 1


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


class _Link(NamedTuple):
    """One state of a run's chain: the mean A_n, the sum h_n, the row's
    delta_exp, and a_n at the run's w, rounded to W, when the run formed it
    (every state of a run off w1, and the last one of a :func:`run_borwein` run)."""

    mean: Real
    total: Real
    delta_exp: int | None
    a: Real | None = None


@dataclass
class RunResult:
    """Outcome of a run: the family, the w its trace rows belong to, the
    context it ran at, its start (B_0, c_0, a_0), its chain and its value.

    The value is the trace's limit, the chain's a_N at ``w``, except for a
    perimeter run, whose chain runs at w = 1 and whose value is the limit at
    w = 0.  The trace rows, errors and orders (:attr:`trace`,
    :attr:`error_table`, :attr:`orders`) are formed only when first read, at
    ``ctx``, whatever the calling thread's decimal context.
    """

    kind: AlgorithmKind
    w: Fraction
    ctx: PrecisionContext
    start: tuple[Real, Real, Real]
    chain: list[_Link]
    value: Real

    def _a(self, link: _Link) -> Real:
        """a of a chain state at ``w``, rounded to ``ctx``: the a the run
        formed, or else formed now at the chain's precision."""
        if link.a is None:
            return self.ctx.real(_a_at(self.start, link.mean, link.total, self._a_exponent,
                                       self._fine))
        return link.a

    @cached_property
    def _fine(self) -> PrecisionContext:
        return _chain_context(self.ctx)

    @cached_property
    def _a_exponent(self) -> Fraction:
        """-e (w + 1): a_n at ``w`` is (a_0 + c_0 h_n) A_n**_a_exponent."""
        return -self.kind.e * (self.w + 1)

    @property
    def iterations(self) -> int:
        return len(self.chain) - 1

    @cached_property
    def trace(self) -> list[IterationState]:
        """The paper's rows (n, d_n, c_n, a_n, delta_exp) of the chain; each row
        forms its d, c and a when they are first read (:class:`_ChainRow`)."""
        return [_ChainRow(self, n) for n in range(len(self.chain))]

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
        """K = A_N**-e, read off the chain at ``ctx``: the ratio of the limits at
        w + 1 and at w from this run's start, 1/AGM = S(1, 0; z_0).

        With N = ``iterations`` and the chain's u' = 10**(1 - W') of
        :func:`_advance`: each family's AGM is homogeneous of degree 1 and
        increasing in both means, so the relative errors a step leaves in A'
        and B', at most 5u', move the limit by as much, and A_N is within
        5 N u' plus A_N / M(A_N, B_N) - 1 (below d_N**m / m) of the exact AGM
        of the start.  The power adds (e + 3) * 10**(1 - W), so
        r_K <= (e + 3) * 10**(1 - W) + e (5 N u' + d_N**m / m), where the
        stopping rule has made d_N**m far smaller than 10**-target.  Against
        the product of f(d_n)**e over the rows of :attr:`trace`, which
        telescopes to the same A_N**-e, K is within 2 N * 10**(1 - W).
        """
        return pow_rational(self.chain[-1].mean, -self.kind.e, self.ctx)

    def limit(self, w: Fraction) -> Real:
        """The limit of this family's iteration at weight ``w`` from this run's
        start: K**(w - self.w) times the trace's limit, the last row's a, at ``ctx``.

        Only a ``w`` other than ``self.w`` computes :attr:`k`; the power adds
        a relative |w - self.w| * r_K + (|p| + 3) * 10**(1 - W) for the
        numerator p of w - self.w, and the product half a unit.
        """
        final = self._a(self.chain[-1])
        if w == self.w:
            return final
        with self.ctx.local():
            return pow_rational(self.k, w - self.w, self.ctx) * final


def _a_at(start, mean: Real, total: Real, exponent: Fraction, ctx: PrecisionContext) -> Real:
    """a_n of the chain state (A_n, h_n) = (``mean``, ``total``) at the w with
    -e (w + 1) = ``exponent``: (a_0 + c_0 h_n) A_n**exponent, at ``ctx``."""
    _, c0, a0 = start
    with ctx.local():
        return (a0 + c0 * total) * pow_rational(mean, exponent, ctx)


class _ChainRow(IterationState):
    """Row n of a run's trace: n and delta_exp as the run found them, and d_n,
    c_n and a_n each formed from the chain when first read.

    d_n = C_n / A_n, c_n = c_0 m**n A_n**(-e (w - 1)) and
    a_n = (a_0 + c_0 h_n) A_n**(-e (w + 1)) (the a the run formed, off w1)
    are taken at the chain's W' = W + ``_CHAIN_DIGITS`` digits and rounded
    once to the run's W, with C_0 = (1 - B_0**m)**(1/m) and, from n = 1 on,
    C_n = A_{n-1} - A_n (half that for the cubic family): a difference of
    means, as in the step.  With u' = 10**(1 - W'): C_n is good to 3u' of
    A_n absolutely (:func:`_advance`), so d_n is within half a unit in its
    last place plus 4u' absolutely of the chain's exact ratio; a power with
    numerator p adds (|p| + 3) u' to c_n and a_n relatively (:func:`pow_rational`),
    and each product half a unit of u', on top of the chain's own error in a_n.

    On a row after the chain stopped moving (C_n = 0, B' = A' having been
    set by the late-step rule), d_n is the descend map's leading term
    d_{n-1}**m / L, L = 4, 9 and 8 for orders 2, 3 and 4, which the rule's
    d_{n-1}**m < 10**(2 - W') makes exact to a relative 10**(2 - W'): d_n
    stays positive and decreasing to the last row, within three units in
    its last place of the map of the row before.
    """

    def __init__(self, run: RunResult, n: int):
        # the row is frozen; cached_property stores d, c and a in the instance
        # dict, which the frozen __setattr__ does not guard
        for name, value in (("n", n), ("delta_exp", run.chain[n].delta_exp), ("_run", run)):
            object.__setattr__(self, name, value)

    @cached_property
    def d(self) -> Real:
        run, link = self._run, self._run.chain[self.n]
        m, fine = run.kind.order, run._fine
        with fine.local():
            if not self.n:
                gap = nth_root(1 - run.start[0] ** m, m, fine)
            elif link.mean != run.chain[self.n - 1].mean:
                gap = run.chain[self.n - 1].mean - link.mean
                gap = gap / 2 if m == 3 else gap
            else:
                with run.ctx.local():
                    return run.trace[self.n - 1].d ** m / _DESCEND_LEADING[m]
            return run.ctx.real(quotient(gap, link.mean))

    @cached_property
    def c(self) -> Real:
        run, link = self._run, self._run.chain[self.n]
        exponent, fine = -run.kind.e * (run.w - 1), run._fine
        with fine.local():
            c = run.start[1] * run.kind.order**self.n * pow_rational(link.mean, exponent, fine)
            return run.ctx.real(c)

    @cached_property
    def a(self) -> Real:
        return self._run._a(self._run.chain[self.n])


def _advance(order: int, mean: Real, low: Real, weight: int,
             ctx: PrecisionContext) -> tuple[Real, Real, Real]:
    """One step of the family's AGM from the means (A_n, B_n), with
    ``weight`` = m**n: (A_{n+1}, B_{n+1}, h_{n+1} - h_n), at ``ctx``,
    the chain's context of W' digits (:func:`_chain_context`).

    The root is skipped (B_{n+1} = A_{n+1}) once (C_{n+1}/A_{n+1})**m is below
    10**(2 - W'), and a step from A_n = B_n returns at once, so the steps after
    that move nothing.

    Error bound, with u' = 10**(1 - W').  A' and C' are rounded to half a unit
    of a sum or difference of means, the radicand of B' to about two units,
    and :func:`nth_root` adds 3/m units, so B' is within 2u' of the exact root
    of the rounded means; a skipped root leaves B' above the exact one by at
    most 10**(2 - W') / m <= 5u'.  The nth_root bound is smaller than
    1 - B'/A' ~ (C'/A')**m / m wherever the root is taken, so B' < A' and
    every gap C is positive.  A relative error delta in B_n moves the run's
    limit by about c_n delta / 2 (the invariant's derivative in z_n), and
    C_{n+1}, a difference, carries it absolutely: so the chain's a_N is
    within a relative 5u' sum_n |c_n| / |a_N| <= 10u' |c_N| / |a_N|, with
    c_N = c_0 m**N.  For the constants c_0 = 2 and |a_N| > 1/4, a loss of
    about N log10(m) + 2 digits: up to 8 at 20 000 digits (quadratic, N = 18),
    inside the ``_CHAIN_DIGITS`` = 10 the chain carries beyond the working
    precision, so the value rounded to W digits keeps the accuracy of the
    paper's normalized recurrence.
    """
    if mean == low:
        return mean, mean, Decimal(0)
    if order == 3:
        mean1, gap = (mean + 2 * low) / 3, (mean - low) / 3
        radicand = low * ((mean + low) ** 2 - mean * low) / 3
        rise = quotient(2 * weight * gap * radicand, mean * mean1)
    else:
        mean1, gap = (mean + low) / 2, (mean - low) / 2
        if order == 2:
            radicand, rise = mean * low, weight * gap * low
        else:
            tail = low * (mean * mean + low * low)
            radicand, rise = mean * tail / 2, weight * gap * tail
    with localcontext(_LOW):
        negligible = (+gap / +mean1) ** order < ctx.epsilon(2)
    return mean1, mean1 if negligible else nth_root(radicand, order, ctx), rise


def _rise_at_w1(kind: AlgorithmKind, start, total: Real, rise: Real, mean: Real,
                mean1: Real) -> tuple[Real, Real]:
    """(a_{n+1} - a_n, a_{n+1}) at w1 of the step from (A_n, h_n) = (``mean``,
    ``total``) to A_{n+1} = ``mean1``, h_{n+1} = h_n + ``rise``, in the 30-digit context.

    With a_n = hat / A_n**E (E = e (w1 + 1) = m), hat = a_0 + c_0 h_n and
    gain = c_0 ``rise``,
    a_{n+1} - a_n = hat (A_n**E - A_{n+1}**E) / (A_n A_{n+1})**E + gain / A_{n+1}**E,
    and A_n**E - A_{n+1}**E = (A_n - A_{n+1}) sum_j A_n**j A_{n+1}**(E-1-j).
    Both terms are nonnegative at w1 (a_0 >= 0, A_{n+1} <= A_n, every gap
    positive), so no digit cancels: the rise is good to a relative 1e-27,
    and is exactly 0 when the chain did not move.
    """
    _, c0, a0 = start
    m = kind.order
    with localcontext(_LOW):
        drop = mean - mean1
        mean, mean1, c0 = +mean, +mean1, +c0
        hat, gain = a0 + c0 * total, c0 * rise
        span = mean + mean1  # sum_j A_n**j A_{n+1}**(m-1-j), by Horner's rule
        for k in range(2, m):
            span = span * mean + mean1**k
        top = mean1**m
        return (hat * drop * span / mean**m + gain) / top, (hat + gain) / top


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


def _chain_context(ctx: PrecisionContext) -> PrecisionContext:
    """The context a chain and its start compute at: ``_CHAIN_DIGITS`` more guard."""
    return PrecisionContext(ctx.target_digits, ctx.guard_digits + _CHAIN_DIGITS)


def _iterate(kind: AlgorithmKind, w: Fraction, start: tuple[Real, Real, Real],
             ctx: PrecisionContext, budget: int) -> list[_Link]:
    """The chain from ``start`` = (B_0, c_0, a_0), run until two consecutive
    deltas are small; :class:`NonConvergenceError` after ``budget`` steps.

    A delta |a_n - a_{n-1}| is small when delta_exp <= e(a_n) - target_digits - 8
    (e(x) = x.adjusted()): below 10**(-target_digits - 8) times the power of ten
    just above |a_n|.  So a limit far from 1 (about 1e-73 at w = -1000) keeps
    its digits, and a limit in [0.1, 1), as of pi and gamma23, stops where the
    absolute bound 10**(-target_digits - 8) stopped it.  At w1 the delta is
    :func:`_rise_at_w1`; at any other w it is the difference of the rows' a at
    w, formed at the chain's precision.
    """
    m = kind.order
    low, _, a0 = start
    root_free = w == kind.root_free_w
    exponent = -kind.e * (w + 1)
    fine = _chain_context(ctx)
    with fine.local():
        link = _Link(Decimal(1), Decimal(0), None, None if root_free else a0)
        chain = [link]
        a = link.a
        consecutive = 0
        for n in range(1, budget + 1):
            mean, low, rise = _advance(m, link.mean, low, m ** (n - 1), fine)
            total = link.total + rise
            if root_free:
                delta, a = _rise_at_w1(kind, start, link.total, rise, link.mean, mean)
                kept = None
            else:
                a1 = _a_at(start, mean, total, exponent, fine)
                delta, a, kept = abs(a1 - a), a1, ctx.real(a1)
            link = _Link(mean, total, delta.adjusted() if delta else None, kept)
            chain.append(link)
            small = not delta or delta.adjusted() <= a.adjusted() - ctx.target_digits - 8
            consecutive = consecutive + 1 if small else 0
            if consecutive == 2:
                break
    if consecutive < 2:
        raise NonConvergenceError(
            f"{kind.name} run did not converge within {budget} iterations",
            trace=RunResult(kind, w, ctx, start, chain, value=None).trace,  # no limit
        )
    return chain


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
    quartic families and s = 1/3 for the cubic one.  The chain starts from
    B_0 = d_0 = 2**(-1/m), since 1 - d_0**m = d_0**m.  The run allows
    step_budget(target, m) steps at ``ctx`` raised to at least 32 target
    digits and the guard of make_context(target, m) (see ``RunResult.ctx``).
    A w that :func:`as_weight` refuses raises before any arithmetic.
    """
    w = as_weight(w)
    m = kind.order
    ctx, budget = _sized(ctx, m)
    fine = _chain_context(ctx)
    start = pow_rational(Decimal(2), Fraction(-1, m), fine), Decimal(2), Decimal(0)
    chain = _iterate(kind, w, start, ctx, budget)
    last = chain[-1]
    if last.a is None:  # a run at w1 forms its a_N only here
        a = _a_at(start, last.mean, last.total, -kind.e * (w + 1), fine)
        chain[-1] = last = last._replace(a=ctx.real(a))
    return RunResult(kind, w, ctx, start, chain, last.a)


def run_ellipse(kind: AlgorithmKind, semi_major: Real, semi_minor: Real,
                ctx: PrecisionContext) -> RunResult:
    """Perimeter iteration (order 2 or 4): the value is F(a, b) with
    P(a, b) = 2 pi b ((b/a) F(a, b)), the form whose products stay in the
    exponent range (b^2 underflows for axes near 1e-500000000000060).

    F is the limit at w = 0 of the recurrences of :func:`run_borwein` started
    from d_0 = (1 - b^2/a^2)**(1/m), c_0 = 2 a^2/b^2, a_0 = 1.  The chain
    starts from the complementary means, B_0 = (b/a)**(2/m) (b/a or its square
    root), so it never forms 1 - b^2/a^2 and takes any b/a whose square the
    exponent range holds, however far below the working precision.  The run
    iterates from that start at the root-free w = 1, and F = L(1) / K is the
    chain's a_N at w = 0, (1 + c_0 h_N) A_N**-e; ``RunResult.w`` is 1, the w of
    the trace rows.
    It runs at the context of :func:`run_borwein` plus :func:`_eccentric_steps`
    steps (``RunResult.ctx``).  A (b/a)**2 below the exponent range raises
    :class:`DomainError`.
    """
    check_axes(semi_major, semi_minor)
    if kind.order not in (2, 4):
        raise UnsupportedParameterError("perimeter algorithms exist for quad and quartic only")
    ctx, budget = _sized(ctx, kind.order, _eccentric_steps(semi_major, semi_minor))
    fine = _chain_context(ctx)
    with fine.local() as local:
        ratio = fine.real(semi_minor) / fine.real(semi_major)
        square = ratio * ratio
        if local.flags[decimal.Subnormal]:
            raise DomainError("b/a is out of range: (b/a)^2 is below the exponent range")
        b0 = ratio if kind.order == 2 else nth_root(ratio, 2, fine)
        start = b0, quotient(Decimal(2), square), Decimal(1)
        chain = _iterate(kind, kind.root_free_w, start, ctx, budget)
        value = _a_at(start, chain[-1].mean, chain[-1].total, Fraction(-kind.e), fine)
    with ctx.local():
        return RunResult(kind, kind.root_free_w, ctx, start, chain, +value)


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
    start = run.start[2]
    if run.kind.order not in orders or start != 0:
        raise UnsupportedParameterError(
            f"constant {name} is computed by a run_borwein run (a_0 = 0) of an order in "
            f"{orders}, not by a {run.kind.name} run from a_0 = {start}"
        )
    ctx = run.ctx
    with ctx.local():
        return pow_rational(run.limit(w) * pow_rational(Decimal(2), -alpha, ctx), -e, ctx)
