"""The Borwein-like iteration families and the ellipse-perimeter iterations.

Each family of order m in {2, 3, 4} has the paper's state (d_n, c_n, a_n),
from d_0 = 2**(-1/m), c_0 = 2, a_0 = 0 for the constants.  The quantity

    A_n = (sum_k C_k d_n^{mk})**w * sum_k C_k (a_n + b_n k) d_n^{mk},

with b_n = c_n (1 - d_n^m), is invariant along the run, so a_n converges to
A_0, the couple product evaluated independently by the series module.

The chain d_n does not depend on w, and a step at w is the step at the
root-free weight w1 (2 for order 3 and 1 otherwise) times the power
f(d_{n+1})**(e (w - w1)), with f = 1 + d for orders 2 and 4 and 1 + 2d for
order 3, and e = 2 for order 4 and 1 otherwise (:attr:`AlgorithmKind.e`).
At w1 the iteration is its family's AGM (Borwein & Borwein, *Pi and the
AGM*, 1987; Trans. AMS 323, 1991) written in ratios of the means, so a run
carries the means themselves, as the Gauss-Legendre algorithm does (Brent,
J. ACM 23, 1976).  Borwein's quartic AGM is two steps of the quadratic one
on the squares of its means (Salamin, Math. Comp. 30, 1976), so a quartic
run carries the quadratic chain: the chain's order is p = m / e, 2 for
orders 2 and 4 and 3 for order 3, and its mean M_n is A_n**e, the paper's
mean to the power e.  From M_0 = 1, B_0 = (1 - d_0**m)**(e/m), h_0 = 0 and
the radicand R_{-1} = B_0**p (1/2 for the constants), a chain step is

    quadratic  M' = (M + B)/2,  C' = (M - B)/2,  R = M B,  B' = R**(1/2),
               h' = h + 2**(k-1) (R - R_prev)
    cubic      M' = (M + 2B)/3, C' = (M - B)/3,
               R = (M B (M + B) + R_prev)/3,  B' = R**(1/3),
               h' = h + 2 * 3**k C' R / ((M**2 + 2 M B)/3)
    quartic    two quadratic steps, k = 2n and 2n + 1

with k the chain step and R_prev the radicand of B, so that 2**k C' B is
2**(k-1) (M B - B**2) and M M' is (M**2 + 2 M B)/3: a quadratic step is one
product and one square root, and a cubic one four products, one root and
one quotient.  Quartic link n is quadratic link 2n, the quartic's own
A_n**2 and h_n.  The paper's row n at weight w is then

    d_n = C_n / A_n,   c_n = c_0 m**n M_n**(1 - w),
    a_n = (a_0 + c_0 h_n) M_n**(-(w + 1)),

with C_n = A_{n-1} - A_n (half that for the cubic family), and each f
is A_{n-1} / A_n: K = prod f(d_n)**e = M_N**-1 (:attr:`RunResult.k`).
A named constant is the limit at its recipe's own w (:data:`CONSTANT_RECIPES`):
pi and gamma23 at w1, gamma34, gamma14 and gamma13 at 3, 1/3 and 1/2, and
:func:`postprocess_constant` forms it off the chain's last link as one
monomial, one inverse root (one quotient for pi).  The
perimeter factor F(a, b) is the paper's iteration at w = 0 from ellipse
initial values, and :func:`perimeter` forms the perimeter from it and the
run's c_0 = 2/(b/a)**2.

No step takes a power: every run takes the chain's steps and stops on the
rises of a at w1, which each step reads off the chain with the 30-digit
reads of its late-step test (:func:`_advance`), so runs at any two w from
one start and context build the same chain; w1 is read nowhere else.  The
weight enters only when something is read.  A row, an
:class:`IterationState` of the run's trace, forms its d, c, a and delta_exp
each when first read (:attr:`RunResult.trace`), and every run's value is
its last row's a at the run's own w: one power, formed when first read.
A row's a is formed once per chain state, so the rows after the
chain stood still share the value's.  The limit at another w is the value
of the same chain read there (:meth:`RunResult.limit`), one power too.  The
chain and its start run at the W' = W + 10 digits of the run's ``ctx.wide``,
which covers the digits its differences of means lose, and every value is
rounded once to W.  Once the last chain step's (C'/M')**p, the paper's
(C'/A')**m, falls below 10**(2 - W') the root is skipped and B' = M', so
the chain stops moving and the confirming steps of the stopping rule cost
nothing.  The
error bounds are stated on :func:`_advance` (the chain), :attr:`RunResult.k`
(K), :class:`IterationState` (a row formed when read) and
:func:`postprocess_constant` (a constant).

From W' = 1 300 up to 28 000 the chain is carried in binary fixed point,
as Python ints scaled by 2**F (:class:`~replica.precision.Fixed`,
:func:`_fixed_bits`), whose products cost less than libmpdec's there.  The
step is the same code over either number type: only its root, the cubic
quotient and its 30-digit reads, taken once per step for the late-step test
and the stopping rule, tell them apart.  A link is converted to W' digits
when something reads it (:meth:`RunResult._link`), so a run's value converts its last link alone,
its rows the others when first read, and a named constant none: it is
formed in the chain's own number type and converted once, to W digits.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DomainError,
    NonConvergenceError,
    UnsupportedParameterError,
)
from .precision import (
    _HEAD,
    GUARD_DIGITS_PER_STEP,
    Fixed,
    PrecisionContext,
    Real,
    _inverse_root,
    as_weight,
    lazy,
    make_context,
    nth_root,
    pow_rational,
    quotient,
    step_budget,
)
from .series import check_axes, evaluate_series

#: order -> L of the descend map's leading term t ~ d**m / L near d = 0
#: (:mod:`replica.transforms`), which continues the rows once the chain stops moving.
_DESCEND_LEADING = {2: 4, 3: 9, 4: 8}

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
    def e(self) -> int:
        """The power of f in K = prod f(d_n)**e and in the step at w: 2 for
        order 4, else 1.  A run's chain takes e steps of order m / e per step
        and carries the means to the power e (the quartic's the quadratic
        means), so K, a row's scale and a constant read that mean with power 1."""
        return 2 if self.order == 4 else 1


QUADRATIC = AlgorithmKind(2)
CUBIC = AlgorithmKind(3)
QUARTIC = AlgorithmKind(4)


class _Link(NamedTuple):
    """One state of a run's chain: the mean M_n = A_n**e and the sum h_n, both
    Decimals or both :class:`~replica.precision.Fixed`."""

    mean: Real | Fixed
    total: Real | Fixed


@dataclass
class RunResult:
    """Outcome of a run: the family, the w its trace rows belong to, the
    context it ran at, its start (B_0, c_0, a_0) and its chain of (M_n, h_n),
    which no w enters, both at the W' = W + 10 digits of ``ctx.wide``, and
    its value, the last trace row's a: the chain's a_N at ``w``, formed at
    W' digits on its first read and rounded once to W.

    ``origin`` and ``links`` are the start and the chain as the run carried
    them: Decimals at W' digits, or a B_0 and links of
    :class:`~replica.precision.Fixed` values of F bits (:func:`_fixed_bits`).
    :attr:`start` and :attr:`chain` are the same in Decimals at W' digits,
    and a fixed-point B_0 or link is converted only when something reads it
    (:meth:`_link`): the value, :attr:`k` and :meth:`limit` read the last
    link alone, and only row 0's d reads B_0.

    The trace rows, errors and orders (:attr:`trace`, :attr:`error_table`,
    :attr:`orders`) are formed only when first read, at ``ctx``, whatever the
    calling thread's decimal context.
    """

    kind: AlgorithmKind
    w: Fraction
    ctx: PrecisionContext
    origin: tuple[Real | Fixed, Real, Real]
    links: list[_Link]

    def __post_init__(self):
        # the run keeps its rows' a at W', not a row: a row refers to its run,
        # and the cycle would hold the chain until the cyclic collector ran
        self._fine_as = {self.links[0]: self.origin[2]}
        self._decimal_links = {}
        self._exponent = -(self.w + 1)

    @lazy
    def value(self) -> Real:
        """The last row's a, a_N at ``w``, rounded once to W: one power, formed
        on the first read."""
        return self.ctx.real(self._fine_a(self.iterations))

    @lazy
    def start(self) -> tuple[Real, Real, Real]:
        """(B_0, c_0, a_0) in Decimals at W' digits: a fixed-point B_0 is
        converted on the first read."""
        low, c0, a0 = self.origin
        return low.rounded(self.ctx.wide) if isinstance(low, Fixed) else low, c0, a0

    def _link(self, n: int) -> _Link:
        """Link n of the chain in Decimals at W' digits: a fixed-point link is
        converted on its first read (:meth:`Fixed.rounded`), once per chain state."""
        link = self.links[n]
        if not isinstance(link.mean, Fixed):
            return link
        if link not in self._decimal_links:
            fine = self.ctx.wide
            self._decimal_links[link] = _Link(link.mean.rounded(fine), link.total.rounded(fine))
        return self._decimal_links[link]

    @lazy
    def chain(self) -> list[_Link]:
        """The chain of (M_n, h_n) in Decimals at W' digits, one :class:`_Link` per row."""
        return [self._link(n) for n in range(len(self.links))]

    def _fine_a(self, n: int) -> Real:
        """a_n at ``w`` at the chain's W' digits (:meth:`_weighed`), formed once
        per chain state (:class:`_Link`): row 0's a_0 takes no power, rows whose
        link equals another's share its a, and every other row takes one."""
        link = self.links[n]
        if link not in self._fine_as:
            self._fine_as[link] = self._weighed(n, self._exponent)
        return self._fine_as[link]

    def _weighed(self, n: int, exponent: Fraction) -> Real:
        """(a_0 + c_0 h_n) M_n**exponent at the chain's W' digits: a_n at the w
        of exponent = -(w + 1)."""
        _, c0, a0 = self.origin
        mean, total = self._link(n)
        with self.ctx.wide.local():
            return (a0 + c0 * total) * pow_rational(mean, exponent, self.ctx.wide)

    @property
    def iterations(self) -> int:
        return len(self.links) - 1

    @lazy
    def trace(self) -> list[IterationState]:
        """The paper's rows (n, d_n, c_n, a_n, delta_exp) of the chain at ``w``, one
        :class:`IterationState` per link, each forming its d, c, a and delta_exp
        when first read."""
        return [IterationState(self, n) for n in range(len(self.links))]

    @lazy
    def error_table(self) -> list[tuple[int | None, float | None]]:
        """:func:`error_table` of the trace against its own limit, the value,
        at ``ctx``: (err_exp, order or None) per trace row."""
        return error_table(self.trace, self.value, self.ctx)

    @property
    def orders(self) -> list[float]:
        """The convergence orders of :attr:`error_table`, in row order."""
        return [order for _, order in self.error_table if order is not None]

    @property
    def k(self) -> Real:
        """K = M_N**-1 = A_N**-e, read off the chain at ``ctx``: the ratio of the limits at
        w + 1 and at w from this run's start, 1/AGM = S(1, 0; z_0).

        With N = ``iterations`` and the chain's u' = 10**(1 - W') of
        :func:`_advance`: each family's AGM is homogeneous of degree 1 and
        increasing in both means, so the relative errors a chain step leaves in
        M' and B', at most 5u', move the limit by as much, and M_N is within
        5 e N u' plus M_N / M(M_N, B_N) - 1 (below e d_N**m / m) of the exact
        AGM of the start.  The quotient adds 4 * 10**(1 - W), so
        r_K <= 4 * 10**(1 - W) + 5 e N u' + e d_N**m / m, where the
        stopping rule has made d_N**m far smaller than 10**-target.  Against
        the product of f(d_n)**e over the rows of :attr:`trace`, which
        telescopes to the same A_N**-e, K is within 2 N * 10**(1 - W).
        """
        return pow_rational(self._link(self.iterations).mean, -1, self.ctx)

    def limit(self, w) -> Real:
        """The limit of this family's iteration at weight ``w`` from this run's
        start, at ``ctx``: the value itself at ``self.w``, else the value of the
        same chain read at ``w``, one power of its last link, which this run
        converts once whatever the w.  That is the value of the run at ``w``
        from the same start and context, which builds the same chain, with
        the same error bound.  A ``w`` that :func:`as_weight` refuses raises
        :class:`UnsupportedParameterError`.
        """
        w = as_weight(w)
        if w == self.w:
            return self.value
        return self.ctx.real(self._weighed(self.iterations, -(w + 1)))


class IterationState:
    """Row n of a run's trace at the run's w: d_n, c_n, a_n and delta_exp,
    floor(log10 |a_n - a_{n-1}|), each formed from the chain when first read.
    Rows compare by identity.

    d_n = C_n / A_n, c_n = c_0 m**n M_n**(1 - w) and
    a_n = (a_0 + c_0 h_n) M_n**(-(w + 1)) are taken at the chain's
    W' = W + 10 digits (``ctx.wide``) and rounded once to the run's W, with
    d_0 = (1 - B_0**p)**(1/m) and, from n = 1 on, C_n = A_{n-1} - A_n (half
    that for the cubic family): a difference of means, as in the step.  The
    quartic chain carries M_n = A_n**2, so its d_n = (M_{n-1} / M_n)**(1/2) - 1
    takes a quotient and a square root, each only when d is read.  Row
    0's a is a_0 (M_0 = 1) and takes no power.  Each a_n at W' is formed
    once per chain state (:meth:`RunResult._fine_a`), so the last row's a is
    the run's value and takes no power of its own, and neither do the rows
    after the chain stood still, whose link is the last one.
    delta_exp is e(|a_n - a_{n-1}|) of the two rows' a at W' at every w
    (the stopping rule reads its own rises at w1, :func:`_advance`), None
    on row 0 and where a did not move.

    With u' = 10**(1 - W'): C_n is good to 3u' of A_n absolutely
    (:func:`_advance`), so d_n is within half a unit in its last place plus
    4u' absolutely of the chain's exact ratio, and a quartic d_n, whose
    quotient and root add 2u' to 1 + d_n, within half a unit plus 3u'; a
    power with numerator p adds (|p| + 3) u' to c_n and a_n relatively
    (:func:`pow_rational`), and each product half a unit of u', on top of
    the chain's own error in a_n.

    On a row after the chain stopped moving (C_n = 0, B' = M' having been
    set by the late-step rule), d_n is the descend map's leading term
    d_{n-1}**m / L, L = 4, 9 and 8 for orders 2, 3 and 4, which the rule's
    d_{n-1}**m < 10**(2 - W') makes exact to a relative 10**(2 - W'): d_n
    stays positive and decreasing to the last row, within three units in
    its last place of the map of the row before.
    """

    def __init__(self, run: RunResult, n: int):
        self.n = n
        self._run = run

    @lazy
    def d(self) -> Real:
        run, n = self._run, self.n
        m, fine, mean = run.kind.order, run.ctx.wide, run._link(n).mean
        with fine.local():
            if not n:
                gap = nth_root(1 - run.start[0] ** (m // run.kind.e), m, fine)
            elif run.links[n].mean != run.links[n - 1].mean:
                if m == 4:
                    ratio = quotient(run._link(n - 1).mean, mean)
                    return run.ctx.real(nth_root(ratio, 2, fine) - 1)
                gap = run._link(n - 1).mean - mean
                gap = gap / 2 if m == 3 else gap
            else:
                with run.ctx.local():
                    return run.trace[n - 1].d ** m / _DESCEND_LEADING[m]
            return run.ctx.real(quotient(gap, mean))

    @lazy
    def c(self) -> Real:
        run = self._run
        exponent, fine = 1 - run.w, run.ctx.wide
        with fine.local():
            power = pow_rational(run._link(self.n).mean, exponent, fine)
            return run.ctx.real(run.origin[1] * run.kind.order**self.n * power)

    @lazy
    def a(self) -> Real:
        return self._run.ctx.real(self._run._fine_a(self.n))

    @lazy
    def delta_exp(self) -> int | None:
        run = self._run
        if not self.n:
            return None
        with run.ctx.wide.local():
            delta = abs(run._fine_a(self.n) - run._fine_a(self.n - 1))
        return delta.adjusted() if delta else None


def _advance(kind: AlgorithmKind, link: _Link, low: Real | Fixed, radicand: Real | Fixed,
             weight: int, origin, ctx: PrecisionContext,
             floor: Real) -> tuple[_Link, Real | Fixed, Real | Fixed, Real, Real]:
    """One step of the family from the link (M_n, h_n) = ``link``, B_n = ``low``
    and its radicand R_{n-1} = ``radicand`` (B_n**p), M_n > B_n, with
    ``weight`` = m**n, at ``ctx``, the chain's context of W' digits (the run's
    ``ctx.wide``): the link (M_{n+1}, h_{n+1}), B_{n+1}, its radicand R_n, and
    the rise a_{n+1} - a_n and a_{n+1} at w1 from the start ``origin`` =
    (B_0, c_0, a_0), both to 30 digits, which the stopping rule of
    :func:`_run` reads.  The step is e = ``kind.e`` chain steps of order
    p = m / e (the module's table): one for orders 2 and 3, two quadratic
    ones for the quartic family, whose first takes its root at once.  The
    means are Decimals at W' digits or :class:`~replica.precision.Fixed`
    values of F bits, and the step is the same code over both: its operators
    are those of the number type, and only the root, the cubic quotient and
    the 30-digit reads take one branch per type.

    The step's 30-digit reads are taken once, after its last chain step, in
    the context ``precision._HEAD``, and serve both the late-step test and
    the rise: a Decimal is rounded to 30 digits there, a fixed-point value is
    read by :meth:`~replica.precision.Fixed.head`, and M_n - M_{n+1} and
    h_{n+1} - h_n, the rise of the carried sum, are formed in the chain's
    type and rounded once there.  With a_n = hat / M_n**p at w1, hat =
    a_0 + c_0 h_n and gain = c_0 (h_{n+1} - h_n),

        a_{n+1} - a_n = (hat (M_n - M_{n+1}) span / M_n**p + gain) / M_{n+1}**p,

    with span = sum_j M_n**j M_{n+1}**(p-1-j), so that
    M_n**p - M_{n+1}**p = (M_n - M_{n+1}) span.  Both terms are nonnegative
    at w1 (a_0 >= 0, M_{n+1} <= M_n, every gap positive), so no digit
    cancels: the rise is good to a relative 1e-27.

    The last root is skipped (B_{n+1} = M_{n+1}) once (C'/M')**p of the last
    chain step, the paper's (C_{n+1}/A_{n+1})**m, taken in the 30-digit
    context, is below ``floor`` = 10**(2 - W'); :func:`_run` takes no step
    from M_n = B_n, so the steps after that move nothing.

    Error bound in fixed point, with units of 2**-F: each product, quotient
    and halving rounds down by at most one unit, sums and differences are
    exact, and :meth:`Fixed.root` is within two units relatively, so B' is
    within about four units of the exact root of the carried means.  The
    rise of chain step k, 2**(k-1) (R - R_prev), is exact in the carried
    radicands, each a unit from M B and B**2 within four of R_prev, so it is
    within 5 * 2**(k-1) units of 2**k C' B, and h_N within 2**(K+2) units
    after K chain steps: F has K + 2 bits for that, K the budget of a run of
    the chain's order at the run's target (a quartic run's chain moves for
    a step or two more than the quadratic run's at most), beyond
    W' log2(10) + 16 and log2(a/b) (:func:`_fixed_bits`), so that each
    relative error a step adds is below 4 * 2**-16 * 10**-W', under a
    thousandth of the u' below, and the Decimal chain's argument holds as
    it stands.  The cubic rise, a product and a quotient, is within three
    units.
    The means are at least B_0 >= b/a (:func:`run_ellipse`; above 0.7 for
    the constants), which the log2(a/b) bits cover.  c_0 scales the units
    of h in a_n = (a_0 + c_0 h_n) M_n**(-(w + 1)), but only against
    c_0 h_n <= a_0 + c_0 h_n: the relative error c_0 delta_h / (a_0 + c_0 h_n)
    of a_n is at most delta_h / h_n, whatever c_0, so c_0 adds no bits to F.

    Error bound, with u' = 10**(1 - W').  M' and C' are rounded to half a unit
    of a sum or difference of means, the radicand of B' to about two units,
    and :func:`nth_root` adds 3/p units, so B' is within 2u' of the exact root
    of the rounded means; a skipped root leaves B' above the exact one by at
    most 10**(2 - W') / p <= 5u'.  The nth_root bound is smaller than
    1 - B'/M' ~ (C'/M')**p / p wherever the root is taken, so B' < M' and
    every gap C is positive.  A relative error delta in B_n moves the run's
    limit by about c_n delta / 2 (the invariant's derivative in z_n), and
    C_{n+1}, a difference, carries it absolutely: so the chain's a_N is
    within a relative 5u' sum_n |c_n| / |a_N| <= 10u' |c_N| / |a_N|, with
    c_N = c_0 m**N.  The quadratic rise of chain step k reads R and R_prev,
    each rounded to a twentieth of u', and B**2 is within 3u' of R_prev, so
    it is within 2**(k+1) u' of 2**k C' B, and h_N within 2**(K+1) u' after
    K chain steps: a relative 2**(K+1) u' / h_N in a_N, at every w.  For the
    constants c_0 = 2, |a_N| > 1/4 and h_N > 0.1, a loss of about
    N log10(m) + 2 digits in all, with N at most the run's budget: up to 8
    at 20 000 digits (quadratic, N = 18) and 9 at 10**6 digits (N = 23),
    inside the 10 digits the chain carries beyond the working precision, so
    the value rounded to W digits keeps the accuracy of the paper's
    normalized recurrence.
    """
    (mean, total), (_, c0, a0) = link, origin
    fixed, p = isinstance(mean, Fixed), kind.order // kind.e
    root = (lambda x: x.root(p)) if fixed else (lambda x: nth_root(x, p, ctx))
    mean1, total1 = mean, total
    for step in range(kind.e):
        if step:  # the quartic's first quadratic step
            low = root(radicand)
        product = mean1 * low
        if p == 3:
            gap = (mean1 - low) / 3
            radicand = (product * (mean1 + low) + radicand) / 3
            num, den = 2 * weight * gap * radicand, (mean1 * mean1 + 2 * product) / 3
            total1 += num / den if fixed else quotient(num, den)
            mean1 = (mean1 + 2 * low) / 3
        else:
            gap = (mean1 - low) / 2
            total1 += weight * (product - radicand) / 2
            radicand, mean1 = product, (mean1 + low) / 2
        weight *= p
    link = _Link(mean1, total1)
    with localcontext(_HEAD):
        if fixed:
            reads = (x.head() for x in (mean - mean1, mean, mean1, gap, total, total1 - total))
        else:
            reads = (mean - mean1, +mean, +mean1, +gap, total, total1 - total)
        drop, head, head1, gap, total, rise = reads
        c0 = +c0
        hat, gain = a0 + c0 * total, c0 * rise
        span = head + head1  # sum_j M_n**j M_{n+1}**(p-1-j), by Horner's rule
        for k in range(2, p):
            span = span * head + head1**k
        top = head1**p
        delta, a = (hat * drop * span / head**p + gain) / top, (hat + gain) / top
        late = (gap / head1) ** p < floor
    return link, mean1 if late else root(radicand), radicand, delta, a


def _sized(ctx: PrecisionContext, order: int,
           extra_steps: int = 0) -> tuple[PrecisionContext, int]:
    """The context a run of the given order computes at, whose ``wide`` its
    chain and start compute at, and its step budget.

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


#: Working digits W' of a chain from which, and below which, it is carried
#: in binary fixed point (:func:`_fixed_bits`).
_FIXED_FROM = 1_300
_FIXED_BELOW = 28_000

#: Bits a fixed-point chain carries beyond W' log2(10).
_FIXED_GUARD_BITS = 16

#: Most bits an ellipse start may add: past them (b/a below 1e-14) the chain
#: is carried in Decimals.
_FIXED_START_BITS = 48


def _fixed_bits(fine: PrecisionContext, steps: int, ratio: Real = Decimal(1)) -> int | None:
    """F, the fraction bits of the :class:`~replica.precision.Fixed` values a
    chain at ``fine`` (W' working digits) carries, allowed ``steps`` chain
    steps (the budget of a run of the chain's order), from an ellipse start of
    b/a = ``ratio`` or a constant's (no ratio), or None where the chain is
    carried in Decimals: below W' = ``_FIXED_FROM`` (1 300), from
    ``_FIXED_BELOW`` (28 000) up, and for b/a below 1e-14.

    A product of CPython ints beats one of libmpdec, which multiplies operands
    of up to 256 words (4 864 digits) by its quadratic base case, from a few
    hundred digits up, and whole requests cost less with the Decimal chain
    from about 28 000 digits (the second table).  A run_borwein run at w = 1,
    time with the fixed-point chain over time with the Decimal chain, the
    range of two best-of-2-to-7 pairs (2 vCPU, Python 3.11.7, libmpdec
    2.5.1, shared machine):

        W'        quadratic   cubic       quartic
        438       1.19-1.23   1.01-1.15   0.96-1.08
        746       0.91-0.99   0.86-0.89   0.83-0.88
        1 046     0.80-0.81   0.71-0.76   0.75-0.81
        1 454     0.70-0.72   0.62-0.64   0.61-0.65
        2 154     0.63-0.64   0.54-0.56   0.42-0.58
        5 170     0.73        0.76-0.79   0.79-0.82
        8 170     0.67-0.68   0.72        0.70-0.72
        9 978     0.60-0.74   0.71-0.73   0.79-0.82

    From 12 000 digits, whole requests ``--digits D --plain``, the same ratio
    summed over each family's constants (pi, gamma34 and gamma14 for orders
    2 and 4, gamma23 and gamma13 for order 3) and for ``ellipse 2 1``, best
    of 3 alternating runs, with W' from D + 122 to D + 186, and the cubic
    quotient in ints by :func:`~replica.precision._quotient_bits`:

        D         quadratic   cubic   quartic   ellipse   all
        12 000    0.74        0.76    0.80      0.83      0.78
        16 000    0.89        0.88    1.05      0.88      0.92
        20 000    0.70        0.79    0.79      0.80      0.77
        24 000    0.73        0.89    0.88      0.92      0.85
        26 000    0.82        0.87    0.97      1.01      0.91
        28 000    0.92        0.93    1.07      1.09      0.99
        32 000    1.09        1.06    1.32      1.33      1.18

    The chain is carried in Decimals below W' = 1 300 though it would win from
    about 750: every request of 1 000 digits or fewer, and the runs the
    frozen bits of the tests pin, keep the Decimal chain.

    F is ceil(W' log2(10)) plus ``_FIXED_GUARD_BITS``, plus the bits by which
    the units of b/a, and of the means near B_0 = b/a, weigh more
    relatively: log2(a/b) <= -e(b/a) log2(10) (e(x) = x.adjusted()), so that
    B_0 and the means keep the W' digits the Decimal chain gives them, plus
    ``steps`` + 2, the bits the quadratic rises, which chain step k reads
    off radicands to 2**k units, take from h (:func:`_advance`).  A quartic
    run counts the budget of a quadratic run of its target, whose chain it
    carries, so the two carry the same F and the same links.
    c_0 = 2 (a/b)**2 adds none: it scales the units of h in
    a_n = (a_0 + c_0 h_n) M_n**(-(w + 1)) and the c_0 h_n beside them alike.
    The crossovers were measured before the quartic step became two
    quadratic ones and the rises were read off the radicands, and are not
    measured again here.
    """
    digits = fine.working_digits
    if not _FIXED_FROM <= digits < _FIXED_BELOW:
        return None
    extra = math.ceil(-ratio.adjusted() * math.log2(10))
    if extra > _FIXED_START_BITS:
        return None
    return math.ceil(digits * math.log2(10)) + _FIXED_GUARD_BITS + extra + steps + 2


def _run(kind: AlgorithmKind, w: Fraction, start: tuple[Real | Fixed, Real, Real],
         radicand: Real | Fixed, ctx: PrecisionContext, budget: int) -> RunResult:
    """The run at ``w`` of the chain from ``start`` = (B_0, c_0, a_0) and
    ``radicand`` = B_0**p (:func:`_advance`), in B_0's number type, built
    at ``ctx.wide`` until two consecutive rises of a at w1 are small; its
    value is the last row's a: one power.  A chain that meets no stop within
    ``budget`` steps raises :class:`NonConvergenceError` with the rows of
    that same run.  The stopping rule is the one place a run reads w1.  A
    B_0 that is a :class:`~replica.precision.Fixed` carries the chain in
    fixed point of its bits, and the run keeps it as carried
    (``RunResult.origin``) until its start is read.

    A rise |a_n - a_{n-1}| at w1 (:func:`_advance`) is small when its exponent
    is at most e(a_n) - target_digits - 8 (e(x) = x.adjusted()): below
    10**(-target_digits - 8) times the power of ten just above |a_n|, so a
    relative rise r below 10**-(target_digits + 7).  A limit in [0.1, 1), as
    of pi and gamma23, stops where the absolute bound 10**(-target_digits - 8)
    stopped it.

    The rule reads no run's w, so runs at every w from one start and context
    build the same chain, and it certifies a at each of them.  a at w is
    hat * M**(-(w + 1)) with hat = a_0 + c_0 h, and both terms of the rise
    at w1 are nonnegative, so each bounds on its own the relative moves of
    hat and of M**(-(w1 + 1)) by r.  A step then moves a at w by at most
    (1 + |w + 1| / (w1 + 1)) r relatively,
    a factor below 10**16 for |w| <= :data:`~replica.precision.MAX_ABS_W`.
    The rises fall with the family's order m, so after two small ones what a
    at w still moves is about 10**16 * 10**(-m (target_digits + 7)), below
    10**-(target_digits + 24) for m >= 2 and the 32-digit floor of
    :func:`_sized`; once the chain stands still (B' = M'), it is below
    |w + 1| 10**(2 - W') / p.
    """
    low, fine, m, weight = start[0], ctx.wide, kind.order, 1
    if isinstance(low, Fixed):
        link = _Link(Fixed(1 << low.f, low.f), Fixed(0, low.f))
    else:
        link = _Link(Decimal(1), Decimal(0))
    with fine.local():
        floor = fine.epsilon(2)
        chain = [link]
        consecutive = 0
        for _ in range(budget):
            small = True  # a step from M_n = B_n: the chain stands still from here on
            if link.mean != low:
                link, low, radicand, delta, a = _advance(kind, link, low, radicand, weight,
                                                         start, fine, floor)
                small = not delta or delta.adjusted() <= a.adjusted() - ctx.target_digits - 8
            chain.append(link)
            consecutive = consecutive + 1 if small else 0
            if consecutive == 2:
                return RunResult(kind, w, ctx, start, chain)
            weight *= m
    raise NonConvergenceError(f"{kind.name} run did not converge within {budget} iterations",
                              trace=RunResult(kind, w, ctx, start, chain).trace)


def run_borwein(kind: AlgorithmKind, w: Fraction, ctx: PrecisionContext) -> RunResult:
    """Run the order-m constant algorithm with free parameter w.

    The limit is couple_product(s, w) with s = 1/2 for the quadratic and
    quartic families and s = 1/3 for the cubic one.  The chain starts from
    B_0 = 2**(-1/p), the paper's d_0 = 2**(-1/m) to the power e (since
    1 - d_0**m = d_0**m), and its radicand B_0**p = 1/2, exact.  The run allows
    step_budget(target, m) steps at ``ctx`` raised to at least 32 target
    digits and the guard of make_context(target, m) (see ``RunResult.ctx``).
    A w that :func:`as_weight` refuses raises before any arithmetic.
    """
    w = as_weight(w)
    ctx, budget = _sized(ctx, kind.order)
    two, p = Decimal(2), kind.order // kind.e
    bits = _fixed_bits(ctx.wide, step_budget(ctx.target_digits, p))
    if bits is None:
        low, half = pow_rational(two, Fraction(-1, p), ctx.wide), Decimal("0.5")
    else:
        low, half = Fixed(2 << bits, bits).inverse_root(p), Fixed(1 << bits - 1, bits)
    return _run(kind, w, (low, two, Decimal(0)), half, ctx, budget)


def run_ellipse(kind: AlgorithmKind, semi_major: Real, semi_minor: Real,
                ctx: PrecisionContext) -> RunResult:
    """Perimeter iteration (order 2 or 4): the value is the factor F(a, b) of
    the perimeter that :func:`perimeter` forms from the run.

    F is the limit at w = 0 of the recurrences of :func:`run_borwein` started
    from d_0 = (1 - b^2/a^2)**(1/m), c_0 = 2 a^2/b^2, a_0 = 1, and the run's
    rows are those of that iteration: ``RunResult.w`` is 0, and the value is
    the last row's a, (1 + c_0 h_N) M_N**-1.  The chain starts from the
    complementary means, B_0 = (b/a)**(2e/m) = b/a in both families, and its
    radicand B_0**2, rounded once, so it never forms 1 - b^2/a^2 and takes
    any b/a whose square the exponent range holds, however far below the
    working precision.  c_0 = 2 (a/b)**2 is kept normalized, so a dyadic
    one, such as the 8 of b/a = 1/2, is an exact short Decimal however many
    digits its quotient carried.
    It runs at the context of :func:`run_borwein` plus :func:`_eccentric_steps`
    steps (``RunResult.ctx``).  A (b/a)**2 below the exponent range raises
    :class:`DomainError`.
    """
    check_axes(semi_major, semi_minor)
    if kind.order not in (2, 4):
        raise UnsupportedParameterError("perimeter algorithms exist for quad and quartic only")
    extra = _eccentric_steps(semi_major, semi_minor)
    ctx, budget = _sized(ctx, kind.order, extra)
    fine = ctx.wide
    with fine.local() as local:
        b, a = fine.real(semi_minor), fine.real(semi_major)
        ratio = b / a
        square = ratio * ratio
        if local.flags[decimal.Subnormal]:
            raise DomainError("b/a is out of range: (b/a)^2 is below the exponent range")
        c0 = quotient(Decimal(2), square).normalize()
        bits = _fixed_bits(fine, step_budget(ctx.target_digits, 2) + extra, ratio)
        low = ratio if bits is None else Fixed.ratio(b, a, bits)
        return _run(kind, Fraction(0), (low, c0, Decimal(1)), low * low, ctx, budget)


def perimeter(run: RunResult, semi_major: Real) -> Real:
    """The perimeter P = 4 pi a (F / c_0) of the ellipse of semi-major axis
    a = ``semi_major`` and the axis ratio b/a of the :func:`run_ellipse` run
    ``run``, at ``run.ctx``: F is the run's value, c_0 = 2/(b/a)**2 its start
    (so P = 2 pi b (b/a) F), and pi is :func:`postprocess_constant` of a
    quartic w = 1 :func:`run_borwein` run at ``run.ctx``.  The run holds b/a,
    so no semi-minor axis is asked for, and F / c_0 = P / (4 pi a) lies in
    [1/pi, 1/2], so no product leaves the exponent range, as b**2 would for
    axes near 1e-500000000000060.

    Error bound, with W working digits and u = 10**(1 - W): with r_F and r_pi
    the relative errors of the two runs' values, P is within a relative
    r_F + r_pi + 3.1u of the perimeter of the ellipse of semi-major axis a
    and the run's b/a: pi adds 0.52u of its own (:func:`postprocess_constant`),
    the quotient F / c_0 and the three products 2u, and a, rounded to W
    digits, u/2.  c_0, rounded at the W' = W + 10 digits of the run's chain,
    adds a few units of 10**(1 - W'), a ten-billionth of u each.

    P > 4a for every b > 0, but once (b/a)^2 ln(a/b) is below the working
    precision P rounds to about 4a, where its truncation would read ...999
    whenever the rounding fell below: so P is kept above 4a, at the next
    value up from 4a at W + 1 digits, which keeps the bound, as the exact P
    lies above 4a.  A semi-major axis that is not finite or not positive
    raises :class:`DomainError`, and a run that is not a :func:`run_ellipse`
    run (a_0 = 1), whose value is no F, raises
    :class:`UnsupportedParameterError`.
    """
    if not semi_major.is_finite() or semi_major <= 0:
        raise DomainError(f"the semi-major axis must be a finite decimal > 0, not {semi_major}")
    _, c0, a0 = run.origin
    if a0 != 1:
        raise UnsupportedParameterError(f"a perimeter needs a run_ellipse run (a_0 = 1), "
                                        f"not a {run.kind.name} run from a_0 = {a0}")
    ctx = run.ctx
    a = ctx.real(semi_major)
    with ctx.local():
        pi = postprocess_constant("pi", run_borwein(QUARTIC, Fraction(1), ctx))
        value = 4 * pi * a * (run.value / c0)
        with ctx.elevated(1):
            return max(value, (4 * a).next_plus())


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
    rule of :func:`_run`: the power of ten just above |limit|, which is 1
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


#: constant id -> (j, a, b, q), the constant as a monomial of a run_borwein
#: run's last link (M_N, h_N): with hat = a_0 + c_0 h_N = 2 h_N, the limit
#: at the recipe's w is L = hat M_N**(-(w + 1)), so C = (L 2**(-alpha))**(-e')
#: (e' the recipe's e) is M_N**j (2**a hat**b)**(-1/q), with
#: j = e' (w + 1), q the least common denominator of e' and alpha e',
#: b = e' q and a = -alpha e' q.
_MONOMIALS = {"pi": (2, 0, 1, 1), "gamma34": (1, 0, 1, 4), "gamma14": (1, -2, 3, 4),
              "gamma23": (1, 1, 3, 9), "gamma13": (1, -1, 6, 9)}


def postprocess_constant(name: str, run: RunResult) -> Real:
    """The named constant C = (L * 2**(-alpha))**(-e) from the limit
    L = 2**alpha * C**(-1/e) at its recipe's w, at ``run.ctx``.

    ``run`` is a :func:`run_borwein` run of one of the recipe's orders at any
    w, and C is formed from the run's last link alone, as the monomial
    M_N**j X**(-1/q) of :data:`_MONOMIALS`, with M_N the carried mean
    (the paper's A_N**e, :class:`AlgorithmKind`), X = 2**a hat**b and
    hat = a_0 + c_0 h_N:

        pi = M**2 / hat               gamma34 = M hat**(-1/4)
        gamma14 = M (hat**3 / 4)**(-1/4)
        gamma23 = M (2 hat**3)**(-1/9)    gamma13 = M (hat**6 / 2)**(-1/9)

    so it takes one inverse root of order q (one quotient for pi), in the
    chain's own number type, and rounds once to W.  It reads neither the
    run's value nor :meth:`RunResult.limit`.

    Error bound, with W working digits: C is the same function of (M_N, h_N)
    as (L * 2**(-alpha))**(-e) with L the chain's a_N at the recipe's w,
    so a relative error r of that a_N (:func:`_advance`) becomes |e| r in
    C, to first order, and |e| <= 1 in every recipe.  The roundings on the
    way cost less than 10**(-8) units of 10**(1 - W): in Decimals each
    operation at W' = W + 10 digits adds a few units of 10**(1 - W'); in
    fixed point each adds a unit of 2**-F <= 10**-W' / 65536 absolutely on
    values above 3e-5 (the least, gamma13's X, is 3.7e-5), and the inverse
    root two units relatively.  Rounding to W adds half a unit in the last
    place (0.51 from fixed point, :meth:`~replica.precision.Fixed.rounded`),
    so C is within a relative |e| r + 0.52 * 10**(1 - W).

    Raises :class:`UnsupportedParameterError` for an unknown name, and for a
    run that is not a :func:`run_borwein` run (a_0 = 0) of an order of the
    recipe of :data:`CONSTANT_RECIPES`.
    """
    if name not in CONSTANT_RECIPES:
        raise UnsupportedParameterError(f"unknown constant id {name!r}")
    orders = CONSTANT_RECIPES[name][0]
    start = run.origin[2]
    if run.kind.order not in orders or start != 0:
        raise UnsupportedParameterError(
            f"constant {name} is computed by a run_borwein run (a_0 = 0) of an order in "
            f"{orders}, not by a {run.kind.name} run from a_0 = {start}"
        )
    j, a, b, q = _MONOMIALS[name]
    ctx, (mean, total) = run.ctx, run.links[-1]
    fixed = isinstance(mean, Fixed)
    with ctx.wide.local():
        # a run_borwein run starts from c_0 = 2 and a_0 = 0
        power, base = mean**j, (2 * total) ** b
        base = base * 2**a if a >= 0 else base / 2**-a
        if q == 1:
            value = power / base if fixed else quotient(power, base)
        else:
            value = power * (base.inverse_root(q) if fixed else _inverse_root(base, q))
    return value.rounded(ctx) if fixed else ctx.real(value)
