"""Algebraic descend maps x -> t and their coefficient replication maps.

Three self-replicating transformations drive the iterations: a quadratic one
(the classical Landen argument map), a cubic one and a quartic one.  Each
``*_descend`` contracts [0, 1) toward 0; the matching ``*_replicate`` rewrites
a linear weight (a + b*k) on one side of the identity into the weight
(alpha + beta*k) on the transformed side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .precision import PrecisionContext, Real, nth_root, quotient


@dataclass(frozen=True)
class ReplicatedCoefficients:
    """The (alpha, beta) pair produced by a replication map; beta is 0 iff b is 0."""

    alpha: Real
    beta: Real


def _check_unit_interval(value: Real, name: str) -> None:
    if value < 0 or value >= 1:
        raise DomainError(f"{name} must lie in [0, 1), got {value}")


def quad_descend(x: Real, ctx: PrecisionContext) -> Real:
    """t = (1 - sqrt(1-x^2)) / (1 + sqrt(1-x^2)), evaluated as x^2/(1+u)^2.

    The rewritten form (u = sqrt(1-x^2), so 1-u = x^2/(1+u)) avoids the
    catastrophic cancellation of 1-u for small x.  t ~ x^2/4 near 0.
    """
    _check_unit_interval(x, "x")
    with ctx.local():
        u = nth_root(1 - x * x, 2, ctx)
        return quotient(x * x, (1 + u) * (1 + u))


def cubic_descend(x: Real, ctx: PrecisionContext) -> Real:
    """t = (1 - (1-x^3)^(1/3)) / (1 + 2(1-x^3)^(1/3)), cancellation-free form."""
    _check_unit_interval(x, "x")
    with ctx.local():
        x3 = x * x * x
        u = nth_root(1 - x3, 3, ctx)
        # 1 - u = x^3 / (1 + u + u^2)
        return quotient(x3, (1 + u + u * u) * (1 + 2 * u))


def quartic_descend(x: Real, ctx: PrecisionContext) -> Real:
    """t = (1 - (1-x^4)^(1/4)) / (1 + (1-x^4)^(1/4)), cancellation-free form."""
    _check_unit_interval(x, "x")
    with ctx.local():
        x2 = x * x
        x4 = x2 * x2
        u = nth_root(1 - x4, 4, ctx)
        opu = 1 + u
        # 1 - u = x^4 / ((1 + u)(1 + u^2))
        return quotient(x4, opu * opu * (1 + u * u))


def quad_replicate(a: Real, b: Real, t: Real, ctx: PrecisionContext) -> ReplicatedCoefficients:
    """alpha = a(1+t) + b t(1+t)/(1-t), beta = 2b (1+t)^2/(1-t)."""
    _check_unit_interval(t, "t")
    with ctx.local():
        opt = 1 + t
        omt = 1 - t
        alpha = a * opt + b * t * opt / omt
        beta = 2 * b * opt * opt / omt
        return ReplicatedCoefficients(alpha, beta)


def cubic_replicate(a: Real, b: Real, t: Real, ctx: PrecisionContext) -> ReplicatedCoefficients:
    """alpha = a(1+2t) + 2b t(1+2t)(1-t^3)/(1-t)^3, beta = 3b (1-t^3)(1+2t)^2/(1-t)^3."""
    _check_unit_interval(t, "t")
    with ctx.local():
        f = 1 + 2 * t
        omt = 1 - t
        omt3 = omt * omt * omt  # computed once, reused by both coefficients
        num = 1 - t * t * t
        alpha = a * f + 2 * b * t * f * num / omt3
        beta = 3 * b * num * f * f / omt3
        return ReplicatedCoefficients(alpha, beta)


def quartic_replicate(a: Real, b: Real, t: Real, ctx: PrecisionContext) -> ReplicatedCoefficients:
    """alpha = a(1+t)^2 + 2b t(1+t^2)(1+t)^2/(1-t)^3, beta = 4b (1+t^2)(1+t)^3/(1-t)^3."""
    _check_unit_interval(t, "t")
    with ctx.local():
        opt = 1 + t
        opt2 = opt * opt
        omt = 1 - t
        omt3 = omt * omt * omt
        s2 = 1 + t * t
        alpha = a * opt2 + 2 * b * t * s2 * opt2 / omt3
        beta = 4 * b * s2 * opt2 * opt / omt3
        return ReplicatedCoefficients(alpha, beta)


#: order -> descend map
DESCEND = {2: quad_descend, 3: cubic_descend, 4: quartic_descend}

#: order -> replication map
REPLICATE = {2: quad_replicate, 3: cubic_replicate, 4: quartic_replicate}
