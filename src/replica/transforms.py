"""Algebraic descend maps x -> t.

Three self-replicating transformations define the iterations: a quadratic one
(the classical Landen argument map), a cubic one and a quartic one.  Each
``*_descend`` contracts [0, 1) toward 0.  A run does not call them: it
carries its family's AGM in homogeneous means (``algorithms._advance``),
whose rows d_n = C_n / A_n follow the same map.  They stay as the maps those
rows are checked against, with the paper's replication maps of
tests/oracles.py, which rewrite the weight (a + b*k) of the series into
(alpha + beta*k) on the transformed side.  The benchmark's tracer
(bench/tracer.py) wraps them by name, and a traced run fails if one is missing.
"""

from __future__ import annotations

from .errors import DomainError
from .precision import PrecisionContext, Real, nth_root, quotient


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


#: order -> descend map
DESCEND = {2: quad_descend, 3: cubic_descend, 4: quartic_descend}
