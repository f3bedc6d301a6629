"""Regenerate ``reference.json``, the digits every benchmark answer is checked against.

    python3 bench/make_reference.py

The values are computed here without ``replica``, by routes that share no
algorithm with it: the arithmetic-geometric mean on ``decimal.Decimal.sqrt``
(Gauss-Legendre for pi, the AGM forms of Gamma(1/4) and Gamma(1/3), and the
Gauss-Kummer AGM form of the ellipse perimeter), plus the reflection formula
for Gamma(3/4) and Gamma(2/3). Every value is then cross-checked against
``mpmath`` (its own pi, gamma, hyp2f1 and ellipe) and against the prefixes
frozen in ``tests/frozen.py``; the script refuses to write on any mismatch.
Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath

from workloads import (
    CUSTOM_W,
    ELLIPSE_AXES,
    LARGE_REFERENCE_DIGITS,
    SCALE_ELLIPSE,
    SMALL_REFERENCE_DIGITS,
    ellipse_reference,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference.json"
#: stored digits beyond what any request prints, so truncation is exact
EXTRA = 20
#: working digits beyond the stored ones
GUARD = 60
#: digits compared with mpmath's Gamma, which is slow at high precision here
GAMMA_CHECK_DIGITS = 1500


def root(x: Decimal, n: int) -> Decimal:
    """n-th root by Newton iteration from a float seed, at the ambient precision."""
    if n == 1:
        return +x
    if n == 2:
        return x.sqrt()
    tolerance = 3 - getcontext().prec
    y = Decimal(repr(float(x) ** (1.0 / n)))
    while True:
        y_next = ((n - 1) * y + x / y ** (n - 1)) / n
        # Quadratic convergence: once a step is this small the next is below one ulp.
        if abs(y_next - y) <= y.scaleb(tolerance):
            return y_next
        y = y_next


def power(x: Decimal, exponent: Fraction) -> Decimal:
    return root(x ** exponent.numerator, exponent.denominator)


def agm(a: Decimal, b: Decimal) -> Decimal:
    while a != b:
        a_next, b = (a + b) / 2, (a * b).sqrt()
        if a_next == a:
            break
        a = a_next
    return a


def gauss_legendre_pi(prec: int) -> Decimal:
    a, b, t, p = Decimal(1), 1 / Decimal(2).sqrt(), Decimal(1) / 4, Decimal(1)
    tiny = Decimal(1).scaleb(-prec)
    while abs(a - b) > tiny:
        a_next = (a + b) / 2
        b = (a * b).sqrt()
        t -= p * (a - a_next) ** 2
        a, p = a_next, 2 * p
    return (a + b) ** 2 / (4 * t)


def perimeter(a: Decimal, b: Decimal, pi: Decimal, prec: int) -> Decimal:
    """P(a, b) = 2 pi / AGM(a, b) * (a^2 - sum_n 2^(n-1) c_n^2) (Gauss-Kummer)."""
    total = (a * a - b * b) / 2
    weight = Decimal(1)
    an, bn = a, b
    tiny = (a * a).scaleb(-prec - 5)
    while True:
        c = (an - bn) / 2
        term = weight * c * c
        total += term
        if term <= tiny:
            break
        an, bn = (an + bn) / 2, (an * bn).sqrt()
        weight *= 2
    return 2 * pi * (a * a - total) / agm(an, bn)


def digit_entry(x: Decimal, digits: int) -> list:
    """[decimal exponent, first ``digits`` significant digits] of x > 0."""
    sign, coefficient, _ = x.as_tuple()
    if sign:
        raise ValueError("reference values are positive")
    return [x.adjusted(), "".join(map(str, coefficient)).ljust(digits, "0")[:digits]]


def compute(prec: int) -> dict[str, Decimal]:
    """Every reference value, computed at ``prec`` working digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        ctx.Emax, ctx.Emin = 10**6, -(10**6)
        pi = gauss_legendre_pi(prec)
        sqrt2, sqrt3 = Decimal(2).sqrt(), Decimal(3).sqrt()
        gamma14 = ((2 * pi) * (2 * pi).sqrt() / agm(sqrt2, Decimal(1))).sqrt()
        k15 = (Decimal(6).sqrt() + sqrt2) / 4  # cos 15 degrees
        gamma13 = root(2 * root(Decimal(2), 3) * pi * pi / (root(Decimal(3), 4) * agm(Decimal(1), k15)), 3)
        values = {
            "pi": pi,
            "gamma14": gamma14,
            "gamma34": pi * sqrt2 / gamma14,
            "gamma13": gamma13,
            "gamma23": 2 * pi / (sqrt3 * gamma13),
        }
        gamma23 = values["gamma23"]
        s0 = {
            "1/2": gamma14 * gamma14 / (2 * pi * pi.sqrt()),
            "1/3": root(Decimal(4), 3) * pi / (sqrt3 * gamma23**3),
        }
        s1 = {"1/2": 1 / (pi * s0["1/2"]), "1/3": sqrt3 / (2 * pi * s0["1/3"])}
        for s in s0:
            for w in CUSTOM_W:
                values[f"custom {s} {w}"] = power(s0[s], Fraction(w)) * s1[s]
        for a_text, b_text in ELLIPSE_AXES:
            a, b = Decimal(a_text), Decimal(b_text)
            p = perimeter(a, b, pi, prec)
            values[ellipse_reference(a_text, b_text, False)] = p
            values[ellipse_reference(a_text, b_text, True)] = p * a / (2 * pi * b * b)
    return values


def mpmath_values(digits: int, keys) -> dict:
    """The same quantities from mpmath's own algorithms."""
    mpmath.mp.dps = digits + 100  # ellipe loses about 50 digits as b/a -> 0
    out = {}
    for key in keys:
        kind, *args = key.split()
        if key == "pi":
            out[key] = +mpmath.pi
        elif key.startswith("gamma"):
            num, den = int(key[5]), int(key[6])
            out[key] = mpmath.gamma(mpmath.mpf(num) / den)
        elif kind == "custom":
            s, w = (mpmath.mpf(f.numerator) / f.denominator for f in map(Fraction, args))
            half = mpmath.mpf(1) / 2
            s0 = mpmath.hyp2f1(s, 1 - s, 1, half)
            s1 = half * s * (1 - s) * mpmath.hyp2f1(s + 1, 2 - s, 2, half)
            out[key] = s0**w * s1
        else:
            a, b = mpmath.mpf(args[0]), mpmath.mpf(args[1])
            p = 4 * a * mpmath.ellipe(1 - (b / a) ** 2)
            out[key] = p if kind == "perimeter" else p * a / (2 * mpmath.pi * b * b)
    return out


def agree(entry: list, text_digits: str, exponent: int, n: int) -> bool:
    return entry[0] == exponent and entry[1][:n] == text_digits[:n]


def check_mpmath(table: dict, keys, digits: int) -> None:
    for key, value in mpmath_values(digits, keys).items():
        mantissa = mpmath.nstr(value, digits + 10, min_fixed=1, max_fixed=0)
        head, _, exp = mantissa.partition("e")
        text = head.replace(".", "").ljust(digits, "0")
        if not agree(table[key], text, int(exp or 0), digits):
            raise SystemExit(f"mpmath disagrees on {key!r} within {digits} digits")


def check_frozen(table: dict) -> None:
    sys.path.insert(0, str(HERE.parent / "tests"))
    import frozen

    pairs = {name: getattr(frozen, name.upper()) for name in ("pi", "gamma14", "gamma34", "gamma13", "gamma23")}
    pairs["factor 2 1"] = frozen.F21
    for (s, w), text in frozen.COUPLE_PRODUCTS.items():
        pairs[f"custom {s} {w}"] = text
    for key, text in pairs.items():
        digits = Decimal(text)
        sig = text.replace(".", "").lstrip("0")
        n = len(sig) - 5
        if not agree(table[key], sig, digits.adjusted(), n):
            raise SystemExit(f"tests/frozen.py disagrees on {key!r}")


def main() -> int:
    large_keys = ["pi", "gamma14", "gamma34", "gamma13", "gamma23", ellipse_reference(*SCALE_ELLIPSE, False)]
    values = compute(LARGE_REFERENCE_DIGITS + EXTRA + GUARD)
    table = {
        key: digit_entry(value, (LARGE_REFERENCE_DIGITS if key in large_keys else SMALL_REFERENCE_DIGITS) + EXTRA)
        for key, value in values.items()
    }
    check_frozen(table)
    check_mpmath(table, ["pi"], LARGE_REFERENCE_DIGITS)
    check_mpmath(table, [k for k in table if k.startswith("gamma")], GAMMA_CHECK_DIGITS)
    check_mpmath(table, [k for k in table if not k.startswith(("gamma", "pi"))], SMALL_REFERENCE_DIGITS)
    OUT.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} values to {OUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
