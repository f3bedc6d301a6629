"""Certified truncated evaluation of the central hypergeometric-type series.

The generic sum is

    S(a, b; z) = sum_k  (p)_k (q)_k / ((1)_k)^2 * (a + b*k) * z^k,      -1 < z < 1,

with Pochhammer parameters p, q in (0, 1].  Because the coefficient ratio
(p+k)(q+k)/(1+k)^2 is below 1 and increases toward 1, successive terms decay
in size at least geometrically with ratio |z|, which yields the cheap certified
tail bound used by the stopping rule.

This module is the package's independent oracle.  Its one term loop,
:func:`_sums`, sums S(1, 0; z) and S(a, b; z) in a single pass, in fixed-point
Python ints with z an exact rational.  Long terms over short term ratios are
taken a block at a time: the block's term ratios are combined into small exact
ints, so one division of the big term serves the whole block, not one term
(Brent & Zimmermann, *Modern Computer Arithmetic* §4.9.1); the error bound is
stated on :func:`_sums`.  Its public entry, :func:`evaluate_series`, takes
(p, q) = (s, 1 - s) with s in {1/2, 1/3} and 0 <= z < 1, and forms
A = S(1, 0; z)**w * S(a, b; z), the quantity every state of a run conserves.
The pi and Gamma limits are A at z = 1/2 with weight (0, 1), which
:func:`couple_product` sums for both couples over the pair (1/12, 5/12) of
Ramanujan's signature-6 theory, at u = 8/1331 for s = 1/2 and at
u = -9/64000 for s = 1/3, the second with terms of alternating sign; the ellipse
factor is A at w = 0 and z = 1 - b^2/a^2, which :func:`ellipse_factor` sums
after one Landen step, as A at w = 0 with weights (c, 4 c) at
h = ((a - b)/(a + b))^2.  Each of the three is one pass of :func:`_sums`.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

from .errors import DomainError, SlowConvergenceError, UnsupportedParameterError
from .precision import _EXACT, PrecisionContext, Real, _to_decimal, as_weight, pow_rational

#: Couples are wired only for the parameters that have a matching transform.
SUPPORTED_COUPLE_PARAMETERS = (Fraction(1, 2), Fraction(1, 3))

_MAX_TERMS = 2_000_000

#: Digits the fixed-point terms carry beyond the working digits and the size of the
#: weights: they absorb the floor of every term update and keep the stopping rule
#: reachable up to the term cap (see :func:`_sums`).
_TERM_GUARD_DIGITS = 30

#: Terms a block sums per division of the big term (see :func:`_sums`).
_BLOCK_TERMS = 32

#: Terms shorter than this many bits are taken one per division (see
#: :func:`_block_length`).
_BLOCK_MIN_BITS = 2_000

#: The Pochhammer pair both couples sum over (see :func:`couple_product`).
_COUPLE_PAIR = (Fraction(1, 12), Fraction(5, 12))

#: s -> (u, a, b, d, x, t): :func:`couple_product` sums S(1, 0; u) and S(a, b; u)
#: over ``_COUPLE_PAIR`` and scales them by c = (x r)**(-1/4) with r = 2**t, the
#: second also by r**2/d.
_COUPLE_TRANSFORMS = {
    Fraction(1, 2): (Fraction(8, 1331), 5, 126, 22, Fraction(33, 64), Fraction(0)),
    Fraction(1, 3): (Fraction(-9, 64000), 31, 1012, 240, Fraction(320, 729), Fraction(1, 3)),
}


def _block_length(term: int, zpq: int) -> int:
    """Terms :func:`_sums` takes per division of its first fixed-point term ``term``,
    for term ratios over d_k = ``zpq`` (1 + k)^2.

    A block pays only for a long term and short ratios: ``_BLOCK_TERMS`` when
    ``term`` has at least ``_BLOCK_MIN_BITS`` bits and at least 2 L^2 bits for the
    L bits of ``zpq``, else 1.  On a long zpq, which a z with many digits brings
    (a ``verify ellipse`` axis of many digits, or the z = d_n^m of
    ``algorithms.replication_invariant``), D = d_k ... d_{k+31} has about 32 L
    bits, and building it and dividing by it cost more than 32 divisions by d_k.
    Time with blocks over time with one division per term, per call at s = 1/2,
    weight (0, 1), z = zn/zd close to 1/2 for a random zd, with zpq of about
    L/2, L, 3L/2 and 2L bits for the largest L the rule admits, best of 2 to 7
    runs (2 vCPU, Python 3.11.7, shared machine):

        term bits   L      L/2     L       3L/2    2L
        2 881       37     0.74    0.86    1.08    1.15
        7 226       60     0.51    0.76    0.93    1.13
        17 245      92     0.50    0.79    0.76    1.17
        67 127      183    0.66    0.72    0.82    1.10

    So the rule takes blocks only where they were measured to win, and gives up
    some gain between L and 2L.
    """
    bits = term.bit_length()
    return _BLOCK_TERMS if bits >= max(_BLOCK_MIN_BITS, 2 * zpq.bit_length() ** 2) else 1


def _sums(p: Fraction, q: Fraction, a: Real, b: Real, z: Real | Fraction,
          ctx: PrecisionContext) -> tuple[Real, Real]:
    """S(1, 0; z) and S(a, b; z), summed in one pass of fixed-point integer terms.

    z = zn/zd, -1 < z < 1, is taken exactly from its Decimal or Fraction value;
    a z < 0 makes the terms, their ratios and the two sums signed ints.  The term
    t_k = (p)_k (q)_k/((1)_k)^2 z^k is the int T_k, scaled by 10**G with
    G = W + E + D: W working digits, E = ``_TERM_GUARD_DIGITS`` and D >= 1 the
    smallest count with |a|, |b| < 10**D.  T_0 = 10**G, and the term ratio is

        t_{k+1} / t_k = n_k / d_k = zn (pn + k pd)(qn + k qd) / (zd pd qd (1 + k)^2),

    with |n_k| < d_k.

    The loop adds T_k and k T_k to the two sums at each block start k, checks the
    stopping rule there, and then takes the block of terms up to the next start
    k + n.  n is ``_BLOCK_TERMS`` = 32 for a long term and short ratios, else 1
    (:func:`_block_length`), and no block passes the ``_MAX_TERMS`` cap.  For n = 1,
    T_{k+1} = floor(T_k n_k / d_k).  For n > 1, Horner's rule forms exact ints
    N0, N1 and P over D = d_k ... d_{k+n-1}: N0/D and N1/D are the sums of t_j/t_k
    and j t_j/t_k over k < j < k + n, and P/D = t_{k+n}/t_k.  With
    h = bitlen(D) + 8, one division R = floor(T_k 2**h / D) serves the block:
    floor(R N0 / 2**h) and floor(R N1 / 2**h) go to the sums, and
    T_{k+n} = floor(R P / 2**h).

    Every floor lowers a value by less than 1, and a signed ratio carries the
    error e_k = t_k 10**G - T_k forward with its sign flipped, so the error is
    two-sided: a block of n > 1 raises |e_k| by less than 1 + |P| / 2**h
    < 1 + 2**-8 < n, and a block of 1 by less than 1, so |t_k 10**G - T_k| <= k
    at every block start (for z >= 0, T_k <= t_k 10**G).  The loop stops at the
    first block start k with

        (|T_k| + k + 1) max(1, A + B k) |z|/(1-|z|) (1 + k)  <  10**(G - W),

    for integer upper bounds A >= |a| and B >= |b|.  That certifies the exact rule
    |t_k| max(1, |a| + |b| k) |z|/(1-|z|) (1+k) < 10**(-W), a geometric majorant
    of the remaining tail including its linear weight; the rule of S(1, 0; z) has
    1 in place of the max, so it holds by then too.

    The rule may first hold inside a block; it still holds at the next block
    start.  From k >= 1 on, a term multiplies the rule's left side by at most
    |z| (k+2)/k, which is below 1 for k > 2|z|/(1-|z|).  For |z| < 1/3, as at the
    u = 8/1331 and -9/64000 of :func:`couple_product`, the interval
    [1, 2|z|/(1-|z|)] is empty, so any p and q in (0, 1] qualify.  For a larger
    |z|, p q >= 2/9 (every pair (s, 1 - s) of :func:`evaluate_series`) and
    W >= 2, the rule cannot hold at any k in [1, 2|z|/(1-|z|)]: there
    |t_k| >= p q |z|^k/k^2 keeps the left side above p q/(2e^2) > 10**(-W).
    The rule the loop checks keeps this up to its slack: with
    |T_k| <= |t_k| 10**G + k its left side is at most 10**G times the exact one,
    which falls over the block, plus (2k+1)(k+1) max(1, A + B k) |z|/(1-|z|),
    which stays far below 10**(G - W) up to the cap (see below).  So a sum stops
    at most n - 1 terms past the first index where the exact rule holds with that
    much to spare, and since every block ends at the cap, it raises only when
    that index passes the cap.  After K terms each sum is off by at most the sum
    of

    - truncation: 10**(2 - W);
    - floor: the errors of the terms, weighted by |a| + |b| k, and the floors
      of a block's two sums, less than 1 + (n-1) 2**-8 and 1 + (n-1)(k+n) 2**-8
      units: below K(K+3)/2 units of 10**(-G) for S(1, 0) and below
      (K(K+1)(K+2)/3 + K(K+1)) 10**(-W-E) for S(a, b);
    - rounding: each sum is formed at W + E digits and rounded once to W digits,
      half an ulp, plus 10**(1 - W - E) of |a| S(1, 0) + |b| S(0, 1) from forming it.

    E = 30 is sized by the ``_MAX_TERMS`` cap of 2 000 000.  Up to it the floor
    error stays under 10**(-W-11), and the rule's 2k + 1 units of slack stay far
    below its threshold while 2 (k+1)^3 |z|/(1-|z|) < 10**E, that is for every
    |z|/(1-|z|) < 6e10; a larger one needs more terms than the cap, which the
    up-front refusal sees.

    Dividing a 17 000-bit term by a two-word d_k takes 9.1 us, multiplying it by
    a small int 1.6 us, and a block divides once for 32 terms.  On shorter terms,
    and on longer ratios (see :func:`_block_length`), building a block costs what
    it saves: blocks took 1.03 times as long as one division per term at 400
    working digits and 1.26 times at 200, hence ``_BLOCK_MIN_BITS`` (about 570
    working digits).  Per call at W working digits, s = 1/2, weight (0, 1), best
    of 3 to 200 runs, each next to a run of the loop that divides once per term
    (2 vCPU, Python 3.11.7, shared machine):

        W        z     once per term   this loop   ratio
        50       1/2    0.210 ms       0.203 ms    0.96   (n = 1)
        200      3/4    0.955 ms       0.959 ms    1.00   (n = 1)
        600      1/2    1.85 ms        1.66 ms     0.90
        1 000    1/2    4.05 ms        3.29 ms     0.81
        5 000    1/2    81.6 ms        35.5 ms     0.43
        5 000    3/4    259 ms         124 ms      0.48
        20 000   1/2    1.60 s         0.533 s     0.33
        20 000   3/4    4.05 s         1.51 s      0.37
        40 000   1/2    6.72 s         1.95 s      0.29
    """
    if z <= -1:
        raise DomainError("series argument z must be > -1")
    if z >= 1:
        raise DomainError("series argument z must be < 1")
    if not (a.is_finite() and b.is_finite()):
        raise DomainError("series weights a, b must be finite")
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    exact_z = Fraction(z)
    zn, zd = exact_z.numerator, exact_z.denominator
    abs_zn = abs(zn)
    # (p)_k (q)_k/(k!)^2 >= p q/k^2, so at every k <= K = _MAX_TERMS the rule's
    # left side is >= p q zfac |z|^K/K; where that is >= 10 tol, the cap is certain.
    low = Context(prec=20)
    # z20 also names the series argument in the messages, however long zn and zd are.
    z20 = low.divide(zn, zd)
    if zn and (low.log10(low.divide(abs_zn * pn * qn, (zd - abs_zn) * pd * qd * _MAX_TERMS))
               + _MAX_TERMS * low.log10(z20.copy_abs()) > 1 - ctx.working_digits):
        raise SlowConvergenceError(
            f"series cannot certify in {_MAX_TERMS} terms (series argument {z20})")
    abs_a, abs_b = a.copy_abs(), b.copy_abs()
    big_a, big_b = (int(x.to_integral_value(ROUND_CEILING)) for x in (abs_a, abs_b))
    shift = _TERM_GUARD_DIGITS + max(1, abs_a.adjusted() + 1, abs_b.adjusted() + 1)
    limit = 10**shift * (zd - abs_zn)
    term = 10 ** (ctx.working_digits + shift)
    zpq = zd * pd * qd
    block = _block_length(term, zpq)
    s0 = s1 = 0
    k = 0
    while True:
        s0 += term
        s1 += k * term
        # The first comparison, of sizes alone, skips the product while terms are large.
        size = abs(term)
        if (size < limit
                and (size + k + 1) * (max(1, big_a + big_b * k) * abs_zn * (1 + k)) < limit):
            break
        if k >= _MAX_TERMS:
            raise SlowConvergenceError(
                f"series did not certify after {_MAX_TERMS} terms (series argument {z20})"
            )
        # The block takes the terms after k up to the next block start, which the
        # cap ends.  prod / den starts as the ratio of the block's last term update.
        end = k + block
        if end > _MAX_TERMS:
            end = _MAX_TERMS
        last = end - 1
        prod = zn * (pn + last * pd) * (qn + last * qd)
        den = zpq * end * end
        if last == k:
            term = term * prod // den
        else:
            # Horner's rule, right to left: at the end num0 / den and num1 / den are
            # the sums of t_j / t_k and j t_j / t_k over k < j < end, and prod / den
            # is t_end / t_k.
            num0 = num1 = 0
            for j in range(last - 1, k - 1, -1):
                step = zn * (pn + j * pd) * (qn + j * qd)
                num0 = step * (den + num0)
                num1 = step * ((j + 1) * den + num1)
                den *= zpq * (1 + j) * (1 + j)
                prod *= step
            bits = den.bit_length() + 8
            quot = (term << bits) // den
            s0 += quot * num0 >> bits
            s1 += quot * num1 >> bits
            term = quot * prod >> bits
        k = end
    with ctx.elevated(_TERM_GUARD_DIGITS):
        scaled_s0 = _to_decimal(s0).scaleb(-ctx.working_digits - shift)
        total = a * scaled_s0 + b * _to_decimal(s1).scaleb(-ctx.working_digits - shift)
    with ctx.local():
        return +scaled_s0, +total


def _couple_weight(s: Fraction, w: Fraction) -> Fraction:
    """``w`` read by :func:`~replica.precision.as_weight`, for a couple parameter s
    in ``SUPPORTED_COUPLE_PARAMETERS``; either refusal raises
    :class:`UnsupportedParameterError`."""
    if s not in SUPPORTED_COUPLE_PARAMETERS:
        raise UnsupportedParameterError(
            f"couple parameter must be one of {SUPPORTED_COUPLE_PARAMETERS}, got {s}"
        )
    return as_weight(w)


def _product(s0: Real, w: Fraction, weighted: Real, ctx: PrecisionContext) -> Real:
    """s0**w * weighted at the working digits of ``ctx``."""
    if w == 0:
        return weighted
    with ctx.local():
        return pow_rational(s0, w, ctx) * weighted


def evaluate_series(s: Fraction, w: Fraction, a: Real, b: Real, z: Real | Fraction,
                    ctx: PrecisionContext) -> Real:
    """A = S(1, 0; z)**w * S(a, b; z) with Pochhammer pair (s, 1 - s), s in {1/2, 1/3}.

    Each sum is off by at most its truncation, floor and rounding errors, which
    :func:`_sums` bounds: about 10**(2 - working_digits) in all, plus half an ulp.
    A z < 0, which no state of a run has, raises :class:`DomainError`.
    A ``w`` that :func:`~replica.precision.as_weight` refuses raises
    :class:`UnsupportedParameterError` before any term is summed, as it does for
    a run."""
    w = _couple_weight(s, w)
    if z < 0:
        raise DomainError("series argument z must be >= 0")
    s0, weighted = _sums(s, 1 - s, a, b, z, ctx)
    return _product(s0, w, weighted, ctx)


def couple_product(s: Fraction, w: Fraction, ctx: PrecisionContext) -> Real:
    """s0**w * s1, A at z = 1/2 with weight (0, 1): the limit of the (s, w) algorithm.

    s0 = S(1, 0; 1/2) and s1 = S(0, 1; 1/2) are the couple that seeds the
    algorithms: F(z) = F(s, 1 - s; 1; z) = S(1, 0; z) and z F'(z) = S(0, 1; z)
    at z = 1/2.  Both couples are summed instead over the one pair (1/12, 5/12)
    of Ramanujan's signature-6 theory, G(u) = F(1/12, 5/12; 1; u), with
    G(1728/j(tau)) = E4(tau)**(1/4) (Berndt, Bhargava & Garvan, *Trans. AMS* 347
    (1995)), at the CM points j(2i) = 66**3 and j((1 + 3 sqrt(-3))/2) = -3 * 160**3,
    that is at u = 8/1331 (s = 1/2) and u = -9/64000 (s = 1/3).  Either reads
    F(z) = c(z) G(u(z)) near z = 1/2, and since S(0, 1; z) = z F'(z),

        s0 = c G(u),    s1 = c (z c'/c G(u) + z u'/u S(0, 1; u)) = c r**2 S(a, b; u)/d.

    For s = 1/2, F(1/2, 1/2; 1; z)**4 (1 + 14 y**2 + y**4) = 16 G(u)**4 with
    y = sqrt(1 - z), h = ((1 - y)/(1 + y))**2 and
    u = 27 h**2 (1 - h)**2/(4 (1 - h + h**2)**3); at z = 1/2, 1 - h + h**2 = 33 h,
    u = 8/1331, c = (33/64)**(-1/4), z c'/c = 5/22 and z u'/u = 63/11, so
    (a, b, d) = (5, 126, 22) and r = 1.  For s = 1/3, c = (320 r/729)**(-1/4)
    with r = 2**(1/3), and (a, b, d) = (31, 1012, 240): these constants were
    found by an integer-relation search at 100 digits and hold to 250 digits;
    the tests check both couples against the direct sum at z = 1/2.  At 5 112
    working digits the loop stops at block start 2 304 (s = 1/2) and 1 344
    (s = 1/3), where z = 1/2 takes 17 024 terms.  Both |u| are below 1/3, where
    the stopping rule of :func:`_sums` is proved for any pair in (0, 1].

    One pass of :func:`_sums` gives G0 = S(1, 0; u) and G = S(a, b; u) at
    the W' = W + 10 working digits of ``ctx.wide``.  Still at W', r and c are
    one :func:`pow_rational` each (one cube root and one inverse 4th root, cheaper
    than the one 12th root of c = (3**18/(2**19 5**3))**(1/12) and the cube
    root s1 would still need), and s0 = c G0 and s1 = c r r G/d; each is then
    rounded once to W digits, and s0**w * s1 is formed as in
    :func:`evaluate_series`.  Before that rounding each is off, relatively, by at
    most the bound of :func:`_sums` at W' (about 10**(-W-8)) and the prefactor's
    error: each :func:`pow_rational` is within 4 10**(1 - W'), and each rounding
    at W' within half of 10**(1 - W'), so c is off by at most 6 10**(1 - W')
    (the input x r carries r's error and two roundings, a 4th of which reaches
    c) and c r r/d, with its four roundings, by at most 16 10**(1 - W'): below
    3 10**(-W-8) in all, under the one final rounding to W.
    A ``w`` that :func:`~replica.precision.as_weight` refuses raises
    :class:`UnsupportedParameterError` before any term is summed.
    """
    w = _couple_weight(s, w)
    u, a, b, d, x, t = _COUPLE_TRANSFORMS[s]
    wide = ctx.wide
    g0, g = _sums(*_COUPLE_PAIR, Decimal(a), Decimal(b), u, wide)
    with wide.local():
        r = pow_rational(Decimal(2), t, wide)
        c = pow_rational(x.numerator * r / x.denominator, Fraction(-1, 4), wide)
        s0, s1 = c * g0, c * r * r * g / d
    with ctx.local():
        return _product(+s0, w, +s1, ctx)


def check_axes(semi_major: Real, semi_minor: Real) -> None:
    """Raise DomainError unless the axes are finite and 0 < semi_minor <= semi_major
    (the ellipse's domain)."""
    if not (semi_major.is_finite() and semi_minor.is_finite()):
        raise DomainError("axes must be finite decimals")
    if semi_minor <= 0:
        raise DomainError("semi-minor axis must be > 0")
    if semi_minor > semi_major:
        raise DomainError("need semi_minor <= semi_major")


def ellipse_factor(semi_major: Real, semi_minor: Real, ctx: PrecisionContext) -> Real:
    """F(a, b) = sum_k ((1/2)_k)^2/((1)_k)^2 (1+2k) (1 - b^2/a^2)^k.

    :func:`replica.algorithms.perimeter` forms the perimeter from F.  F depends
    only on b/a, hence is scale-invariant: r = b/a is formed exactly from the
    axes, as a Fraction.  Arguments z = 1 - r^2 above 0.99 are rejected: the
    caller should switch to the iterative algorithms there.

    The sum is not taken at z but after one Landen step, at
    h = ((1 - r)/(1 + r))^2, which is 1/9 for r = 1/2 where z is 3/4:

        F(a, b) = c S(1, 4; h),    c = 2/(r (1 + r)),

    with the same Pochhammer pair (1/2, 1/2).  Since 1 - h = 4 r/(1 + r)^2, this
    is the Gauss-Kummer series of the perimeter,

        P = 2 pi b r F = pi (a + b) (1 - h) S(1, 4; h) = pi (a + b) sum_k C(1/2, k)^2 h^k

    (Almkvist & Berndt, *Amer. Math. Monthly* 95 (1988) 585-608; DLMF 19.8(ii)),
    whose coefficients are the differences t_k (1 + 4k) - t_{k-1} (4k - 3) of
    the weighted terms here.  h and c are exact rationals; the weights c and
    4 c are rounded once each, at 10 digits above the term guard of
    :func:`_sums` (W + 40 digits), so they add at most 10**(-W-39) of F to the
    truncation, floor and rounding errors :func:`_sums` bounds, and its final
    rounding to W digits stays the only one.  Where :func:`_sums` refuses the
    sum at h, the :class:`SlowConvergenceError` names both h and z.
    """
    check_axes(semi_major, semi_minor)
    # Both axes shifted by a's exponent, so the Fractions carry no power of ten
    # beyond their digits.  b/a < 1/10 (z > 0.99) once b's leading digit sits two
    # places below a's; the exact ratio is not formed then.
    shift = -semi_major.adjusted()
    ratio = Fraction(0)
    if semi_minor.adjusted() + shift >= -1:
        ratio = (Fraction(semi_minor.scaleb(shift, _EXACT))
                 / Fraction(semi_major.scaleb(shift, _EXACT)))
    z = 1 - ratio * ratio
    if z > Fraction(99, 100):
        raise SlowConvergenceError(
            "1 - b^2/a^2 exceeds 0.99; use the iterative perimeter algorithms"
        )
    h = ((1 - ratio) / (1 + ratio)) ** 2
    c = 2 / (ratio * (1 + ratio))
    with ctx.elevated(_TERM_GUARD_DIGITS + 10):
        weight = Decimal(c.numerator) / c.denominator
        weights = weight, 4 * weight
    try:
        return evaluate_series(Fraction(1, 2), Fraction(0), *weights, h, ctx)
    except SlowConvergenceError as exc:
        raise SlowConvergenceError(
            f"{exc} at h = ((a - b)/(a + b))^2, for the ellipse's"
            f" z = 1 - b^2/a^2 = {Context(prec=20).divide(z.numerator, z.denominator)}"
        ) from exc
