"""Property tests for the CLI's output forms and input parsing.

Text, ``--plain`` and ``--json`` print the same truncated digits, and more
digits only extend what fewer digits print. Every value here is below 10, so
``--digits d`` never pads the integer part with zeros. Equal inputs print the
same digits however they are spelled: ``--w`` as any fraction or decimal of
the same value, the semi-axes at any common power of ten.
"""

import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from replica.cli import main  # noqa: E402

REQUESTS = st.sampled_from([
    ("constant", "pi"),
    ("constant", "gamma14", "--algorithm", "quad"),
    ("constant", "gamma23"),
    ("constant", "gamma34"),
    ("constant", "custom", "--w", "3/2", "--algorithm", "cubic"),
    ("ellipse", "2", "1"),
    ("ellipse", "1", "0.5", "--algorithm", "quad"),
    ("ellipse", "5", "4", "--normalized"),
])
DIGITS = st.integers(min_value=1, max_value=60)
EXAMPLES = settings(max_examples=50, derandomize=True, deadline=None)


def printed(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().rstrip("\n")


def plain(request, digits: int) -> str:
    return printed(*request, "--digits", str(digits), "--plain")


@EXAMPLES
@given(REQUESTS, DIGITS)
def test_text_without_grouping_and_marker_is_plain(request, digits):
    text = printed(*request, "--digits", str(digits))
    bare = text.removesuffix(" ...").replace(" ", "").replace("\n", "")
    assert bare == plain(request, digits)


@EXAMPLES
@given(REQUESTS, DIGITS)
def test_json_value_is_plain(request, digits):
    payload = json.loads(printed(*request, "--digits", str(digits), "--json"))
    assert payload["value"] == plain(request, digits)


@EXAMPLES
@given(REQUESTS, DIGITS, st.integers(min_value=1, max_value=40))
def test_fewer_digits_are_a_prefix(request, digits, more):
    assert plain(request, digits + more).startswith(plain(request, digits))


@EXAMPLES
@given(REQUESTS, st.integers(min_value=1, max_value=31))
def test_below_32_digits_prints_the_first_digits_of_32(request, digits):
    # runs compute at least 32 digits, so fewer are a truncation of those
    short, full = plain(request, digits), plain(request, 32)
    assert short == full[: len(short)]
    assert len(short.replace(".", "").lstrip("0")) == digits


def w_spellings(w: Fraction, scale: int) -> list[str]:
    """Ways to write ``w``: p/q, scaled, with a sign, and as a decimal when it
    terminates (q divides 100)."""
    p, q = w.numerator, w.denominator
    spellings = [f"{p}/{q}", f"{p * scale}/{q * scale}", f"{'+' if p >= 0 else ''}{p}/{q}"]
    if 100 % q == 0:
        hundredths = p * (100 // q)
        value = Decimal(hundredths).scaleb(-2)
        spellings += [str(value), str(value.normalize()), f"{hundredths}e-2"]
    return spellings


@EXAMPLES
@given(
    st.integers(min_value=-6, max_value=12),
    st.sampled_from([1, 2, 3, 4, 6, 12]),
    st.integers(min_value=2, max_value=9),
    st.sampled_from(["quad", "cubic", "quartic"]),
    st.integers(min_value=1, max_value=60),
)
def test_equal_w_values_print_the_same_digits(p, q, scale, algorithm, digits):
    w = Fraction(p, q)
    outputs = {
        printed("constant", "custom", f"--w={spelling}", "--algorithm", algorithm,
                "--digits", str(digits), "--plain")
        for spelling in w_spellings(w, scale)
    }
    assert len(outputs) == 1


def axis_spelling(value: Decimal, style: str) -> str:
    if style == "fixed":
        return format(value, "f")
    if style == "padded":  # a trailing zero after the point
        text = format(value, "f")
        return text + ("0" if "." in text else ".0")
    _, digits, exponent = value.as_tuple()
    return f"{''.join(map(str, digits))}e{exponent}"


AXIS_STYLES = st.sampled_from(["fixed", "padded", "scientific"])


@EXAMPLES
@given(
    st.integers(min_value=1, max_value=99),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=-6, max_value=6),
    AXIS_STYLES,
    AXIS_STYLES,
    st.integers(min_value=1, max_value=60),
)
def test_scaled_axes_print_the_same_factor(minor, extra, power, major_style, minor_style, digits):
    # F(a, b) depends on b/a only
    a, b = Decimal(minor + extra), Decimal(minor)
    scaled = (axis_spelling(a.scaleb(power), major_style),
              axis_spelling(b.scaleb(power), minor_style))
    request = ("--normalized", "--digits", str(digits), "--plain")
    assert printed("ellipse", *scaled, *request) == printed("ellipse", str(a), str(b), *request)
