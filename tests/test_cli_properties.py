"""Property tests for the CLI's output forms.

Text, ``--plain`` and ``--json`` print the same truncated digits, and more
digits only extend what fewer digits print. Every value here is below 10, so
``--digits d`` never pads the integer part with zeros.
"""

import contextlib
import io
import json

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
