"""Property tests for :func:`replica.precision.to_sig_digits`.

Every printed digit string goes through ``to_sig_digits``; here it must equal
an independent reference built from the digit tuple by integer slicing, in
any form, for either sign, and whatever the caller's decimal context.
"""

from decimal import Context, Decimal, localcontext

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import sig_digits_reference  # noqa: E402
from replica.precision import to_sig_digits  # noqa: E402


@st.composite
def values_and_digits(draw):
    """(x, n): n in [1, 120], e(x) in [-150, 150] or at either edge of the positional form."""
    n = draw(st.integers(1, 120))
    adjusted = draw(st.integers(-150, 150) | st.sampled_from([-7, -6, n + 6, n + 7]))
    digits = tuple(map(int, str(draw(st.integers(1, 10**60)))))
    return Decimal((draw(st.integers(0, 1)), digits, adjusted - len(digits) + 1)), n


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(values_and_digits())
@pytest.mark.parametrize("context", [Context(), Context(prec=6, Emin=-60, Emax=60)],
                         ids=["default", "narrow"])
def test_matches_the_slicing_reference(context, case):
    x, n = case
    with localcontext(context):
        assert to_sig_digits(x, n) == sig_digits_reference(x, n)
