"""Check one CLI answer against the frozen reference digits.

Every printed digit is compared: the output is parsed by its format (grouped
text with its `` ...`` truncation marker, ``--plain``, the ``value`` of
``--json`` or the ``result`` of ``--trace``) and must equal the reference
truncated to the requested number of significant digits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Request

REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")


def load_references(path: Path = REFERENCE_FILE) -> dict[str, tuple[int, str]]:
    """key -> (decimal exponent, significant digits), from ``make_reference.py``."""
    return {key: (exp, digits) for key, (exp, digits) in json.loads(path.read_text()).items()}


def significand(text: str) -> tuple[int, str]:
    """(decimal exponent, significant digits) of a positive decimal string."""
    mantissa, _, exp = text.partition("e")
    head, _, tail = mantissa.partition(".")
    digits = head + tail
    lead = len(digits) - len(digits.lstrip("0"))
    return len(head) - 1 - lead + int(exp or 0), digits[lead:]


def check(request: Request, code: int, out: str, references) -> str | None:
    """None when the answer is right, else the reason it is wrong."""
    if request.expect == "error":
        return None if code == 2 and not out else f"exit code {code} with output, expected 2"
    if code != 0:
        return f"exit code {code}"
    try:
        if request.expect == "value":
            return _check_value(request, out.strip(), references[request.reference])
        if request.expect == "verify":
            return _check_verify(request, out.strip())
        return _check_orders(out.strip(), request.output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"


def _check_value(request: Request, out: str, reference: tuple[int, str]) -> str | None:
    n = request.digits
    exponent, ref = reference
    if n > len(ref) - 10:
        raise KeyError(f"reference {request.reference!r} has too few digits for {n}")
    if request.output == "json":
        text = json.loads(out)["value"]
    elif request.output == "trace":
        text = json.loads(out)["result"]
    elif request.output == "plain":
        text = out
    else:
        marked = out.endswith(" ...")
        text = "".join(out.removesuffix(" ...").split())
        # The scientific fallback of the text format prints no marker.
        if "e" not in text and marked != bool(ref[n:].strip("0")):
            return "truncation marker wrong"
    got_exponent, digits = significand(text)
    if got_exponent != exponent:
        return f"exponent {got_exponent}, expected {exponent}"
    if len(digits) < n or digits[n:].strip("0"):
        return f"{len(digits)} significant digits printed, expected {n}"
    if digits[:n] != ref[:n]:
        wrong = next(i for i, (a, b) in enumerate(zip(digits, ref)) if a != b)
        return f"wrong digit at position {wrong}"
    return None


def _check_verify(request: Request, out: str) -> str | None:
    if request.output == "json":
        payload = json.loads(out)
        agree, ok = payload["agree_digits"], payload["ok"] is True
    else:
        lines = out.splitlines()
        agree_line = next(line for line in lines if line.startswith("agree: >="))
        agree = int(agree_line.split(">=")[1].split()[0])
        ok = lines[-1] == "PASS"
    if not ok or agree < request.digits:
        return f"verify agreed on {agree} digits, asked for {request.digits}"
    return None


def _check_orders(out: str, output: str) -> str | None:
    if output == "json":
        orders = json.loads(out)["orders"]
    else:
        lines = out.splitlines()
        if not lines[0].startswith("orders:") or not lines[-1].startswith("orders tend to"):
            return "malformed orders table"
        orders = [float(line.split()[-1]) for line in lines[2:-1] if line.split()[-1] != "-"]
    if not orders or not all(math.isfinite(o) and o > 1 for o in orders):
        return f"bad convergence orders {orders}"
    return None
