"""Seeded request lists for the benchmark workloads.

Every workload is a sequence of passes. Pass ``i`` of seed ``s`` is generated
from its own ``random.Random`` stream, so the same seed always gives the same
requests. Every pass has the same mix of commands; only digit counts and the
pairing of choices vary.

scale
    One request per (constant, family) pair at about 20 000 digits, plus
    ``ellipse 2 1``. Time to many digits: Newton roots and the ``_step``
    divisions carry the time, the series oracle none.
verify
    ``verify`` of the five constants and of two ellipses, one mild (2 1, the
    README's example) and one eccentric (b/a <= 0.01, which takes the
    iteration fallback), all at one digit count of about 5 000 per pass. The
    series oracle carries the time. Three of the constants share the s = 1/2
    couple at the same precision.
interactive
    About 1 000 small requests in a fixed mix: ``constant`` (``custom --w``
    too) and ``ellipse`` (near-degenerate axes too) in every output format,
    ``verify`` at most 200 digits, ``orders``, and about 5% argument errors
    that must exit with code 2. Most requests ask for 50 to 200 digits, where
    a request costs about what it costs at 50 digits, so per-call fixed costs
    (argument parsing, contexts, seeds, formatting, the pi run inside
    ``ellipse``) dominate.

A run makes a fixed number of passes, :func:`pass_count`, which depends on
``--seconds`` but not on the speed of the code, so every run of a workload
measures the same requests however fast they are answered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("scale", "verify", "interactive")

#: A run makes at most this many passes, so the digit counts below stay bounded.
MAX_PASSES = 12
#: Seconds one pass takes on the 2-vCPU machine the benchmark was set up on.
#: A run of ``seconds`` makes round(seconds / NOMINAL_PASS_S) passes, at
#: least one and at most MAX_PASSES, whatever the speed of the code.
NOMINAL_PASS_S = {"scale": 14.0, "verify": 6.0, "interactive": 3.0}
#: (base, step): every request of pass i asks for base + step*i digits. Each
#: pass asks for more digits than any before it, so no cache can answer a pass
#: from the values computed for an earlier one. The counts do not depend on the
#: seed because the cost of a request can jump with a few digits more (verify
#: ellipse 3 2 takes 8.5 s at 5000 digits and 9.9 s at 5007).
SCALE_DIGITS = {"full": (20_000, 25), "smoke": (300, 5)}
VERIFY_DIGITS = {"full": (5_000, 5), "smoke": (100, 5)}
#: (requests per pass, lowest digits, digits below which SMALL_SHARE of the
#: requests fall, highest digits)
INTERACTIVE_SIZE = {"full": (1_000, 50, 200, 1_000), "smoke": (40, 50, 100, 200)}
#: Share of interactive requests at low to mid digits. Up to 200 digits a
#: request costs at most about 1.5 times what it costs at 50 digits; at 1 000
#: digits it costs about 8 times as much.
SMALL_SHARE = 0.85
#: interactive verify asks for at most this many digits
INTERACTIVE_VERIFY_DIGITS = 200

#: digits the frozen reference values must cover
LARGE_REFERENCE_DIGITS = SCALE_DIGITS["full"][0] + SCALE_DIGITS["full"][1] * MAX_PASSES
SMALL_REFERENCE_DIGITS = INTERACTIVE_SIZE["full"][3]

#: constant id -> algorithms that compute it
CONSTANT_ALGORITHMS = {
    "pi": ("quad", "quartic"),
    "gamma34": ("quad", "quartic"),
    "gamma14": ("quad", "quartic"),
    "gamma23": ("cubic",),
    "gamma13": ("cubic",),
}
SCALE_PAIRS = (
    ("pi", "quartic"),
    ("pi", "quad"),
    ("gamma34", None),
    ("gamma14", None),
    ("gamma23", None),
    ("gamma13", None),
)
SCALE_ELLIPSE = ("2", "1")
VERIFY_ELLIPSES = (("2", "1"), ("1", "0.005"))

CUSTOM_W = ("1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "3/2", "2", "3")
ORDERS_W = ("1/3", "1/2", "1", "2")
#: interactive verify targets (at most 500 digits)
VERIFY_TARGETS = (
    ("pi",),
    ("gamma34",),
    ("gamma14",),
    ("gamma23",),
    ("gamma13",),
    ("custom", "--w", "1/3", "--algorithm", "quad"),
    ("custom", "--w", "3/2", "--algorithm", "cubic"),
    ("custom", "--w", "2", "--algorithm", "quartic"),
    ("custom", "--w", "1/2", "--algorithm", "cubic", "--paper-example"),
    ("ellipse", "2", "1"),
    ("ellipse", "5", "4"),
    ("ellipse", "0.5", "0.25"),
    ("ellipse", "1", "1e-6"),
)
#: semi-axes for interactive ellipse requests, from circle to near-degenerate
ELLIPSE_AXES = (
    ("1", "1"),
    ("2", "1"),
    ("3", "2"),
    ("5", "4"),
    ("10", "9"),
    ("0.5", "0.25"),
    ("1.5", "0.3"),
    ("7", "6.99"),
    ("10", "0.1"),
    ("1", "0.001"),
    ("1", "1e-6"),
    ("1", "1e-12"),
    ("1", "1e-30"),
    ("1e6", "1"),
)
#: requests the CLI must refuse with exit code 2
ERROR_ARGVS = (
    ("constant", "tau"),
    ("constant", "pi", "--digits", "0"),
    ("constant", "pi", "--digits", "many"),
    ("constant", "gamma23", "--algorithm", "quartic"),
    ("constant", "custom"),
    ("constant", "custom", "--w", "1/5"),
    ("constant", "gamma14", "--w", "2"),
    ("ellipse", "1", "2"),
    ("ellipse", "2", "0"),
    ("ellipse", "2", "x"),
    ("ellipse", "2", "1", "--algorithm", "cubic"),
    ("verify", "ellipse", "2"),
    ("verify", "zeta3"),
    ("orders", "--digits", "50"),
)
#: Interactive mix, per 1 000 requests. No record of real use exists, so the
#: shares are chosen to fit the workload's purpose, per-call fixed costs:
#: the commands that print a value take 89% (the split among them is a free
#: choice; it moves only how much of the fixed cost is the pi run inside
#: ellipse); argument errors take 5%, as the workload's definition asks.
#: verify and orders take 2.5% and 3.5%, enough to run their code paths in
#: every pass (25 and 35 requests) but too few for the series oracle or the
#: order tables to outweigh the fixed costs: with 15% verify and 10% orders,
#: verify alone took 31% of a pass and the CLI's own code 29%.
INTERACTIVE_MIX = {
    "constant": 440,
    "custom": 150,
    "ellipse": 300,
    "verify": 25,
    "orders": 35,
    "error": 50,
}
OUTPUTS = ("text", "plain", "json", "trace")
_OUTPUT_FLAG = {"text": (), "plain": ("--plain",), "json": ("--json",), "trace": ("--trace",)}


@dataclass(frozen=True)
class Request:
    """One CLI call and what a correct answer looks like.

    ``expect`` is ``value`` (digits checked against ``reference``),
    ``verify`` (agreement of at least ``digits``), ``orders`` (a well-formed
    table) or ``error`` (exit code 2, nothing on stdout).
    """

    argv: tuple[str, ...]
    digits: int
    expect: str
    output: str = "text"
    reference: str | None = None

    @property
    def command(self) -> str:
        return " ".join(self.argv)


def custom_reference(algorithm: str, w: str) -> str:
    """Reference key of ``constant custom``: the raw limit s0**w * s1."""
    s = "1/3" if algorithm == "cubic" else "1/2"
    return f"custom {s} {w}"


def ellipse_reference(a: str, b: str, normalized: bool) -> str:
    return f"{'factor' if normalized else 'perimeter'} {a} {b}"


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes: fixed in advance, not by the speed of the code."""
    return max(1, min(MAX_PASSES, round(seconds / NOMINAL_PASS_S[workload])))


def generate(workload: str, seed: int, pass_index: int, size: str = "full") -> list[Request]:
    """The requests of one pass; ``size`` is ``full`` or ``smoke``."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "scale":
        base, step = SCALE_DIGITS[size]
        return _scale(rng, base + step * pass_index)
    if workload == "verify":
        base, step = VERIFY_DIGITS[size]
        return _verify(rng, base + step * pass_index)
    if workload == "interactive":
        return _interactive(rng, *INTERACTIVE_SIZE[size])
    raise ValueError(f"unknown workload {workload!r}")


def _scale(rng: random.Random, digits: int) -> list[Request]:
    requests = []
    for name, algorithm in SCALE_PAIRS:
        argv = ("constant", name, "--digits", str(digits))
        if algorithm:
            argv += ("--algorithm", algorithm)
        requests.append(Request(argv, digits, "value", reference=name))
    a, b = SCALE_ELLIPSE
    requests.append(
        Request(("ellipse", a, b, "--digits", str(digits)), digits, "value",
                reference=ellipse_reference(a, b, False))
    )
    rng.shuffle(requests)
    return requests


def _verify(rng: random.Random, digits: int) -> list[Request]:
    targets = [(name,) for name in CONSTANT_ALGORITHMS]
    targets += [("ellipse", a, b) for a, b in VERIFY_ELLIPSES]
    requests = []
    for target in targets:
        output = rng.choice(("text", "json"))
        argv = ("verify", *target, "--digits", str(digits)) + _OUTPUT_FLAG[output]
        requests.append(Request(argv, digits, "verify", output))
    rng.shuffle(requests)
    return requests


def _log_digits(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """n ascending digit counts, one in each of n equal slices of [low, high] on a log scale."""
    return [round(low * (high / low) ** ((i + rng.random()) / n)) for i in range(n)]


def _mostly_small(rng: random.Random, n: int, low: int, mid: int, high: int) -> list[int]:
    """n ascending digit counts: SMALL_SHARE of them in [low, mid], the rest in [mid, high]."""
    small = round(SMALL_SHARE * n)
    return _log_digits(rng, small, low, mid) + _log_digits(rng, n - small, mid, high)


def _balanced(rng: random.Random, options, n: int) -> list:
    """n picks cycling through the options from a seeded starting point.

    Zipped with ascending digit counts (:func:`_log_digits`), every
    option gets digit counts spread over the whole range, so every pass of
    every seed has nearly the same cost; the seed changes the pairing.
    """
    options = list(options)
    offset = rng.randrange(len(options))
    return [options[(i + offset) % len(options)] for i in range(n)]


def _interactive(rng: random.Random, total: int, low: int, mid: int, high: int) -> list[Request]:
    counts = {kind: max(1, round(share * total / 1000)) for kind, share in INTERACTIVE_MIX.items()}
    requests: list[Request] = []

    n = counts["constant"]
    pairs = [(name, alg) for name, algs in CONSTANT_ALGORITHMS.items() for alg in ("auto",) + algs]
    for digits, (name, algorithm), output in zip(
        _mostly_small(rng, n, low, mid, high), _balanced(rng, pairs, n), _balanced(rng, OUTPUTS, n)
    ):
        argv = ("constant", name, "--digits", str(digits)) + _algorithm_flag(algorithm)
        requests.append(Request(argv + _OUTPUT_FLAG[output], digits, "value", output, name))

    n = counts["custom"]
    for digits, w, algorithm, output in zip(
        _mostly_small(rng, n, low, mid, high),
        _balanced(rng, CUSTOM_W, n),
        _balanced(rng, ("auto", "quad", "cubic", "quartic"), n),
        _balanced(rng, OUTPUTS, n),
    ):
        argv = ("constant", "custom", "--w", w, "--digits", str(digits)) + _algorithm_flag(algorithm)
        requests.append(
            Request(argv + _OUTPUT_FLAG[output], digits, "value", output,
                    custom_reference(algorithm, w))
        )

    n = counts["ellipse"]
    for digits, (a, b), algorithm, normalized, output in zip(
        _mostly_small(rng, n, low, mid, high),
        _balanced(rng, ELLIPSE_AXES, n),
        _balanced(rng, ("auto", "quad", "quartic"), n),
        _balanced(rng, (True, False, False, False), n),
        _balanced(rng, OUTPUTS, n),
    ):
        argv = ("ellipse", a, b, "--digits", str(digits)) + _algorithm_flag(algorithm)
        argv += ("--normalized",) if normalized else ()
        requests.append(
            Request(argv + _OUTPUT_FLAG[output], digits, "value", output,
                    ellipse_reference(a, b, normalized))
        )

    n = counts["verify"]
    for digits, target, output in zip(
        _log_digits(rng, n, low, min(mid, INTERACTIVE_VERIFY_DIGITS)),
        _balanced(rng, VERIFY_TARGETS, n),
        _balanced(rng, ("text", "json"), n),
    ):
        argv = ("verify", *target, "--digits", str(digits)) + _OUTPUT_FLAG[output]
        requests.append(Request(argv, digits, "verify", output))

    n = counts["orders"]
    for digits, w, algorithm, output in zip(
        _mostly_small(rng, n, max(low, 100), max(mid, 100), high),
        _balanced(rng, ORDERS_W, n),
        _balanced(rng, ("auto", "quad", "cubic", "quartic"), n),
        _balanced(rng, ("text", "json"), n),
    ):
        argv = ("orders", "--w", w, "--digits", str(digits))
        argv += _algorithm_flag(algorithm) + _OUTPUT_FLAG[output]
        requests.append(Request(argv, digits, "orders", output))

    for argv in _balanced(rng, ERROR_ARGVS, counts["error"]):
        requests.append(Request(argv, 0, "error"))

    rng.shuffle(requests)
    return requests


def _algorithm_flag(algorithm: str) -> tuple[str, ...]:
    return () if algorithm == "auto" else ("--algorithm", algorithm)
