"""Command-line interface.

    replica constant pi --digits 1000 --algorithm quartic
    replica constant custom --w 3 --algorithm quad --digits 100
    replica ellipse 2 1 --digits 500 [--normalized]
    replica verify pi --digits 1000
    replica verify custom --w 1/2 --algorithm cubic --digits 200 --paper-example
    replica orders --algorithm quartic --w 1 --digits 1000

Exit codes: 0 success, 2 argument error, 3 non-convergence, 4 verification
failure; a reader that closes stdout early ends the request with 0 and
nothing on stderr.  ``REPLICA_MAX_DIGITS`` caps the digit request (default
1,000,000); it is read on every call and must be a positive integer.
Digit output is truncated, never rounded; the default text format groups
digits in tens, 50 per line, and ends with a ``...`` truncation marker
(``--plain`` prints the bare digits).

A request has one context, ``PrecisionContext(digits, MIN_GUARD_DIGITS)``,
which ``main`` passes to the handler.  Each run sizes its own guard and step
budget from it (``RunResult.ctx``), so the CLI keeps no precision policy.
A handler prints nothing: it returns a ``_Report``, and ``_write`` prints
that report as a digit block, text lines, JSON or a run trace.  Every value,
agreement count and order is computed at a run's context, so the output does
not depend on the calling thread's decimal context.

``main(argv)`` is re-entrant: the argument parser is built on the first call
and reused for every later call in the process.  Handlers look up the
library functions they call at call time, so patching a module binding of
``replica.cli`` takes effect even after the parser exists.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .algorithms import (
    CONSTANT_RECIPES,
    CUBIC,
    QUARTIC,
    AlgorithmKind,
    RunResult,
    as_weight,
    postprocess_constant,
    run_borwein,
    run_ellipse,
)
from .errors import (
    NonConvergenceError,
    ReplicaError,
    SlowConvergenceError,
)
from .precision import (
    MIN_GUARD_DIGITS,
    PrecisionContext,
    Real,
    matching_digits,
    nth_root,
    pow_rational,
    to_sig_digits,
)
from .series import couple_product, ellipse_factor

_ALGORITHM_ORDERS = {"quad": 2, "cubic": 3, "quartic": 4}

_GROUP = 10
_GROUPS_PER_LINE = 5

_OUTPUT_HELP = {
    "plain": "bare digits, no grouping",
    "json": "machine-readable result",
    "trace": "emit the JSON run trace",
}

# argparse reads "-1/2" as an option, not as the value of --w (it takes "-3").
_W_NEGATIVE = "; a negative fraction needs =, as in --w=-1/2"


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replica",
        description="Self-replicating Borwein-like algorithms for pi, Gamma values "
        "and ellipse perimeters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, outputs, digits=50):
        # own --digits and --algorithm; args.output is "text" or one of the outputs flags
        p = sub.add_parser(name, help=summary)
        p.add_argument("--digits", type=int, default=digits, help="significant digits to print")
        p.add_argument(
            "--algorithm",
            choices=[*_ALGORITHM_ORDERS, "auto"],
            default="auto",
            help="iteration family (auto: the highest order the target allows, "
            "quartic except cubic for gamma23 and gamma13)",
        )
        forms = p.add_mutually_exclusive_group()
        for form in outputs:
            forms.add_argument(f"--{form}", dest="output", action="store_const", const=form,
                               help=_OUTPUT_HELP[form])
        p.set_defaults(handler=handler, output="text")
        return p

    p_const = command("constant", "compute a constant", _cmd_constant, ("plain", "json", "trace"))
    p_const.add_argument("constant_id", help="pi, gamma14, gamma13, gamma23, gamma34 or custom")
    p_const.add_argument("--w", help="free parameter p/q (required for custom)" + _W_NEGATIVE)

    p_ell = command("ellipse", "perimeter of an ellipse", _cmd_ellipse, ("plain", "json", "trace"))
    p_ell.add_argument("semi_major", help="semi-major axis (decimal string)")
    p_ell.add_argument("semi_minor", help="semi-minor axis (decimal string)")
    p_ell.add_argument(
        "--normalized", action="store_true", help="print the series factor, not the perimeter"
    )

    p_ver = command("verify", "cross-check a run against the series oracle", _cmd_verify,
                    ("json", "trace"))
    p_ver.add_argument("target", help="constant id, custom, or ellipse")
    p_ver.add_argument("axes", nargs="*", help="semi-axes when target is ellipse")
    p_ver.add_argument("--w", help="free parameter p/q for custom targets" + _W_NEGATIVE)
    p_ver.add_argument(
        "--paper-example",
        action="store_true",
        help="measure the cubic w=1/2 limit against the simplified example expression",
    )

    p_ord = command("orders", "convergence-order table", _cmd_orders, ("json",), digits=1000)
    p_ord.add_argument("--w", default="1", help="free parameter p/q" + _W_NEGATIVE)
    return parser


def main(argv=None) -> int:
    try:
        code = _serve(argv)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
    except BrokenPipeError:  # the reader stopped early; devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    return code


def _serve(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_digits(args.digits)
        return _write(args, args.handler(args, PrecisionContext(args.digits, MIN_GUARD_DIGITS)))
    except (ReplicaError, ValueError, decimal.InvalidOperation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NonConvergenceError) else 2
    except decimal.Overflow:  # an input so large that a power or a conversion overflows
        print("error: value out of range (decimal exponent overflow)", file=sys.stderr)
        return 2


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError("--digits must be >= 1")
    text = os.environ.get("REPLICA_MAX_DIGITS", "1000000")
    try:
        cap = int(text)
    except ValueError:
        cap = 0  # refused below with the non-positive values
    if cap < 1:
        raise ValueError(f"REPLICA_MAX_DIGITS must be a positive integer, got {text!r}")
    if digits > cap:
        raise ValueError(f"--digits exceeds REPLICA_MAX_DIGITS = {cap}")


def _format_block(value: Real, digits: int, plain: bool) -> str:
    """Truncated significant digits, grouped in tens, 50 per line.

    A trailing ``...`` marks that nonzero digits were cut off."""
    text = to_sig_digits(value, digits)
    if plain:
        return text
    marker = " ..." if Decimal(text) != value else ""
    if "e" in text:  # scientific fallback: grouping would not help
        return text + marker
    head, dot, frac = text.partition(".")
    groups = [frac[i : i + _GROUP] for i in range(0, len(frac), _GROUP)] or [""]
    groups[0] = head + dot + groups[0]  # the integer part leads the first group
    return "\n".join(
        " ".join(groups[i : i + _GROUPS_PER_LINE]) for i in range(0, len(groups), _GROUPS_PER_LINE)
    ) + marker


@dataclass
class _Report:
    """A handler's answer: the run and the value it prints, the JSON fields, the
    text lines (None: the digit block of the value), the oracle's agreeing
    digits (``verify`` only) and the exit code."""

    run: RunResult
    value: Real
    fields: dict
    lines: list[str] | None = None
    oracle_digits: int | None = None
    code: int = 0


def _write(args, report: _Report) -> int:
    """Print ``report`` in the form ``args.output`` names; return its exit code.

    JSON is ``report.fields`` plus ``algorithm`` and ``digits``, and for a
    value (no text lines) also ``value``, ``iterations`` and ``orders``."""
    if args.output not in ("json", "trace"):
        print(_format_block(report.value, args.digits, args.output == "plain")
              if report.lines is None else "\n".join(report.lines))
        return report.code
    run = report.run
    if args.output == "trace":
        payload = {
            "command": args.command,
            "algorithm": run.kind.name,
            "w": str(run.w),
            "target_digits": run.ctx.target_digits,
            "working_digits": run.ctx.working_digits,
            "result": to_sig_digits(report.value, args.digits),
            "iterations": [{"n": st.n, "delta_exp": st.delta_exp} for st in run.trace[1:]],
            "orders": run.orders,
            "oracle_digits": report.oracle_digits,
        }
    else:
        payload = {**report.fields, "algorithm": run.kind.name, "digits": args.digits}
        if report.lines is None:
            payload.update(value=to_sig_digits(report.value, args.digits),
                           iterations=run.iterations, orders=run.orders)
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return report.code


def _resolve_constant(args, name: str) -> tuple[AlgorithmKind, Fraction]:
    """The family and w that compute constant ``name`` (or ``custom`` at --w)."""
    w_arg = None if args.w is None else as_weight(args.w)
    if name == "custom":
        if w_arg is None:
            raise ValueError(f"{args.command} custom requires --w")
        allowed, w = (2, 3, 4), w_arg
    elif name in CONSTANT_RECIPES:
        allowed, w, _, _ = CONSTANT_RECIPES[name]
        if w_arg is not None and w_arg != w:
            raise ValueError(f"constant {name} is computed at w={w}; drop --w or use custom")
    else:
        what = "constant id" if args.command == "constant" else "verify target"
        raise ValueError(f"unknown {what} {name!r}")
    order = max(allowed) if args.algorithm == "auto" else _ALGORITHM_ORDERS[args.algorithm]
    if order not in allowed:
        raise ValueError(f"constant {name} needs an algorithm of order in {allowed}")
    return AlgorithmKind(order), w


def _run_constant(name: str, kind: AlgorithmKind, w: Fraction, ctx: PrecisionContext):
    """A named constant runs at its family's root-free w1 and takes its w from
    K (``RunResult.limit``); ``custom`` runs the paper's iteration at w itself."""
    return run_borwein(kind, w if name == "custom" else kind.root_free_w, ctx)


def _cmd_constant(args, ctx: PrecisionContext) -> _Report:
    name = args.constant_id
    kind, w = _resolve_constant(args, name)
    run = _run_constant(name, kind, w, ctx)
    value = run.value if name == "custom" else postprocess_constant(name, run)
    return _Report(run, value, {"constant": name, "w": str(w)})


def _run_perimeter(args, ctx: PrecisionContext, major: str, minor: str):
    """Parse the semi-axes and run the perimeter iteration of the family
    ``args`` asks for: (a, b, run), with a and b as parsed."""
    try:  # a fresh context traps a malformed axis whatever the caller's context traps
        a, b = Decimal(major, decimal.Context()), Decimal(minor, decimal.Context())
    except decimal.InvalidOperation:
        raise ValueError("axes must be decimal numbers") from None
    kind = AlgorithmKind(_ALGORITHM_ORDERS.get(args.algorithm, QUARTIC.order))
    return a, b, run_ellipse(kind, a, b, ctx)


def _cmd_ellipse(args, ctx: PrecisionContext) -> _Report:
    a, b, run = _run_perimeter(args, ctx, args.semi_major, args.semi_minor)
    ctx = run.ctx
    axis_major, axis_minor = ctx.real(a), ctx.real(b)
    fields = {
        "command": "ellipse",
        "semi_major": str(a),
        "semi_minor": str(b),
        "normalized": bool(args.normalized),
    }
    with ctx.local():
        value = run.value
        if not args.normalized:
            pi = postprocess_constant("pi", run_borwein(QUARTIC, Fraction(1), ctx))
            # (b/a)*F stays of order a/b, so no product leaves the exponent range
            value = 2 * pi * axis_minor * (axis_minor / axis_major * value)
            # P > 4a for every b > 0, but once (b/a)^2 ln(a/b) is below the working
            # precision P rounds to about 4a, where its truncation would read ...999
            # whenever the rounding fell below: keep the value above 4a
            with ctx.elevated(1):
                value = max(value, (4 * axis_major).next_plus())
        if args.output == "json":  # the only form that prints the eccentricity
            # below 1 for every b > 0, though 1 - (b/a)^2 rounds to 1 once b/a
            # is below the working precision: the truncation must read 0.99...9
            eccentricity = min(nth_root(1 - (axis_minor / axis_major) ** 2, 2, ctx),
                               Decimal(1).next_minus())
            fields["eccentricity"] = to_sig_digits(eccentricity, min(args.digits, 30))
    return _Report(run, value, fields)


def _cmd_verify(args, ctx: PrecisionContext) -> _Report:
    """Run a constant or perimeter and measure it against its oracle: the
    series, or where that is too slow the other perimeter family at its own budget."""
    ellipse = args.target == "ellipse"
    if ellipse and args.w is not None:
        raise ValueError("verify ellipse takes no --w")
    if not ellipse and args.axes:
        raise ValueError(f"verify {args.target} takes no axes")
    constant = None if ellipse else _resolve_constant(args, args.target)
    if args.paper_example and constant != (CUBIC, Fraction(1, 2)):
        raise ValueError("--paper-example applies to the cubic family at w=1/2")
    if args.paper_example and args.output == "trace":
        raise ValueError("--paper-example prints text or JSON, not a --trace")
    fields = {"command": "verify", "target": args.target}
    suffix = ""
    if ellipse:
        if len(args.axes) != 2:
            raise ValueError("verify ellipse needs two axes")
        a, b, run = _run_perimeter(args, ctx, *args.axes)
        value = run.value
        lines = [f"verify ellipse {a} {b}: algorithm={run.kind.name} digits={args.digits}"]
        fields.update(semi_major=str(a), semi_minor=str(b))
        try:
            oracle = ellipse_factor(run.ctx.real(a), run.ctx.real(b), run.ctx)
            suffix = " (vs series oracle)"
        except SlowConvergenceError as exc:
            other = AlgorithmKind(6 - run.kind.order)
            oracle = run_ellipse(other, a, b, ctx).value
            suffix = f" (vs {other.name} iteration (series oracle too slow for this eccentricity))"
            lines.append(f"warning: series oracle skipped: {exc}")
            fields["warning"] = "slow-oracle"
    else:
        kind, w = constant
        run = _run_constant(args.target, kind, w, ctx)
        value = run.limit(w)
        oracle = couple_product(kind.couple_parameter, w, run.ctx)
        lines = [f"verify {args.target}: algorithm={kind.name} w={w} digits={args.digits}"]
        fields["w"] = str(w)
    agree = min(matching_digits(value, oracle), run.ctx.working_digits)
    ok = agree >= args.digits
    lines.append(f"agree: >={agree} digits{suffix}")
    fields.update(agree_digits=agree, ok=ok)
    if args.paper_example:
        ratio, expected, support = _paper_example_probe(run.ctx, oracle)
        lines += [
            f"paper-example probe: measured ratio (general limit / example value) = {ratio}",
            f"algebraic factor 3^(3/4) * 2^(-4/3) = {expected}",
            f"the series oracle supports the {support}",
        ]
        fields.update(paper_example_ratio=ratio, expected_ratio=expected, oracle_supports=support)
    lines.append("PASS" if ok else "FAIL: oracle disagreement")
    return _Report(run, value, fields, lines, oracle_digits=agree, code=0 if ok else 4)


def _paper_example_probe(ctx: PrecisionContext, oracle: Real):
    """Measure the cubic w=1/2 limit against (2/(sqrt(3) Gamma(1/3)))**(3/2).

    By the reflection identity Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3) that
    example value is (Gamma(2/3)/pi)**(3/2), formed independently of the
    w=1/2 run: Gamma(2/3) from the cubic w=2 run, pi from the quartic w=1 run.
    Returns both ratios to 30 digits and the formula the oracle supports.
    """
    with ctx.local():
        pi = postprocess_constant("pi", run_borwein(QUARTIC, Fraction(1), ctx))
        gamma23 = postprocess_constant("gamma23", run_borwein(CUBIC, Fraction(2), ctx))
        example = pow_rational(gamma23 / pi, Fraction(3, 2), ctx)
        ratio = oracle / example
        expected = (pow_rational(Decimal(3), Fraction(3, 4), ctx)
                    * pow_rational(Decimal(2), Fraction(-4, 3), ctx))
        support = (
            "general limit formula (the w=1/2 example value is off by this factor)"
            if matching_digits(ratio, expected) >= ctx.target_digits // 2
            else "simplified example value"
        )
        return to_sig_digits(ratio, 30), to_sig_digits(expected, 30), support


def _cmd_orders(args, ctx: PrecisionContext) -> _Report:
    if args.digits < 100:
        raise ValueError("orders needs --digits >= 100")
    # the table follows the raw run at --w, the value `constant custom` prints
    kind, w = _resolve_constant(args, "custom")
    run = run_borwein(kind, w, ctx)
    rows = []
    lines = [
        f"orders: algorithm={kind.name} w={w} digits={args.digits}",
        f"{'n':>3} {'delta_exp':>10} {'err_exp':>9} {'order n->n+1':>13}",
    ]
    for st, (err_exp, order) in zip(run.trace, run.error_table):
        row = {"n": st.n, "delta_exp": st.delta_exp, "err_exp": err_exp}
        if order is not None:
            row["order"] = order
        rows.append(row)
        delta, err = ("-" if x is None else str(x) for x in (st.delta_exp, err_exp))
        o = "-" if order is None else f"{order:.4f}"
        lines.append(f"{st.n:>3} {delta:>10} {err:>9} {o:>13}")
    lines.append(f"orders tend to {kind.order} (convergence order of the {kind.name} family)")
    fields = {"command": "orders", "w": str(w), "iterations": rows, "orders": run.orders}
    return _Report(run, run.value, fields, lines)


if __name__ == "__main__":
    sys.exit(main())
