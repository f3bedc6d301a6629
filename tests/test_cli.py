import decimal
import hashlib
import itertools
import json
import os
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import frozen
import pytest
from oracles import near_degenerate_perimeter
from replica import (
    QUARTIC,
    AlgorithmKind,
    ReplicaError,
    RunResult,
    couple_product,
    run_borwein,
    run_ellipse,
)
from replica import algorithms, precision, series
from replica.cli import main
from replica.precision import make_context, matching_digits, to_sig_digits


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def digits_only(text):
    """Strip grouping spaces, newlines and the truncation marker."""
    return text.replace(" ...", "").replace(" ", "").replace("\n", "")


class TestConstantCommand:
    def test_pi_50_grouped(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "pi", "--digits", "50")
        assert code == 0
        assert out == (
            "3.1415926535 8979323846 2643383279 5028841971 693993751 ..."
        )

    def test_pi_single_digit_plain(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "pi", "--digits", "1", "--plain")
        assert code == 0
        assert out == "3"

    def test_pi_1000_content(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "pi", "--digits", "1000", "--plain")
        assert code == 0
        assert out == frozen.PI[:1001]  # 1000 significant digits + the dot

    def test_line_breaking(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "pi", "--digits", "120")
        lines = out.split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("3.1415926535 ")
        assert lines[-1].endswith(" ...")

    def test_custom_raw_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "constant", "custom", "--w", "3", "--algorithm", "quad",
            "--digits", "100", "--plain",
        )
        assert code == 0
        with localcontext(Context(prec=150)):
            expected = str(1 / Decimal(frozen.GAMMA34) ** 4)
        assert expected.startswith(out[:100])

    def test_a_limit_far_from_one_keeps_its_digits(self, capsys):
        # the limit at w = -1000 is about 10**-73: a stopping rule absolute in a
        # stopped after 2 steps and printed 2.6878013760...e-73
        argv = ["custom", "--w=-1000", "--algorithm", "quad", "--digits", "20"]
        assert run_cli(capsys, "constant", *argv) == (0, "2.6515352199743354413e-73 ...", "")
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and out.endswith("PASS")

    def test_gamma_constants(self, capsys):
        for name, digits in (
            ("gamma14", frozen.GAMMA14),
            ("gamma34", frozen.GAMMA34),
            ("gamma13", frozen.GAMMA13),
            ("gamma23", frozen.GAMMA23),
        ):
            code, out, _ = run_cli(capsys, "constant", name, "--digits", "200", "--plain")
            assert code == 0
            assert digits.startswith(out)

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "pi", "--digits", "30", "--json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out
        assert payload["constant"] == "pi"
        assert payload["algorithm"] == "quartic"
        assert payload["w"] == "1"
        assert payload["digits"] == 30
        assert payload["value"] == frozen.PI[:31]
        assert payload["iterations"] >= 1

    def test_trace_schema(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "pi", "--digits", "40", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "command", "algorithm", "w", "target_digits", "working_digits",
            "result", "iterations", "orders", "oracle_digits",
        }
        assert payload["command"] == "constant"
        assert payload["oracle_digits"] is None
        assert all(set(row) == {"n", "delta_exp"} for row in payload["iterations"])
        assert payload["iterations"][0]["n"] == 1
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out

    def test_unknown_constant(self, capsys):
        code, _, err = run_cli(capsys, "constant", "zeta3")
        assert code == 2 and "unknown constant" in err

    def test_custom_requires_w(self, capsys):
        code, _, err = run_cli(capsys, "constant", "custom")
        assert code == 2 and "--w" in err

    def test_w_conflict_rejected(self, capsys):
        code, _, err = run_cli(capsys, "constant", "pi", "--w", "2")
        assert code == 2

    def test_wrong_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "constant", "pi", "--algorithm", "cubic")
        assert code == 2
        code, _, err = run_cli(capsys, "constant", "gamma13", "--algorithm", "quartic")
        assert code == 2

    def test_bad_w_denominator(self, capsys):
        code, _, err = run_cli(capsys, "constant", "custom", "--w", "1/7")
        assert code == 2 and "denominator" in err

    def test_digit_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("REPLICA_MAX_DIGITS", "100")
        code, _, err = run_cli(capsys, "constant", "pi", "--digits", "101")
        assert code == 2 and "REPLICA_MAX_DIGITS" in err
        code, _, _ = run_cli(capsys, "constant", "pi", "--digits", "100")
        assert code == 0

    @pytest.mark.parametrize("cap", ["abc", "1e3", "", "-5", "0"])
    def test_malformed_digit_cap(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("REPLICA_MAX_DIGITS", cap)
        code, out, err = run_cli(capsys, "constant", "pi", "--digits", "10")
        assert code == 2 and out == ""
        assert err == f"error: REPLICA_MAX_DIGITS must be a positive integer, got {cap!r}\n"

    def test_zero_digits(self, capsys):
        code, _, err = run_cli(capsys, "constant", "pi", "--digits", "0")
        assert code == 2

    @pytest.mark.parametrize("argv, key", [
        (("constant", "pi", "--algorithm", "quad"), "pi"),
        (("constant", "pi", "--algorithm", "quartic"), "pi"),
        (("constant", "gamma13"), "gamma13"),
        (("constant", "gamma34"), "gamma34"),
        (("ellipse", "2", "1"), "perimeter 2 1"),
    ])
    def test_12000_digits_match_the_reference(self, capsys, argv, key):
        # Above the quotient crossover (10 000 working digits), the descend
        # maps, constant pi's 1/X and the perimeter's c0 take the Newton
        # quotient. bench/reference.json holds independent AGM digits.
        exponent, digits = json.loads(REFERENCE.read_text())[key]
        assert exponent == 0
        code, out, err = run_cli(capsys, *argv, "--digits", "12000", "--plain")
        assert (code, err) == (0, "")
        assert out.replace(".", "") == digits[:12000]


class TestEllipseCommand:
    def test_circle_perimeter(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "1", "1", "--digits", "20")
        assert code == 0
        with localcontext(Context(prec=40)):
            expected = str(2 * Decimal(frozen.PI))[:21]
        assert digits_only(out) == expected
        assert out == "6.2831853071 795864769 ..."

    def test_two_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "2", "1", "--digits", "30", "--plain")
        assert code == 0
        with localcontext(Context(prec=60)):
            expected = str(Decimal(frozen.PI) * Decimal(frozen.F21))
        assert expected.startswith(out)
        assert out.startswith("9.688448220547")

    def test_normalized_factor(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "2", "1", "--digits", "40", "--plain")
        codef, factor, _ = run_cli(
            capsys, "ellipse", "2", "1", "--digits", "40", "--plain", "--normalized"
        )
        assert codef == 0
        assert frozen.F21.startswith(factor)

    def test_circle_normalized_exact(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "3", "3", "--digits", "12", "--normalized")
        assert code == 0
        assert out == "1.0000000000 0"  # exact value: no truncation marker

    def test_scientific_output_marks_truncation(self, capsys):
        # F(1, 1e-12) ~ 6.4e23 is printed in the scientific fallback
        argv = ("ellipse", "1", "1e-12", "--normalized", "--digits", "10")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == "6.366197723e23 ..."
        _, plain, _ = run_cli(capsys, *argv, "--plain")
        assert plain == "6.366197723e23"

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "2", "1", "--digits", "25", "--json")
        payload = json.loads(out)
        assert payload["command"] == "ellipse"
        assert payload["semi_major"] == "2"
        assert payload["eccentricity"].startswith("0.8660254037")
        assert payload["iterations"] >= 1
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out

    def test_axis_order_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ellipse", "1", "2")
        assert code == 2 and "semi_minor <= semi_major" in err

    def test_degenerate_axis_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "ellipse", "1", "0")
        assert code == 2

    def test_axis_ratio_below_working_precision_prints_4a(self, capsys):
        # (b/a)^2 = 1e-210 is resolved, but d0 = (1 - 1e-210)^(1/4) rounds to 1;
        # P = 4 (1 + 1.2e-208) truncates to 4 on every printed digit, not 3.999...
        code, out, err = run_cli(capsys, "ellipse", "1", "1e-105", "--digits", "50")
        assert (code, err) == (0, "")
        assert out == "4.0000000000 0000000000 0000000000 0000000000 000000000 ..."

    def test_axis_ratio_of_1e_400_matches_the_expansion_about_k_prime_0(self, capsys):
        # the remainder of the expansion is of order k'^4 ln(1/k') ~ 1e-1597,
        # so every one of the 1000 digits is checked
        code, out, _ = run_cli(capsys, "ellipse", "1", "1e-400", "--digits", "1000", "--plain")
        assert code == 0
        assert out == to_sig_digits(near_degenerate_perimeter("1", "1e-400", 1100), 1000)
        assert out.startswith("4." + "0" * 796 + "18")  # 4 + 1.84e-797
        # the eccentricity is below 1: its truncation reads 0.999..., not 1.000...
        code, out, _ = run_cli(capsys, "ellipse", "1", "1e-400", "--digits", "1000", "--json")
        assert json.loads(out)["eccentricity"] == "0." + "9" * 30

    def test_non_decimal_axis_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ellipse", "two", "1")
        assert code == 2

    def test_cubic_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "ellipse", "2", "1", "--algorithm", "cubic")
        assert code == 2

    def test_quad_and_quartic_agree(self, capsys):
        _, quartic, _ = run_cli(
            capsys, "ellipse", "3", "2", "--digits", "150", "--plain"
        )
        _, quad, _ = run_cli(
            capsys, "ellipse", "3", "2", "--digits", "150", "--plain",
            "--algorithm", "quad",
        )
        assert quartic == quad

    def test_eccentric_ellipse_still_converges(self, capsys):
        # z = 1 - 1e-8: the iteration budget is bumped for near-degenerate axes
        code, out, _ = run_cli(
            capsys, "ellipse", "10000", "1", "--digits", "60", "--plain"
        )
        assert code == 0
        assert out.startswith("40000.")  # P(a, b) -> 4a as b/a -> 0

    @pytest.mark.parametrize("offset", [0, 45, 70, 200, 499999999999990])
    def test_tiny_axes_give_the_digits_of_the_scaled_ellipse(self, capsys, offset):
        # b^2 would underflow from offset 45 on, and round to 0 from offset 70 on
        exp = -(500000000000000 + offset)
        code, out, _ = run_cli(capsys, "ellipse", f"3e{exp}", f"1e{exp}", "--digits", "60",
                               "--plain")
        _, unscaled, _ = run_cli(capsys, "ellipse", "3", "1", "--digits", "60", "--plain")
        assert code == 0
        mantissa, _, power = out.partition("e")
        assert mantissa.replace(".", "") == unscaled.replace(".", "")
        assert int(power) == exp + 1  # P(3, 1) = 13.36...

    def test_a_trace_far_from_one_reports_its_orders(self, capsys):
        # the run's trace tends to L(1), about 2.9e61; its orders are measured
        # on errors scaled to that size
        for algorithm in ("quad", "quartic"):
            code, out, _ = run_cli(capsys, "ellipse", "1", "1e-30", "--digits", "60", "--json",
                                   "--algorithm", algorithm)
            assert code == 0 and len(json.loads(out)["orders"]) >= 3

    def test_huge_circle(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "1e999999999999999", "1e999999999999999",
                               "--digits", "60", "--plain")
        _, unit, _ = run_cli(capsys, "ellipse", "1", "1", "--digits", "60", "--plain")
        assert code == 0
        assert out == unit + "e999999999999999"

    def test_axes_at_the_exponent_floor(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "1e-1000000000000000", "1e-1000000000000000")
        assert code == 0
        assert out.startswith("6.2831853071") and out.endswith("e-1000000000000000 ...")


class TestVerifyCommand:
    def test_pi(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pi", "--digits", "300")
        assert code == 0
        assert "agree: >=" in out and "PASS" in out

    def test_custom_cubic(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "custom", "--w", "2", "--algorithm", "cubic",
            "--digits", "150",
        )
        assert code == 0

    def test_ellipse(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ellipse", "2", "1", "--digits", "200")
        assert code == 0
        assert "series oracle" in out and "PASS" in out

    def test_ellipse_slow_oracle_warns(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ellipse", "1", "0.05", "--digits", "100")
        assert code == 0
        assert "warning" in out and "series oracle skipped" in out

    def test_ellipse_warning_names_the_refusal_it_caught(self, capsys, monkeypatch):
        # z = 3/4 is far below 0.99, and the series sums at h = 1/9, but a
        # 100-term cap still refuses it up front
        monkeypatch.setattr(series, "_MAX_TERMS", 100)
        code, out, _ = run_cli(capsys, "verify", "ellipse", "2", "1", "--digits", "50")
        assert code == 0
        assert "(vs quadratic iteration" in out and "PASS" in out
        warning = next(line for line in out.splitlines() if line.startswith("warning:"))
        assert "cannot certify in 100 terms" in warning and "0.99" not in warning

    def test_paper_example_probe(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "custom", "--w", "1/2", "--algorithm", "cubic",
            "--digits", "150", "--paper-example",
        )
        assert code == 0
        assert "0.904622975044737105902076526" in out
        assert "supports the general limit formula" in out

    def test_paper_example_takes_gamma23_from_its_own_run(self, capsys, monkeypatch):
        # the probe forms Gamma(1/3) off the cubic w = 1/2 run it probes, and
        # runs no chain of its own
        import replica.cli as cli_mod

        runs = []

        def counted(kind, w, ctx):
            runs.append((kind.order, w))
            return run_borwein(kind, w, ctx)

        monkeypatch.setattr(cli_mod, "run_borwein", counted)
        for form in ((), ("--json",)):
            runs.clear()
            code, _, _ = run_cli(capsys, "verify", "custom", "--w", "1/2", "--algorithm", "cubic",
                                 "--digits", "60", "--paper-example", *form)
            assert code == 0
            assert runs == [(3, Fraction(1, 2))]

    def test_paper_example_needs_cubic_half(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "pi", "--digits", "100", "--paper-example"
        )
        assert code == 2

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pi", "--digits", "200", "--json")
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["agree_digits"] >= 200
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out

    def test_trace_fills_oracle_digits(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pi", "--digits", "150", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["oracle_digits"] >= 150

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        import replica.cli as cli_mod

        monkeypatch.setattr(cli_mod, "couple_product", lambda s, w, ctx: Decimal("0.5"))
        code, out, _ = run_cli(capsys, "verify", "pi", "--digits", "100")
        assert code == 4
        assert "FAIL" in out

    @pytest.mark.parametrize("target", ["gamma34", "gamma14", "gamma13"])
    def test_a_wrong_k_moves_no_byte(self, capsys, monkeypatch, target):
        # constant and verify run the recipe's own w, so no printed number reads K
        requests = [("constant", target, "--digits", "100", *form)
                    for form in ((), ("--plain",), ("--json",), ("--trace",))]
        requests += [("verify", target, "--digits", "100", *form)
                     for form in ((), ("--json",), ("--trace",))]
        right = [run_cli(capsys, *argv) for argv in requests]
        k = RunResult.k.fget
        monkeypatch.setattr(RunResult, "k", property(lambda run: k(run) * Decimal("1.0000000001")))
        assert [run_cli(capsys, *argv) for argv in requests] == right
        assert all(code == 0 for code, _, _ in right)

    def test_unknown_target(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "tau", "--digits", "100")
        assert code == 2

    def test_ellipse_needs_axes(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "ellipse", "--digits", "100")
        assert code == 2

    @pytest.mark.parametrize("axes, digits", [(("1", "0.05"), "1000"), (("1", "1e-30"), "950")])
    def test_fallback_oracle_runs_at_its_own_budget(self, capsys, axes, digits):
        code, out, _ = run_cli(capsys, "verify", "ellipse", *axes, "--digits", digits)
        assert code == 0
        assert "quadratic iteration" in out and out.endswith("PASS")


# Flags that would change nothing are refused rather than ignored.
NO_OP_FLAGS = [
    "verify ellipse 2 1 --paper-example",
    "verify custom --w 1/2 --algorithm cubic --paper-example --trace",
    "verify ellipse 2 1 --w 3",
    "verify pi --plain",
    "orders --plain",
]


@pytest.mark.parametrize("command", NO_OP_FLAGS)
def test_no_op_flag_is_refused(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 2 and out == ""
    assert err


class TestOrdersCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "orders", "--algorithm", "quad", "--w", "1",
                               "--digits", "200")
        assert code == 0
        assert "orders tend to 2" in out
        assert "err_exp" in out

    def test_requires_100_digits(self, capsys):
        code, _, err = run_cli(capsys, "orders", "--algorithm", "quad", "--digits", "99")
        assert code == 2 and ">= 100" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "orders", "--algorithm", "quartic", "--w", "1",
                               "--digits", "150", "--json")
        payload = json.loads(out)
        assert payload["command"] == "orders"
        assert payload["orders"]
        rows_with_order = [r for r in payload["iterations"] if "order" in r]
        assert len(rows_with_order) == len(payload["orders"])

    def test_w_zero_is_not_replaced_by_one(self, capsys):
        code, out, _ = run_cli(capsys, "orders", "--w", "0", "--digits", "100")
        assert code == 0
        assert out.startswith("orders: algorithm=quartic w=0 digits=100\n")

    def test_the_largest_w_gives_a_table(self, capsys):
        # the limit is about 10**(7.2e14): its errors leave the default context
        code, out, err = run_cli(capsys, "orders", "--w", "10000000000000000", "--digits", "100",
                                 "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["iterations"]) > 3


# Every command and output form, at w = 1, -1000 and 2e7 (a limit near 1e1400000).
CONTEXT_FREE_REQUESTS = [
    *(f"constant custom --w={w} --digits 20 {form}".rstrip()
      for w in ("1", "-1000", "20000000") for form in ("", "--plain", "--json", "--trace")),
    *(f"verify custom --w={w} --digits 20 {form}".rstrip()
      for w in ("1", "-1000", "20000000") for form in ("", "--json", "--trace")),
    *(f"orders --w={w} --digits 100 {form}".rstrip()
      for w in ("1", "-1000", "20000000") for form in ("", "--json")),
    *(f"{command} --digits 30 {form}".rstrip()
      for command in ("constant gamma14", "ellipse 2 1", "ellipse 2 1 --normalized")
      for form in ("", "--plain", "--json", "--trace")),
    *(f"verify {target} --digits 30 {form}".rstrip()
      for target in ("pi", "ellipse 2 1", "ellipse 1 0.005") for form in ("", "--json", "--trace")),
    "verify custom --w 1/2 --algorithm cubic --digits 30 --paper-example",
    "verify custom --w 1/2 --algorithm cubic --digits 30 --paper-example --json",
    "constant tau", "ellipse x 1", "constant custom --w abc",
]


@pytest.mark.parametrize("command", CONTEXT_FREE_REQUESTS)
def test_output_does_not_depend_on_the_callers_decimal_context(capsys, command):
    """A request prints the same bytes under a 6-digit context with a narrow
    exponent range, and under one that traps every rounding but no invalid
    operation, as under Python's default context."""
    outcomes = []
    for context in (decimal.Context(), decimal.Context(prec=6, Emin=-60, Emax=60),
                    decimal.Context(traps=[decimal.Inexact])):
        with localcontext(context):
            outcomes.append(run_cli(capsys, *command.split()))
    assert outcomes[0][0] in (0, 2) and outcomes[1] == outcomes[2] == outcomes[0]


def _scaled_oracle(s, w, ctx):
    """couple_product times 1 + 1e-5: an oracle that disagrees from the 5th digit."""
    with ctx.local():
        return couple_product(s, w, ctx) * (1 + Decimal("1e-5"))


@pytest.mark.parametrize("w", [20000000, -20000000])
def test_a_wrong_oracle_fails_verify_at_a_limit_outside_the_default_range(capsys, monkeypatch, w):
    # the limit is about 10**(0.07 w): 1e-1400000 underflowed to an exact
    # agreement and 1e1400000 overflowed, in the default context
    import replica.cli as cli_mod

    run = run_borwein(QUARTIC, Fraction(w), make_context(20, QUARTIC.order))
    assert matching_digits(run.value, _scaled_oracle(Fraction(1, 2), Fraction(w), run.ctx)) < 20
    monkeypatch.setattr(cli_mod, "couple_product", _scaled_oracle)
    code, out, _ = run_cli(capsys, "verify", "custom", f"--w={w}", "--digits", "20")
    assert code == 4 and out.endswith("FAIL: oracle disagreement")


@pytest.mark.parametrize("command, measured", [
    ("constant pi --digits 30", 0), ("constant pi --digits 30 --plain", 0),
    ("ellipse 2 1 --digits 30", 0), ("verify pi --digits 30", 0),
    ("verify pi --digits 30 --json", 0), ("constant pi --digits 30 --json", 1),
    ("constant pi --digits 30 --trace", 1), ("orders --digits 100", 1),
    ("orders --digits 100 --json", 1),
])
def test_a_run_measures_its_orders_only_when_they_are_printed(capsys, monkeypatch, command,
                                                              measured):
    calls = []

    def counted(*args):
        calls.append(args)
        return error_table(*args)

    error_table = algorithms.error_table
    monkeypatch.setattr(algorithms, "error_table", counted)
    assert run_cli(capsys, *command.split())[0] == 0
    assert len(calls) == measured


@pytest.mark.parametrize("command, sums", [
    ("constant pi --digits 50", 0), ("ellipse 2 1 --digits 50", 0), ("orders --digits 100", 0),
    ("verify pi --digits 50", 1), ("verify gamma14 --digits 50", 1),
    ("verify custom --w 1/3 --algorithm quad --digits 50", 1), ("verify ellipse 2 1 --digits 50", 1),
    ("verify custom --w 1/2 --algorithm cubic --digits 50 --paper-example", 1),
    ("verify ellipse 1 0.005 --digits 50", 0),  # refused before any sum
])
def test_each_oracle_is_one_pass_of_the_term_loop(capsys, monkeypatch, command, sums):
    """``couple_product`` and ``ellipse_factor`` each sum in exactly one pass of
    ``series._sums``, the term loop, and a refused oracle in none."""
    calls = []

    def counted(*args):
        calls.append(args)
        return term_loop(*args)

    term_loop = series._sums
    monkeypatch.setattr(series, "_sums", counted)
    assert run_cli(capsys, *command.split())[0] == 0
    assert len(calls) == sums


class TestArgumentHandling:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_non_convergence_exits_3(self, capsys, monkeypatch):
        import replica.cli as cli_mod
        from replica import NonConvergenceError

        def stalled(kind, w, ctx):
            raise NonConvergenceError("stalled run")

        monkeypatch.setattr(cli_mod, "run_borwein", stalled)
        code, _, err = run_cli(capsys, "constant", "pi", "--digits", "40")
        assert code == 3 and err == "error: stalled run\n"

    def test_main_is_reentrant(self, capsys, monkeypatch):
        """Successes, argparse exits and handler errors interleaved in one
        process give the bytes of a freshly built parser, from one parser."""
        import replica.cli as cli_mod
        from replica import NonConvergenceError

        calls = [
            "constant pi --digits 20", "--help", "constant pi --digits 20 --plain",
            "constant --help", "constant pi --digits 20 --json", "",
            "constant pi --digits 20 --trace", "constant pi --digits many",
            "ellipse 2 1 --digits 20", "constant pi --json --plain",
            "ellipse 2 1 --digits 20 --plain", "constant tau",
            "ellipse 2 1 --digits 20 --json", "verify pi --digits 20",
            "ellipse 2 1 --digits 20 --trace", "verify pi --digits 20 --json",
            "verify pi --digits 20 --trace", "orders --digits 100",
            "orders --digits 100 --json", "constant pi --digits 20",
        ]

        def outcomes():
            return [run_cli(capsys, *argv.split()) for argv in calls]

        build = cli_mod._build_parser
        with monkeypatch.context() as fresh:
            fresh.setattr(cli_mod, "_build_parser", build.__wrapped__)  # one parser per call
            expected = outcomes()
        build.cache_clear()
        assert outcomes() == expected
        assert build.cache_info().misses == 1

        def stalled(kind, w, ctx):
            raise NonConvergenceError("stalled run")

        monkeypatch.setattr(cli_mod, "run_borwein", stalled)  # after the parser exists
        code, _, err = run_cli(capsys, "constant", "pi", "--digits", "40")
        assert code == 3 and err == "error: stalled run\n"
        assert build.cache_info().misses == 1

    @pytest.mark.parametrize("command, digits", [
        ("constant pi", 50), ("ellipse 2 1", 50), ("verify pi", 50), ("orders", 1000),
    ])
    def test_digits_default_per_command(self, capsys, command, digits):
        code, out, _ = run_cli(capsys, *command.split(), "--json")
        assert code == 0
        assert json.loads(out)["digits"] == digits

    @pytest.mark.parametrize("command, flags", [
        (command, pair)
        for command, forms in (
            ("constant pi", ("--plain", "--json", "--trace")),
            ("ellipse 2 1", ("--plain", "--json", "--trace")),
            ("verify pi", ("--json", "--trace")),
        )
        for pair in itertools.combinations(forms, 2)
    ])
    def test_two_output_forms_are_refused(self, capsys, command, flags):
        code, out, err = run_cli(capsys, *command.split(), "--digits", "20", *flags)
        assert code == 2 and out == ""
        assert "not allowed with argument" in err

    def test_axes_on_a_constant_target_are_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "pi", "3", "4", "--digits", "20")
        assert code == 2 and out == ""
        assert err == "error: verify pi takes no axes\n"

    @pytest.mark.parametrize("command", [
        "constant custom --w 1/0",
        "verify custom --w 1/0",
        "orders --w 1/0",
        "constant custom --w 1e20",
        "constant custom --w=-1e20",
        "ellipse 1e100000000000000000 1",
        # axes below the exponent floor, which the context would round
        "ellipse 3.14159e-1000000000000108 1.23456e-1000000000000108 --normalized --digits 30",
        "verify ellipse 3.14159e-1000000000000108 1.23456e-1000000000000108 --digits 30",
        "ellipse 1e-1000000000000000000 1e-1000000000000000000",
        "ellipse 1 1e-1000000000000001",
    ])
    def test_out_of_range_input_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "out of range" in err
        assert err.count("\n") == 1 and "decimal." not in err

    @pytest.mark.parametrize("w, message", [
        ("1e40000000", "w is out of range: |w| must be at most 1e16"),
        ("-1e40000000", "w is out of range: |w| must be at most 1e16"),
        ("1e-40000000", "w must have a denominator dividing 12"),
    ])
    @pytest.mark.parametrize("command", ["constant custom", "verify custom", "orders",
                                         "constant pi"])
    def test_an_exponent_form_w_exits_at_once(self, capsys, command, w, message):
        # Fraction(w) would build the integer 10**40000000 first, for minutes
        started = perf_counter()
        code, out, err = run_cli(capsys, *command.split(), f"--w={w}", "--digits", "100")
        assert perf_counter() - started < 0.1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("w", ["abc", "nan", "inf", "1e9999999999999999999999", "1/x"])
    def test_a_w_that_is_not_a_number_exits_2(self, capsys, w):
        code, out, err = run_cli(capsys, "constant", "custom", f"--w={w}", "--digits", "20")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "decimal." not in err and "Conversion" not in err

    @pytest.mark.parametrize("command", ["constant custom", "orders"])
    def test_a_negative_fractional_w_needs_equals(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split(), "--w=-1/2", "--digits", "100")
        assert code == 0 and out
        code, out, err = run_cli(capsys, *command.split(), "--w", "-1/2", "--digits", "100")
        assert code == 2 and out == ""
        assert "argument --w: expected one argument" in err

    @pytest.mark.parametrize("axes, algorithm", [
        (("1", "0"), "cubic"), (("1", "-2"), "quad"), (("1", "2"), "cubic"), (("2", "1"), "cubic"),
    ])
    def test_ellipse_errors_are_the_library_errors(self, capsys, axes, algorithm):
        kind = AlgorithmKind({"quad": 2, "cubic": 3}[algorithm])
        a, b = map(Decimal, axes)
        with pytest.raises(ReplicaError) as raised:
            run_ellipse(kind, a, b, make_context(20, kind.order))
        code, out, err = run_cli(capsys, "ellipse", *axes, "--algorithm", algorithm)
        assert code == 2 and out == ""
        assert err == f"error: {raised.value}\n"


# Exit code and sha256 of stdout for the README's CLI examples plus the
# scientific fallback with its truncation marker. A refactor of the CLI must
# keep every byte; an intended output change updates the digest here.
GOLDEN = [
    ("constant pi --digits 1000", 0,
     "c849b645c5973dfc4e19525a2f7941239084a7ba382edfcc56d7cd26369ad6f0"),
    ("constant gamma14 --digits 500 --json", 0,
     "185039bf249795c6907c902bc2f602163b6e9cf3d068b7a3c34f1aef04ec1535"),
    ("constant custom --w 3 --algorithm quad --digits 100", 0,
     "ae35303cde031c2ea434d9036b47937632ecbf1b815d52d833fcb83aef7b0967"),
    ("ellipse 2 1 --digits 500", 0,
     "b2827ad93058d1b1344a6d1dec1ebda24f702c2045be799469038501115b306f"),
    ("ellipse 2 1 --normalized", 0,
     "0cf28e4141686acaf48f110190c565fa696d26b50a61b5baab69a1de4ac4fcd0"),
    ("verify pi --digits 1000", 0,
     "d67f25b11f716bcd69402c11975bf7589e85132e03064afa83a34ba5756fed53"),
    ("verify ellipse 2 1 --digits 500", 0,
     "c62961c28c25e6b3e0c52490cdd24b34aa89ce29b2d9ef1176d1c41b61d3e5ee"),
    ("verify custom --w 1/2 --algorithm cubic --digits 200 --paper-example", 0,
     "71dbf0de8dad4a4f63baf24dd4e281d092b486aba21c0d9cf1726844a8c2af5e"),
    ("orders --algorithm quartic --w 1 --digits 1000", 0,
     "38f5390342da5907d25b24a2fb89de18c73d0c99004ea0b82a5b104dd2e4e8f2"),
    ("ellipse 1 1e-12 --normalized --digits 10", 0,
     "76022fffd5286056008776f53c9aec949ad7e22fe3d6d85db5ab3925f585e540"),
    # One case per command and output form the cases above leave out.
    ("constant pi --digits 40 --trace", 0,
     "36ffa8d652d0c19533e28df0f1be0b75c3792fd3c5b0a5925c2bf5956cabe243"),
    ("constant gamma13 --digits 60 --plain", 0,
     "55e7641e92511b0a6b96922ab89a8f6b783984ed2ab2c6106b8e44551dcccf2e"),
    ("ellipse 2 1 --digits 60 --json", 0,
     "caed759e7f6612f239f7cd9175b35104a26bf595313fe8db818a4e53dea6b979"),
    ("ellipse 1 1e-30 --digits 60 --trace", 0,
     "9b24074691f4a98ed35b74277920bb731ca00ad988bd373b58af65e21bc3d35f"),
    ("verify pi --digits 80 --json", 0,
     "ea5ee07fa20f490b81609c5739fe3e38f0c4a0a2017d09d6c4077c89cdc0b8a9"),
    ("verify gamma13 --digits 80 --trace", 0,
     "783ba5f26b32ae837ed6097e4faf576f8e0306a46cb2fca74aa18c635501ba7a"),
    # z > 0.99: the other perimeter family is the oracle
    ("verify ellipse 1 0.005 --digits 100", 0,
     "9e4e26d6d98afc2e671d40ba322241da8733919ca05d9651bfba896773484393"),
    ("verify ellipse 1 0.005 --digits 100 --json", 0,
     "09e17ba370c943762a1c30de49f77d894686a26a20cf5222650eae804e7e71d8"),
    ("verify custom --w 1/2 --algorithm cubic --digits 120 --paper-example --json", 0,
     "8a6319481a32ec2b72d4deb89562ca8d4abaa6f79ce6a67e8cdd167ffebf8ced"),
    ("orders --digits 200 --json", 0,
     "ee45fc1974dd5febd74de387434234adf48f3fe02b279cf8b7011fdb4e1ef638"),
    ("ellipse 2 1 --digits 60 --plain", 0,
     "f386174861bc066c70753575b3b7db80cb7d87bb2c1d96448fd34ee30f8f8102"),
    ("verify ellipse 2 1 --digits 60 --trace", 0,
     "4c0a06c3b4c599180679d1d16bed660f52976057cd15b15852938248b67ab07d"),
    # the fallback oracle in trace form
    ("verify ellipse 1 0.005 --digits 100 --trace", 0,
     "a0cc131c4c3001bc0d60cc92e38fb98e26b6110305a5587f5f487385ad9d4ec9"),
    # Chains carried in binary fixed point: every family, an eccentric start
    # (c0 = 80 000), a negative w, rows in --trace and orders.
    ("verify gamma13 --digits 2000 --json", 0,
     "d25d482f028330ce3cd1edd69f0a16532d986e48265d8fd9f8d2a463b728d2aa"),
    ("verify ellipse 1 0.005 --digits 3000", 0,
     "8f989778bf441fb7fb6bc5bd0d94b50214b2674663216820fb6a26819ef1ad26"),
    ("constant pi --algorithm quad --digits 5000 --plain", 0,
     "f48eb40dd3af22dd5595638ae201bf52cbb0557f128bd01c36941104cbb8ca74"),
    ("constant custom --w=-7/2 --algorithm quartic --digits 3000 --trace", 0,
     "da571ddc8b203d41d8e8e35feabd7fc06f6cc2d03bedec6e479f4cfc3ae872b8"),
    ("orders --w 1/3 --algorithm cubic --digits 2000", 0,
     "b024f5339e88a2e468846ad128368cee63bd7e481261f139472a3238ac5df4d3"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output_bytes(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: every command and output form at 50 to 200 digits, and the README's examples
REENTRANT_REQUESTS = [
    "constant pi --digits 50", "constant gamma34 --algorithm quartic --digits 120 --plain",
    "constant gamma14 --algorithm quad --digits 200 --json", "constant gamma23 --digits 80 --trace",
    "constant gamma13 --digits 150", "constant custom --w=-7/2 --algorithm quad --digits 60 --json",
    "constant custom --w 1/3 --algorithm quartic --digits 100 --trace",
    "constant custom --w 2 --algorithm cubic --digits 90 --plain",
    "constant custom --w 1e7 --algorithm quartic --digits 50",
    "ellipse 2 1 --algorithm quad --digits 70 --json", "ellipse 1 1e-30 --algorithm quartic --digits 110 --trace",
    "ellipse 3 2 --normalized --digits 130 --plain", "ellipse 1 0.005 --algorithm quartic --digits 200",
    "verify pi --digits 60 --json", "verify gamma14 --digits 100 --trace", "verify gamma23 --digits 50",
    "verify gamma34 --algorithm quartic --digits 140", "verify gamma13 --digits 90 --json",
    "verify ellipse 2 1 --digits 120 --trace", "verify ellipse 1 0.005 --digits 70 --json",
    "verify custom --w 1/2 --algorithm cubic --digits 100 --paper-example",
    "verify custom --w 3 --algorithm quad --digits 60", "orders --digits 100",
    "orders --w 1/3 --algorithm quartic --digits 150 --json",
    "orders --w=-1000 --algorithm cubic --digits 120", "constant tau", "ellipse x 1",
    "constant custom --w abc", "constant pi --digits 0",
    *(command for command, _, _ in GOLDEN[:10]),
]


def test_requests_print_the_same_bytes_twice_in_one_process(capsys):
    """Per-precision memos and per-object caches carry nothing from one request
    to another: the requests print the same bytes run forwards from empty
    Newton schedules and then backwards."""
    precision._newton_schedule.cache_clear()
    forwards = {argv: run_cli(capsys, *argv.split()) for argv in REENTRANT_REQUESTS}
    backwards = {argv: run_cli(capsys, *argv.split()) for argv in reversed(REENTRANT_REQUESTS)}
    assert backwards == forwards
    assert sum(code == 0 for code, _, _ in forwards.values()) == len(REENTRANT_REQUESTS) - 4


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("command", [
    "constant pi --digits 30", "ellipse 2 1 --digits 30 --json", "verify pi --digits 60",
    "orders --digits 100",
])
def test_module_entry_point_runs_on_the_standard_library_alone(capsys, command):
    """``python -S -m replica.cli`` prints what ``main`` prints in-process.

    ``-S`` hides site-packages, so an import beyond the standard library fails here."""
    ran = subprocess.run(
        [sys.executable, "-S", "-m", "replica.cli", *command.split()],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    code, out, err = main(command.split()), *capsys.readouterr()
    assert (ran.returncode, ran.stdout, ran.stderr) == (code, out, err)


@pytest.mark.parametrize("command", [
    "constant pi --digits 20000", "constant pi --digits 30", "verify pi --digits 60",
    "orders --digits 100", "--help",
])
def test_closed_reader_ends_the_request_quietly(command):
    """A reader that closed stdout before the first write gets exit 0 and an empty stderr.

    The pipe's read end is closed before the child starts, so every write the
    child makes fails: inside a print for 20000 digits, at the final flush otherwise."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        ran = subprocess.run(
            [sys.executable, "-S", "-m", "replica.cli", *command.split()],
            env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (ran.returncode, ran.stderr) == (0, "")
