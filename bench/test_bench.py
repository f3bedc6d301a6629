"""Tests of the benchmark itself, at smoke size (about ten seconds in all)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, count_steps  # noqa: E402


def run_bench(workload: str, trace: int, out: Path | None, cwd: Path = ROOT):
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    if out is not None:
        args += ["--out", str(out)]
    return subprocess.run(args, capture_output=True, text=True, timeout=120, cwd=cwd)


def summary_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    return summary


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, workload):
    out = tmp_path / "result.json"
    summary = summary_of(run_bench(workload, 0, out))
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    report = json.loads(out.read_text())
    assert report["metrics"]["failed_ratio"] == 0
    assert {"python", "libmpdec", "nproc", "seed"} <= set(report["environment"])
    assert all({"command", "digits", "seconds"} <= set(row) for row in report["rows"])


def test_traced_run_reports_every_layer_and_repeats_its_counts(tmp_path):
    units = declared("per_layer")
    runs = []
    for i in range(2):
        out = tmp_path / f"trace{i}.json"
        summary = summary_of(run_bench("interactive", 1, out))
        assert summary["correct"]
        assert {name: m["unit"] for name, m in summary["metrics"].items()} == units
        runs.append(summary["metrics"])
        report = json.loads(out.read_text())
        assert all(isinstance(row["steps"], int) for row in report["rows"])
        assert out.with_name(out.stem + "-spans.json").exists()
    counts = [{n: m["value"] for n, m in run.items() if units[n] == "count"} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["algorithms.steps"] > counts[0]["algorithms.confirm_steps"] > 0


def test_scale_never_reaches_the_series_oracle(tmp_path):
    metrics = summary_of(run_bench("scale", 1, tmp_path / "scale.json"))["metrics"]
    assert metrics["series.evaluate_series.calls"]["value"] == 0
    assert metrics["precision.nth_root.calls"]["value"] > 0


def test_corrupted_reference_digit_raises_failed_ratio():
    main = worker.import_cli()
    requests = workloads.generate("scale", 7, 0, "smoke")
    references = answers.load_references()
    rows = worker.run_pass(main, requests, references)["rows"]
    assert sum(not row["ok"] for row in rows) == 0

    exponent, digits = references["pi"]
    references["pi"] = (exponent, digits[:20] + str((int(digits[20]) + 1) % 10) + digits[21:])
    rows = worker.run_pass(main, requests, references)["rows"]
    failed = [row for row in rows if not row["ok"]]
    assert len(failed) / len(rows) > 0
    assert all(row["command"].startswith("constant pi ") for row in failed)
    assert all(row["problem"] == "wrong digit at position 20" for row in failed)


def test_raising_request_fails_alone():
    requests = workloads.generate("scale", 7, 0, "smoke")
    real = worker.import_cli()

    def main(argv):
        if argv[1] == "gamma13":
            raise ZeroDivisionError("regression")
        return real(argv)

    rows = worker.run_pass(main, requests, answers.load_references())["rows"]
    failed = [row for row in rows if not row["ok"]]
    assert [row["problem"] for row in failed] == ["raised ZeroDivisionError: regression"]
    assert len(rows) == len(requests)


def test_missing_traced_function_fails_the_run(monkeypatch, capsys):
    import run

    def fake_worker(args, timeout):
        if "trace" in args:
            return {"missing": ["replica.precision.nth_root"]}
        return {"passes": [{"wall": 1.0, "calibration": 0.02}], "rows": []}

    monkeypatch.setattr(run, "run_worker", fake_worker)
    code = run.main(["--workload", "scale", "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "replica.precision.nth_root" in err


def test_pass_count_is_fixed_by_seconds():
    assert workloads.pass_count("scale", 30) == 2
    assert workloads.pass_count("verify", 30) == 5
    assert workloads.pass_count("interactive", 30) == 10
    assert workloads.pass_count("scale", 0.2) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("scale", 0, None, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_confirm_steps_counts_steps_after_the_first_small_delta():
    # The quartic trace at 30k digits ends [-22349, None, None]: one step only confirms.
    trace = [SimpleNamespace(delta_exp=e) for e in (None, -3, -15, -80, -22349, None, None)]
    assert count_steps(trace, 30_000) == (6, 1)
    assert count_steps(trace[:-2], 30_000) == (4, 0)


def test_tracer_restores_every_binding():
    worker.import_cli()
    import replica.cli
    import replica.precision
    import replica.transforms

    before = (replica.cli.nth_root, replica.transforms.nth_root, dict(replica.transforms.DESCEND))
    with Tracer().installed():
        assert replica.transforms.DESCEND[4] is not before[2][4]
        assert replica.cli.nth_root is not before[0]
    assert (replica.cli.nth_root, replica.transforms.nth_root, dict(replica.transforms.DESCEND)) == before
    assert replica.cli.nth_root is replica.precision.nth_root


def test_significand_reads_every_output_form():
    assert answers.significand("3.14159") == (0, "314159")
    assert answers.significand("0.00123") == (-3, "123")
    assert answers.significand("40.01") == (1, "4001")
    assert answers.significand("6.366e119") == (119, "6366")
