"""The repository's benchmark: run one workload, check every answer, print its metrics.

    python3 bench/run.py --workload scale --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload interactive --seed 1 --seconds 1 --trace 1 --smoke

Workloads (see ``workloads.py`` for why each exists): ``scale``, ``verify``
and ``interactive``. Each runs in a child process of its own (``worker.py``)
as a closed loop of one client calling ``replica.cli.main`` in-process. The
requests come from ``--seed``; every printed digit is checked against the
frozen ``reference.json``.

End-to-end metrics (``--trace 0``, tracing off). A run makes a fixed number
of passes for its ``--seconds`` (``workloads.pass_count``), whatever the speed
of the code, and every pass has the same mix of requests, so each of the
first three is taken per pass and reported as the median over the passes:
  digits_per_s    digits of correctly answered requests / calibrated seconds
  request_p50_s   median calibrated request latency
  request_p90_s   90th percentile calibrated request latency (a pass of
                  ``scale`` or ``verify`` has only 7 requests, so there these
                  two follow single requests rather than a distribution)
  setup_s         median over SETUP_PROBES fresh processes of the calibrated
                  time of interpreter start, ``import replica`` and generating
                  the first pass
  peak_rss_mib    peak resident memory of the measuring process

Calibrated seconds are wall seconds scaled to a machine of constant speed:
a time is multiplied by CALIBRATION_REFERENCE_S / c, where c is the time of a
fixed replica-independent kernel (``worker.calibration_kernel``) measured
next to it: the median over the pass for request times, the run just before
it for a set-up probe. On a shared machine this cut the spread of identical
scale passes from 11% to 7%; the unscaled values are in the result file.

Per-layer metrics (``--trace 1``) come from a separate traced run of the first
pass (see ``tracer.py``), plus ``trace.overhead_ratio``: the traced calibrated
time of that pass over its untraced calibrated time in a fresh process. The traced run
does the same fixed work whatever ``--seconds`` says, so its counts repeat
exactly for a seed.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
A result file (environment, every metric including ``failed_ratio``, one row
per request with its command, digits, seconds and, when traced, steps) goes to
``bench/results/`` or ``--out``; a traced run also writes its spans next to it.
When the program cannot be run at all, or a traced run finds a traced
function missing (its metrics would read 0), the exit code is 1 and no result
is printed. ``--smoke`` runs the same path and checks at tiny sizes (1-2 s).
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYER_METRICS
from worker import OVERRUN, calibration_kernel
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
# This and the other worker timeouts keep a whole run under 180 s even when a worker hangs.
PROBE_TIMEOUT = 10

END_TO_END = {
    "digits_per_s": "digits/s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}
#: median calibration kernel time on the 2-vCPU machine the bounds were set on
CALIBRATION_REFERENCE_S = 0.0177


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> dict | None:
    """Run worker.py to completion; its last stdout line is its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]) if lines else None


def setup_probes(common: list[str]) -> list[dict]:
    """Wall seconds of SETUP_PROBES set-up processes, each with a calibration just before it."""
    probes = []
    for _ in range(SETUP_PROBES):
        calibration = calibration_kernel()
        started = perf_counter()
        run_worker([*common, "--mode", "setup"], PROBE_TIMEOUT)
        probes.append({"wall": perf_counter() - started, "calibration": calibration})
    return probes


def calibrated(timing: dict) -> float:
    """Calibrated seconds of a timing with its own calibration kernel time."""
    return timing["wall"] * CALIBRATION_REFERENCE_S / timing["calibration"]


def percentile(values: list[float], fraction: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def end_to_end(common: list[str], seconds: float) -> tuple[dict, list[dict], dict]:
    probes = setup_probes(common)
    result = run_worker([*common, "--seconds", str(seconds), "--mode", "measure"], OVERRUN * seconds + 60)
    rows, passes = result["rows"], result["passes"]

    def speed_metrics(factors: list[float]) -> dict:
        """Per-pass rate and latency percentiles, each a median over the passes."""
        rates, p50, p90 = [], [], []
        for i, (pass_, factor) in enumerate(zip(passes, factors)):
            pass_rows = [row for row in rows if row["pass"] == i]
            latencies = [row["seconds"] * factor for row in pass_rows]
            rates.append(sum(row["digits"] for row in pass_rows if row["ok"]) / (pass_["wall"] * factor))
            p50.append(statistics.median(latencies))
            p90.append(percentile(latencies, 0.9))
        return {
            "digits_per_s": statistics.median(rates),
            "request_p50_s": statistics.median(p50),
            "request_p90_s": statistics.median(p90),
        }

    metrics = {
        **speed_metrics([CALIBRATION_REFERENCE_S / p["calibration"] for p in passes]),
        "setup_s": statistics.median(calibrated(probe) for probe in probes),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    uncalibrated = {**speed_metrics([1.0] * len(passes)), "setup_s": statistics.median(p["wall"] for p in probes)}
    extra = {"uncalibrated": uncalibrated, "passes": passes, "setup_probes": probes}
    return metrics, rows, extra


def per_layer(common: list[str], seconds: float) -> tuple[dict, list[dict], dict]:
    timeout = seconds + 35
    plain = run_worker([*common, "--seconds", str(seconds), "--mode", "measure", "--passes", "1"], timeout)
    traced = run_worker([*common, "--mode", "trace"], timeout)
    if traced["missing"]:
        raise WorkerError(f"traced functions not found in replica: {', '.join(traced['missing'])}")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = calibrated(traced["passes"][0]) / calibrated(plain["passes"][0])
    rows = plain["rows"]
    for row, traced_row, steps in zip(rows, traced["rows"], traced["steps"]):
        row["steps"] = steps
        row["traced_seconds"] = traced_row["seconds"]
        row["traced_ok"] = traced_row["ok"]
    extra = {"spans": traced["spans"]}
    return metrics, rows, extra


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "libmpdec": decimal.__libmpdec_version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same path and checks")
    parser.add_argument("--out", type=Path, help="result file (default bench/results/...)")
    args = parser.parse_args(argv)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", "smoke" if args.smoke else "full"]
    try:
        if args.trace:
            metrics, rows, extra = per_layer(common, args.seconds)
            units = PER_LAYER
        else:
            metrics, rows, extra = end_to_end(common, args.seconds)
            units = END_TO_END
    except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {args.workload} could not be run: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        failed = sum(not row["ok"] for row in rows) + sum(not row["traced_ok"] for row in rows)
        attempted = 2 * len(rows)
    else:
        failed = sum(not row["ok"] for row in rows)
        attempted = len(rows)
    spans = extra.pop("spans", None)
    out = args.out or HERE / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {**metrics, "failed_ratio": failed / attempted},
        **extra,
        "rows": rows,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        fields = ["name", "start", "end", "parent", "request"]
        out.with_name(out.stem + "-spans.json").write_text(json.dumps({"fields": fields, "spans": spans}) + "\n")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
