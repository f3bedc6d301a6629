"""One benchmark process: runs one workload in-process and prints its raw results.

    python3 bench/worker.py --workload scale --seed 1 --seconds 30 --mode measure

``run.py`` starts this script once per workload (and for the set-up probes),
so set-up time and peak memory belong to that workload alone. The load is a
closed loop: one client calls ``replica.cli.main(argv)`` on one thread, one
request at a time, with stdout and stderr captured. Answers are checked after
each pass, outside the timed region.

Modes:
  setup    import replica and generate the first pass, then exit
  measure  run the passes of ``--seconds`` (``workloads.pass_count``, or ``--passes``)
  trace    run the first pass once with every layer traced
The last line of stdout is one JSON object with the rows and totals.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from time import perf_counter

import answers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
#: seconds of requests between two runs of the calibration kernel
CALIBRATE_EVERY = 0.5
#: a run stops after this many times ``--seconds`` even with passes left, so a
#: much slower program still gives a result in time
OVERRUN = 2.5


def import_cli():
    """``replica.cli.main`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SOURCE))
    import replica
    import replica.cli

    if not Path(replica.__file__).resolve().is_relative_to(SOURCE):
        raise ImportError(f"replica imported from {replica.__file__}, not from {SOURCE}")
    return replica.cli.main


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of Decimal and dict work that does not use replica.

    On a shared machine the speed of the CPU drifts by tens of percent over
    seconds to minutes. Timed between requests, this kernel tracks that drift
    (its correlation with scale pass times measured 0.84 to 0.91), so pass
    times can be scaled to a machine of constant speed.
    """
    started = perf_counter()
    with localcontext() as ctx:
        ctx.prec = 3000
        x, root3 = Decimal(1), Decimal(3).sqrt()
        for i in range(60):
            x = (x * root3 + i) / 7
    table = {}
    for i in range(8000):
        table[str(i % 997)] = i
    return perf_counter() - started


def run_pass(main, requests, references, tracer=None) -> dict:
    """Run the requests in order and check the answers.

    Returns the pass's wall seconds (the sum of its request times), the
    median calibration kernel time, taken at least every CALIBRATE_EVERY
    seconds between requests, and one row per request. A request whose call
    raises fails like a CLI process that dies: exit code 1, the exception as
    its problem.
    """
    results, calibration = [], []
    since_calibration = CALIBRATE_EVERY
    for index, request in enumerate(requests):
        if since_calibration >= CALIBRATE_EVERY:
            calibration.append(calibration_kernel())
            since_calibration = 0.0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        raised = None
        started = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(request.argv))
            except Exception as exc:
                code, raised = 1, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - started
        since_calibration += seconds
        results.append((seconds, code, out.getvalue(), raised))
    rows = []
    for request, (seconds, code, out, raised) in zip(requests, results):
        problem = raised or answers.check(request, code, out, references)
        rows.append({
            "command": request.command,
            "digits": request.digits,
            "seconds": seconds,
            "ok": problem is None,
            "problem": problem,
        })
    return {
        "wall": sum(result[0] for result in results),
        "calibration": statistics.median(calibration),
        "rows": rows,
    }


def measure(workload, seed, seconds, size, references, passes=None) -> dict:
    """Closed loop over the run's fresh passes.

    A run makes ``workloads.pass_count(workload, seconds)`` passes (or
    ``passes``), so every run of a workload measures the same requests,
    unless it is still running after OVERRUN times ``seconds``.
    """
    main = import_cli()
    if passes is None:
        passes = workloads.pass_count(workload, seconds)
    results, rows = [], []
    started = perf_counter()
    while len(results) < passes and perf_counter() - started < OVERRUN * seconds:
        requests = workloads.generate(workload, seed, len(results), size)
        gc.collect()
        result = run_pass(main, requests, references)
        for row in result.pop("rows"):
            row["pass"] = len(results)
            rows.append(row)
        results.append(result)
    return {"passes": results, "rows": rows, "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(workload, seed, size, references) -> dict:
    """The first pass with every layer traced: spans, counts and steps per request."""
    main = import_cli()
    requests = workloads.generate(workload, seed, 0, size)
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        result = run_pass(tracer.wrap("cli.main", main), requests, references, tracer)
    rows = result.pop("rows")
    return {
        "passes": [result],
        "rows": rows,
        "steps": [tracer.request_steps[i] for i in range(len(requests))],
        "layers": tracer.metrics(),
        "missing": tracer.missing,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--passes", type=int, default=None)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        import_cli()
        workloads.generate(args.workload, args.seed, 0, args.size)
        return 0
    references = answers.load_references()
    if args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds, args.size, references, args.passes)
    else:
        result = trace(args.workload, args.seed, args.size, references)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
