"""Conditional-prediction benchmark of the maxlinear library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its ``src/`` directory. Workloads are listed in ``perfbench/workloads.py``
and described in ``BENCHMARK.json``.

Times are reported at a reference machine speed: each run also times a
fixed NumPy-only kernel between requests and scales its measured times
by ``REFERENCE_MS / median kernel time`` (see ``calibration.py``).

With ``--trace 0`` the run reports the end-to-end metrics, untraced.
With ``--trace 1`` it reports the per-layer metrics: spans around each
layer's entry point, work counts and useful-work ratios, the tracing
overhead and the share of request time the spans leave unaccounted; it
also writes the spans to ``perfbench/out/``.

Every request's output is checked; a failed check or an exception
counts as a failed request and the run goes on. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # set-up is timed in this many fresh processes
SETUP_SPEED_SAMPLES = 25  # speed reference samples after each probe
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="time import + design build + validation once (internal)",
    )
    return ap.parse_args(argv)


def setup_probe(workload_name: str) -> int:
    """One set-up sample, in a fresh process: import the library, build
    the workload's design and validate it. Prints the seconds taken and,
    after it, the speed reference's median kernel time in ms."""
    t0 = time.perf_counter()
    import maxlinear as ml
    from workloads import WORKLOADS, set_up

    set_up(ml, WORKLOADS[workload_name])
    elapsed = time.perf_counter() - t0
    from calibration import SpeedReference

    speed = SpeedReference()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    print(repr(elapsed), repr(speed.kernel_ms))
    return 0


def probe_setup_times(workload_name: str) -> list[float]:
    """Set-up seconds of each probe, scaled by the speed measured in it."""
    from calibration import REFERENCE_MS

    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload_name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel_ms = map(float, proc.stdout.split()[-2:])
        times.append(elapsed * REFERENCE_MS / kernel_ms)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS/OpenMP thread: one caller per process on a shared box;
    # must be set before numpy loads, and set-up probes inherit it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "maxlinear" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/maxlinear; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    import resource

    import maxlinear as ml
    from calibration import REFERENCE_MS, SpeedReference
    from harness import Context, end_to_end_metrics, serve, traced_run
    from tracing import Tracer
    from workloads import WORKLOADS, set_up

    if Path(ml.__file__).resolve().parent != SRC / "maxlinear":
        print(f"error: imported maxlinear from {ml.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    speed = SpeedReference()
    if args.trace:
        tracer = Tracer()
        try:
            _, log, metrics, details = traced_run(
                ml, workload, args.seed, args.seconds, tracer, speed
            )
        finally:
            tracer.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "details": details,
            "spans": [vars(s) for s in tracer.spans],
        }))
        print(f"spans: {trace_path.relative_to(ROOT)}; span counts "
              f"{details['span_counts']}; errors by type {details['errors_by_type']}")
    else:
        design, model = set_up(ml, workload)
        log = serve(Context(ml, workload, design, model), args.seed, args.seconds, speed)
        setup_times = probe_setup_times(workload.name)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(log, speed, setup_times, peak_rss_mb)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{log.attempted} requests attempted, {log.failed} failed "
          f"(failed_fraction {log.failed / log.attempted:.6g})"
          + (f", failures {dict(log.failures)}" if log.failures else ""))
    print(f"speed reference kernel median {speed.kernel_ms:.4g} ms over "
          f"{len(speed.samples)} samples; times below are measured times x "
          f"{speed.factor:.4g} (reference speed: kernel takes {REFERENCE_MS} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
