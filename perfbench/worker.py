"""One workload process: set up, then run closed-loop passes and check them.

Started by run.py, never by hand.  It reads the clock `--t0` that run.py
took (CLOCK_MONOTONIC, shared by all processes of the machine) just
before starting it, so set-up time counts from process start, through
`import wlab`, the input build and one warm-up call.  With --setup-only
it stops there.  The result goes to the JSON file named by --result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spans import Tracer, layer_metrics, span_table


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(calls) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "WLAB_THREADS")},
        # computed from array shapes, not measured bandwidth
        "largest_field_bytes_computed": max(c.field_bytes for c in calls),
        "largest_field": "complex (nu, nv, d, d) projector derivative in ricci_residual",
    }


def run_passes(wl, reference: dict, seconds: float, tracer) -> dict:
    """Closed loop over the input list until `seconds` have gone by."""
    pass_times, failures = [], []
    call_times = {call.label: [] for call in wl.calls}
    attempted = failed = written = 0
    request = 0
    start = now()
    while not pass_times or now() - start < seconds:
        elapsed = 0.0
        for call in wl.calls:
            request += 1
            if tracer is not None:
                tracer.request = request
            attempted += 1
            t = time.perf_counter()
            try:
                result = call.run()
            except Exception:  # noqa: BLE001 - a raising call is counted, not fatal
                elapsed += time.perf_counter() - t
                failed += 1
                failures.append(f"{call.label}: raised\n{traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t
            elapsed += dt
            call_times[call.label].append(dt)
            try:
                mismatches = call.check(result, reference)
                written += sum(os.path.getsize(p) for p in call.outputs)
            except Exception:  # noqa: BLE001 - an unreadable output is a failed call
                mismatches = [f"{call.label}: check raised\n{traceback.format_exc()}"]
            failed += bool(mismatches)
            failures.extend(mismatches)
        pass_times.append(elapsed)
    return {"pass_times": pass_times, "attempted": attempted, "failed": failed,
            "call_s_p50": {k: statistics.median(v) for k, v in call_times.items() if v},
            "failures": failures,
            "bytes_written": written}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import wlab  # noqa: F401 - part of the timed set-up
    import golden
    import workloads

    wl = workloads.build(args.workload, args.seed, workloads.make_work_dir(args.workload))
    try:
        reference = golden.load()
        wl.calls[0].run()
        setup_s = now() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            tracer = None
            if args.trace:
                tracer = Tracer()
                tracer.install()
            result.update(run_passes(wl, reference, args.seconds, tracer))
            result["points_per_pass"] = sum(c.points for c in wl.calls)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["env"] = environment(wl.calls)
            if tracer is not None:
                tracer.uninstall()
                passes = len(result["pass_times"])
                layers = layer_metrics(tracer.spans, passes)
                layers["cli.bytes_written"] = result["bytes_written"] / passes
                layers["trace.pass_s_p50"] = statistics.median(result["pass_times"])
                result["layers"] = dict(sorted(layers.items()))
                result["span_table"] = span_table(tracer.spans, passes)
                if args.spans:
                    tracer.dump(args.spans)
    finally:
        wl.close()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
