"""wlab benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload spectral_s3 --seed 1 --seconds 25 --trace 0

Run from the repository root; wlab is imported from `src/` of this
checkout.  Each run starts fresh worker processes (worker.py) with BLAS
and OpenMP pinned to one thread and WLAB_THREADS=2, the machine's 2
cores:

- SETUP_RUNS - 1 set-up-only workers, then one measuring worker, each
  timed from process start through `import wlab`, the input build and one
  warm-up call; `setup_s` is the median of the SETUP_RUNS samples;
- the measuring worker runs closed-loop passes over the workload's input
  list for --seconds (at least one pass) and checks every output against
  golden.json or, for seeded Mobius images, by Mobius invariance.

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer ones
named in BENCHMARK.json.  The last line of standard output is the result
object; the full record (environment, pass times, failures, span table)
goes to perfbench/out/.  The exit code is 0 when every output was
correct, 1 when some were not, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_RUNS = 3
RUN_BUDGET_S = 170.0  # the whole run, all workers included
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "WLAB_THREADS": "2",
}


class RunError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {
        key.strip(): value.strip()
        for key, _, value in (line.partition(":") for line in text.splitlines())
        if key.strip() in ("L2 cache", "L3 cache")
    }


def run_worker(args, deadline: float, tag: str, extra: list[str]) -> dict:
    result_path = os.path.join(OUT, f"{tag}-{os.getpid()}.json")
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": os.pathsep.join([SRC, BENCH])}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--result", result_path, *extra,
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{tag} worker exceeded the run budget") from exc
    if proc.returncode != 0:
        raise RunError(f"{tag} worker exited with code {proc.returncode}")
    try:
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        os.remove(result_path)


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [run_worker(args, deadline, f"setup{k}", ["--setup-only"])["setup_s"]
              for k in range(SETUP_RUNS - 1)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", os.path.join(OUT, f"spans-{stem}.json")] if args.trace else []
    res = run_worker(args, deadline, "measure", extra)
    setups.append(res["setup_s"])
    times = res["pass_times"]
    e2e = {
        "pass_s_p50": statistics.median(times),
        "pts_per_s": res["points_per_pass"] * len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res["layers"] if args.trace else e2e
    units = {m["name"]: m["unit"] for m in declared}
    if sorted(units) != sorted(values):
        raise RunError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(times), "pass_times": times,
        "call_s_p50": res["call_s_p50"], "setup_samples": setups,
        "attempted": res["attempted"], "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"], "failures": res["failures"],
        "end_to_end": e2e, "layers": res.get("layers"), "span_table": res.get("span_table"),
        "env": {**res["env"], "caches": lscpu_caches()},
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    return record


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "wlab", "__init__.py")):
        print(f"benchmark: no wlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        record = measure(args, spec)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for msg in record["failures"][:20]:
        print(f"MISMATCH {msg}", file=sys.stderr)
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} passes={record['passes']} "
          f"failed_frac={record['failed_frac']} ({record['failed']}/{record['attempted']})")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
