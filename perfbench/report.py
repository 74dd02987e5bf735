"""Print every workload's metrics, per-layer table and tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--workload NAME ...]

Run from the repository root.  For each workload it makes one untraced
and one traced run.py run with the same seed, then prints the end-to-end
metrics with their units, the per-layer metrics, the span table (calls,
inclusive and self seconds per pass, slowest self time first) and the
tracing overhead, two ways: the traced median pass time over the
untraced one, minus one, which host noise dominates; and the computed
cost, spans per pass times the cost of one wrapper measured here on a
no-op.  Both runs re-check every output, so a nonzero failed_frac is
printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from run import BENCH, OUT, ROOT, load_spec
from spans import Tracer


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def span_cost_s(calls: int = 200_000) -> float:
    """Seconds one traced call adds, measured by wrapping a no-op."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    cost = []
    for fn in (noop, traced):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        cost.append(time.perf_counter() - t)
    return (cost[1] - cost[0]) / calls


def print_workload(spec: dict, plain: dict, traced: dict, per_span_s: float) -> None:
    name = plain["workload"]
    print(f"== {name} (seed {plain['seed']}, {plain['passes']} untraced / "
          f"{traced['passes']} traced passes)")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<34} {plain['end_to_end'][m['name']]:>14.6g} {m['unit']}")
    for rec in (plain, traced):
        print(f"  failed_frac (trace {rec['trace']}){'':<17} {rec['failed_frac']:>14.6g} "
              f"({rec['failed']}/{rec['attempted']})")
    pass_s = plain["end_to_end"]["pass_s_p50"]
    overhead = traced["layers"]["trace.pass_s_p50"] / pass_s - 1.0
    n_spans = sum(row["calls"] for row in traced["span_table"].values())
    computed = n_spans * per_span_s
    print(f"  tracing overhead, measured{'':<8} {overhead:>+14.2%} of pass_s_p50 (one pair of runs)")
    print(f"  tracing overhead, computed{'':<8} {computed / pass_s:>+14.4%} of pass_s_p50 "
          f"({n_spans:.0f} spans x {per_span_s * 1e6:.2f} us)")
    print("  per-layer metrics (per pass):")
    for m in spec["per_layer"]:
        print(f"    {m['name']:<32} {traced['layers'][m['name']]:>14.6g} {m['unit']}")
    print("  spans (per pass)                       calls      incl_s      self_s")
    rows = sorted(traced["span_table"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, row in rows:
        print(f"    {span:<34} {row['calls']:>9.1f} {row['incl_s']:>11.4f} {row['self_s']:>11.4f}")
    print(f"  env {json.dumps(plain['env'], sort_keys=True)}")


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    per_span_s = span_cost_s()
    for workload in args.workload or names:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        print_workload(spec, plain, traced, per_span_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
