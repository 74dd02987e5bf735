"""Golden reference for the benchmark's unseeded inputs, and its comparator.

`golden.json` holds what the seed commit produced for every unseeded
input: each residual's L_inf / L2 / verdict / masked fraction, the
energies, the ranks and, for CLI calls, the exit code.  Every benchmark
run compares its outputs against it:

- verdicts, ranks, exit codes and other discrete values match exactly;
- floats match to REL (the ROADMAP's 1e-12 relative gate);
- a residual norm may in addition differ by an absolute roundoff floor of
  FLOOR_FRACTION times that residual's verdict tolerance, two orders of
  magnitude below the tolerance, because spectral residual floors sit at
  roundoff (1e-10 .. 1e-8) where a reordered sum moves them by more than
  1e-12 relative.

Seeded inputs (Mobius images) have no stored golden.  They are checked by
Mobius invariance instead: W_conformal within MOBIUS_W_TOL and every
verdict equal to those of the untransformed chart's golden entry.

Regenerate with `PYTHONPATH=src python3 perfbench/golden.py` from the
repository root (only when the reference itself is meant to change).
"""

from __future__ import annotations

import json
import math
import os

REL = 1e-12
FLOOR_FRACTION = 1e-2
# acceptance criterion 6: W moves by less than 1e-7 under Mobius maps
MOBIUS_W_TOL = 1e-7
FD_TOLERANCE = 1e-3  # wlab.diagnostics.DEFAULT_TOL_FD, for tables without one

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load(path: str = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def close(got, ref, floor: float = 0.0) -> bool:
    """Equal to REL relative, or within `floor` absolute; NaN equals NaN."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if ref is None or got is None:
        return got is ref
    got, ref = float(got), float(ref)
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(got - ref) <= max(REL * abs(ref), floor)


def compare_report(got: dict, ref: dict, label: str) -> list[str]:
    """Mismatches between two `DiagnosticsReport.to_json_dict()` outputs."""
    out = []
    if got["passed"] != ref["passed"]:
        out.append(f"{label}: passed {got['passed']} != {ref['passed']}")
    if got["ranks"] != ref["ranks"]:
        out.append(f"{label}: ranks {got['ranks']} != {ref['ranks']}")
    for key, value in ref["energies"].items():
        if not close(got["energies"].get(key), value):
            out.append(f"{label}: energy {key} {got['energies'].get(key)!r} != {value!r}")
    got_res = {r["name"]: r for r in got["residuals"]}
    if list(got_res) != [r["name"] for r in ref["residuals"]]:
        out.append(f"{label}: residual names {list(got_res)} differ")
        return out
    for r in ref["residuals"]:
        g = got_res[r["name"]]
        for key in ("verdict", "tolerance"):
            if g[key] != r[key]:
                out.append(f"{label}: {r['name']}.{key} {g[key]!r} != {r[key]!r}")
        floor = FLOOR_FRACTION * r["tolerance"]
        for key, fl in (("L_inf", floor), ("L2", floor), ("masked_fraction", 0.0)):
            if not close(g[key], r[key], fl):
                out.append(f"{label}: {r['name']}.{key} {g[key]!r} != {r[key]!r}")
    return out


def compare_invariant(got: dict, ref: dict, label: str) -> list[str]:
    """A Mobius image keeps W_conformal and every verdict of its source."""
    out = []
    w, w_ref = got["energies"]["W_conformal"], ref["energies"]["W_conformal"]
    if not abs(w - w_ref) < MOBIUS_W_TOL:
        out.append(f"{label}: W_conformal {w!r} moved from {w_ref!r} under a Mobius map")
    verdicts = [(r["name"], r["verdict"]) for r in got["residuals"]]
    ref_verdicts = [(r["name"], r["verdict"]) for r in ref["residuals"]]
    if verdicts != ref_verdicts:
        out.append(f"{label}: verdicts {verdicts} != untransformed {ref_verdicts}")
    return out


def compare_cli(got: dict, ref: dict, label: str) -> list[str]:
    """Exit code, then whichever of report / CSV columns / table it carries."""
    if got["exit"] != ref["exit"]:
        return [f"{label}: exit code {got['exit']} != {ref['exit']}"]
    out = []
    if "report" in ref:
        out += compare_report(got["report"], ref["report"], label)
    if "csv" in ref:
        out += _compare_csv(got["csv"], ref["csv"], label)
    if "table" in ref:
        out += _compare_table(got["table"], ref["table"], label)
    return out


def _compare_csv(got: dict, ref: dict, label: str) -> list[str]:
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return [f"{label}: CSV header/rows {got['header']}/{got['rows']} differ"]
    out = []
    floor = FLOOR_FRACTION * FD_TOLERANCE
    for col, stats in ref["columns"].items():
        fl = floor if col.startswith(("res_", "omega")) else 0.0
        g = got["columns"][col]
        if g["nan_count"] != stats["nan_count"]:
            out.append(f"{label}: column {col} NaN count {g['nan_count']} != {stats['nan_count']}")
        for key in ("max_abs", "sum_abs"):
            if not close(g[key], stats[key], fl):
                out.append(f"{label}: column {col} {key} {g[key]!r} != {stats[key]!r}")
    return out


def _compare_table(got: dict, ref: dict, label: str) -> list[str]:
    if got["sizes"] != ref["sizes"]:
        return [f"{label}: sizes {got['sizes']} != {ref['sizes']}"]
    out = []
    floor = FLOOR_FRACTION * FD_TOLERANCE
    for name, linfs in ref["residual_L_inf"].items():
        glinfs = got["residual_L_inf"].get(name, [])
        if len(glinfs) != len(linfs) or not all(
            close(g, r, floor) for g, r in zip(glinfs, linfs)
        ):
            out.append(f"{label}: convergence L_inf of {name} {glinfs} != {linfs}")
        g_fit, r_fit = got["fitted_order"].get(name), ref["fitted_order"][name]
        if isinstance(r_fit, str) or isinstance(g_fit, str):
            if g_fit != r_fit:
                out.append(f"{label}: fitted order of {name} {g_fit!r} != {r_fit!r}")
    return out


def main() -> None:
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=0, work_dir=workloads.make_work_dir(name))
        for call in wl.calls:
            if call.invariant_of is None:
                golden[call.label] = call.observe(call.run())
                print(f"recorded {call.label}", flush=True)
        wl.close()
    for key, make in workloads.REFERENCE_ONLY.items():
        golden[key] = workloads.observe_report(workloads.analyze_chart(make()))
        print(f"recorded {key}", flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
