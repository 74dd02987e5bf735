"""Batch front door: run configs in, JSON reports and CSV field dumps out.

Subcommands
-----------
    wlab analyze <config.json> [--out report.json]
    wlab convergence <config.json> --sizes 16,32,64 [--out table.json]
    wlab gallery list
    wlab fields <config.json> [--out fields.csv]

`--out` names the one file a run writes: without it `analyze` and
`fields` write to stdout, and `convergence` prints only its text table.

A run config is a JSON object:

    {
      "surface": {"name": "clifford", "params": {}},
      "grid": {"nu": 64, "nv": 64},
      "tolerances": {"flat_normal": 1e-4},          # optional overrides
      "transforms": [{"include_n": 5},
                     {"mobius": {"seed": 1, "magnitude": 1.0}}],
      "seed": 0
    }

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config or usage
error (an unknown key such as `outputs`, or a tolerance that is not a
positive finite number) or an `--out` file that cannot be written, 3
chart error (any failure to build the chart, or non-unit, non-finite,
degenerate or non-conformal points), 4 analysis error; `main` maps every
failure, a RunError, to its exit code.

WLAB_THREADS (a positive integer; default: all cores) caps the threads of
one run: each `analyze` splits its per-point kernels and periodic axis
transforms into that many contiguous parts, with results bit-identical
for every value (see `wlab.parallel`); a convergence sweep analyzes its
sizes one after another, in the order given.  Any other value is a
config error (exit 2) for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from .calculus import MIN_GRID_POINTS, classify_order, convergence_order
from .diagnostics import (
    RESIDUALS,
    DiagnosticsReport,
    analyze,
    check_tolerances,
    convergence_L_inf,
    is_finite_real,
)
from .frame import Chart, ChartError
from .gallery import GALLERY, apply_mobius, build_surface, include_in_higher_sphere
from .lorentz import random_mobius
from .parallel import thread_cap

EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CHART = 3
EXIT_ANALYSIS = 4

RESIDUAL_CSV_COLUMNS = ["kkbar", "abs_kk", "theta"] + [r.field for r in RESIDUALS if r.csv]


class RunError(Exception):
    """A run that ends without a result: `code` is its exit code and the
    message the one stderr line that `main` prints for it."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


class ConfigError(RunError):
    """A config or usage error (exit 2)."""

    def __init__(self, message: str):
        super().__init__(EXIT_CONFIG, f"config error: {message}")


def load_config(path: str) -> dict:
    # ValueError covers malformed JSON and bytes that are not UTF-8
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"surface", "grid", "tolerances", "transforms", "seed"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    surface = cfg.get("surface")
    if not isinstance(surface, dict) or "name" not in surface:
        raise ConfigError("config key 'surface' must be an object with a 'name'")
    if surface["name"] not in GALLERY:
        raise ConfigError(
            f"surface name {surface['name']!r} is not in the gallery "
            f"({', '.join(sorted(GALLERY))})"
        )
    params = surface.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config key 'surface.params' must be an object")
    unknown = sorted(set(params) - set(GALLERY[surface["name"]]))
    if unknown:
        raise ConfigError(
            f"unknown param(s) {unknown} for surface {surface['name']!r}; "
            "see `wlab gallery list`"
        )
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("config key 'grid' must be an object")
    nu = grid.get("nu", 64)
    nv = grid.get("nv", 64)
    if not (_is_int(nu) and _is_int(nv) and min(nu, nv) >= MIN_GRID_POINTS):
        raise ConfigError(f"config key 'grid' needs integer nu, nv >= {MIN_GRID_POINTS}")
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("config key 'tolerances' must map residual names to numbers")
    try:
        check_tolerances(tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    transforms = cfg.get("transforms", [])
    if not isinstance(transforms, list):
        raise ConfigError("config key 'transforms' must be a list")
    for tr in transforms:
        if not isinstance(tr, dict) or len(tr) != 1:
            raise ConfigError("each transform must be a one-key object")
        key, val = next(iter(tr.items()))
        if key == "include_n":
            if not _is_int(val):
                raise ConfigError(f"transform 'include_n' must be an integer, not {val!r}")
        elif key == "mobius":
            _check_mobius(val)
        else:
            raise ConfigError(f"unknown transform {key!r}")
    seed = cfg.get("seed", 0)
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"config key 'seed' must be a non-negative integer, not {seed!r}")
    return {
        "surface": surface,
        "grid": {"nu": nu, "nv": nv},
        "tolerances": tol,
        "transforms": transforms,
        "seed": seed,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_mobius(val) -> None:
    if not isinstance(val, dict):
        raise ConfigError(f"transform 'mobius' must be an object, not {val!r}")
    unknown = sorted(set(val) - {"seed", "magnitude"})
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in transform 'mobius'")
    if "seed" in val and not (_is_int(val["seed"]) and val["seed"] >= 0):
        raise ConfigError(f"mobius 'seed' must be a non-negative integer, not {val['seed']!r}")
    if "magnitude" in val and not is_finite_real(val["magnitude"]):
        raise ConfigError(f"mobius 'magnitude' must be a finite number, not {val['magnitude']!r}")


def build_chart(cfg: dict, nu=None, nv=None) -> Chart:
    surface = cfg["surface"]
    chart = build_surface(
        surface["name"],
        nu or cfg["grid"]["nu"],
        nv or cfg["grid"]["nv"],
        surface.get("params", {}),
    )
    for tr in cfg["transforms"]:
        key, val = next(iter(tr.items()))
        if key == "include_n":
            chart = include_in_higher_sphere(chart, val)
        else:
            mob = random_mobius(
                chart.ambient_n,
                val.get("seed", cfg["seed"]),
                val.get("magnitude", 1.0),
            )
            chart = apply_mobius(chart, mob)
    return chart


def run_analysis(cfg: dict, nu=None, nv=None) -> DiagnosticsReport:
    """The report of one run, or a RunError: any exception while the chart
    is built (bad param values, a grid too large to allocate) and any
    ChartError raised by `analyze` (the chart check in the lift) exits
    EXIT_CHART, every other exception EXIT_ANALYSIS.
    """
    try:
        chart = build_chart(cfg, nu, nv)
    except Exception as exc:  # noqa: BLE001 - construction maps to exit 3
        raise RunError(EXIT_CHART,
                       f"chart construction failed: {type(exc).__name__}: {exc}") from exc
    try:
        return analyze(chart, tolerances=cfg["tolerances"])
    except ChartError as exc:
        raise RunError(EXIT_CHART, f"chart rejected: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - analysis stage maps to exit 4
        raise RunError(EXIT_ANALYSIS, f"analysis failed: {exc}") from exc


def report_json(report: DiagnosticsReport, seed: int) -> str:
    """The report as JSON, with the config `seed` its Mobius maps were drawn from."""
    return json.dumps({**report.to_json_dict(), "seed": seed}, sort_keys=True, indent=2) + "\n"


def _emit(text: str, path) -> None:
    try:
        with open(path, "w") if path else nullcontext(sys.stdout) as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path or '<stdout>'!r}: {exc}") from exc


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    report = run_analysis(cfg)
    _emit(report_json(report, cfg["seed"]), args.out)
    for e in report.entries:
        print(f"{e.name:<18} L_inf={e.L_inf:.3e} tol={e.tolerance:.1e} {e.verdict}",
              file=sys.stderr)
    return 0 if report.passed else EXIT_VERDICT_FAIL


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        sizes = []
    if len(sizes) < 3 or len(set(sizes)) < len(sizes) or min(sizes) < MIN_GRID_POINTS:
        raise ConfigError(f"--sizes must list at least 3 integers >= {MIN_GRID_POINTS}, "
                          "none repeated")

    reports = [run_analysis(cfg, n, n) for n in sizes]

    table = {"sizes": sizes, "residual_L_inf": {}, "fitted_order": {}}
    for row in RESIDUALS:
        linfs = [convergence_L_inf(r, row.field) for r in reports]
        table["residual_L_inf"][row.name] = linfs
        if any(np.isnan(linfs)) or any(x <= 0 for x in linfs):
            table["fitted_order"][row.name] = "skipped"
            continue
        slope = convergence_order(sizes, linfs)
        table["fitted_order"][row.name] = {
            "slope": slope,
            "label": classify_order(slope, linfs, reports[0].entry(row.name).tolerance),
        }

    header = "residual".ljust(18) + "".join(f"n={n}".rjust(13) for n in sizes) + "  order"
    print(header)
    for name, linfs in table["residual_L_inf"].items():
        fit = table["fitted_order"][name]
        label = fit if isinstance(fit, str) else fit["label"]
        line = name.ljust(18) + "".join(
            "      nan".rjust(13) if np.isnan(x) else f"{x:13.3e}" for x in linfs
        )
        print(f"{line}  {label}")
    if args.out:
        _emit(json.dumps(table, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_gallery(args) -> int:
    for name in sorted(GALLERY):
        print(name)
        for pname, doc in GALLERY[name].items():
            print(f"    {pname}: {doc}")
    return 0


def cmd_fields(args) -> int:
    cfg = load_config(args.config)
    report = run_analysis(cfg)
    uu, vv = report.spec.meshgrid()
    columns = [uu, vv] + [report.fields[c] for c in RESIDUAL_CSV_COLUMNS]
    cells = [map(repr, np.asarray(col, dtype=float).ravel().tolist()) for col in columns]
    lines = [",".join(["u", "v"] + RESIDUAL_CSV_COLUMNS)]
    lines.extend(map(",".join, zip(*cells)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error and, like every failure, one line
        raise RunError(EXIT_CONFIG, f"{self.prog}: error: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="wlab",
        description="conformal-geometry diagnostics for surfaces in spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full diagnostic pipeline")
    p_an.add_argument("config")
    p_an.add_argument("--out", help="report path (default: stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_cv = sub.add_parser("convergence", help="re-run across grid sizes and fit orders")
    p_cv.add_argument("config")
    p_cv.add_argument("--sizes", required=True, help="comma-separated grid sizes")
    p_cv.add_argument("--out", help="JSON table path (default: none)")
    p_cv.set_defaults(func=cmd_convergence)

    p_ga = sub.add_parser("gallery", help="inspect the surface gallery")
    p_ga.add_argument("action", choices=["list"])
    p_ga.set_defaults(func=cmd_gallery)

    p_fd = sub.add_parser("fields", help="dump per-point fields as CSV")
    p_fd.add_argument("config")
    p_fd.add_argument("--out", help="CSV path (default: stdout)")
    p_fd.set_defaults(func=cmd_fields)

    try:
        args = parser.parse_args(argv)
        if "\0" in (getattr(args, "out", None) or ""):  # open() refuses it only after the work
            raise ConfigError(f"output path {args.out!r} contains NUL")
        try:
            thread_cap()  # a malformed WLAB_THREADS fails every subcommand alike
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # numpy warnings would add stderr lines to the one-line contract
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except RunError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
