"""Batch front door: run configs in, JSON reports and CSV field dumps out.

Subcommands
-----------
    wlab analyze <config.json> [--out report.json]
    wlab convergence <config.json> --sizes 16,32,64 [--out table.json]
    wlab gallery list
    wlab fields <config.json> --out fields.csv

A run config is a JSON object:

    {
      "surface": {"name": "clifford", "params": {}},
      "grid": {"nu": 64, "nv": 64},
      "tolerances": {"flat_normal": 1e-4},          # optional overrides
      "transforms": [{"include_n": 5},
                     {"mobius": {"seed": 1, "magnitude": 1.0}}],
      "outputs": [{"kind": "report", "path": "report.json"}],
      "seed": 0
    }

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config error,
3 chart error (construction failed, or non-unit, non-finite or
non-conformal points), 4 analysis error; every subcommand maps failures
the same way, through `run_analysis`.

WLAB_THREADS (a positive integer; default: all cores) caps the threads of
one run: a single `analyze` splits its per-point kernels and periodic
axis transforms into that many contiguous parts, with results
bit-identical for every value (see `wlab.parallel`), and a convergence
sweep analyzes that many sizes at once, each serially.  Any other value
is a config error (exit 2) for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .calculus import classify_order, convergence_order
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


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"surface", "grid", "tolerances", "transforms", "outputs", "seed"}
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
    unknown = sorted(set(params) - set(GALLERY[surface["name"]]["params"]))
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
    if not (_is_int(nu) and _is_int(nv) and nu >= 8 and nv >= 8):
        raise ConfigError("config key 'grid' needs integer nu, nv >= 8")
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
        "outputs": cfg.get("outputs", []),
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


def run_analysis(cfg: dict, nu=None, nv=None):
    """(exit_code, report, chart) of one run.

    A failure gives (EXIT_CHART or EXIT_ANALYSIS, message, None), with the
    one-line message in place of the report: a chart that cannot be built
    (bad param values included) and any ChartError raised by `analyze`
    (chart validation) is a chart error, every other exception an
    analysis error.
    """
    try:
        chart = build_chart(cfg, nu, nv)
    except (ValueError, KeyError, RuntimeError, TypeError) as exc:
        return EXIT_CHART, f"chart construction failed: {exc}", None
    try:
        report = analyze(chart, tolerances=cfg["tolerances"], seed=cfg["seed"])
    except ChartError as exc:
        return EXIT_CHART, f"chart rejected: {exc}", None
    except Exception as exc:  # noqa: BLE001 - analysis stage maps to exit 4
        return EXIT_ANALYSIS, f"analysis failed: {exc}", None
    return 0, report, chart


def report_json(report: DiagnosticsReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    code, report, _ = run_analysis(cfg)
    if code:
        return _fail(code, report)
    out_path = args.out or _configured_path(cfg, "report")
    _emit(report_json(report), out_path)
    for e in report.entries:
        print(f"{e.name:<18} L_inf={e.L_inf:.3e} tol={e.tolerance:.1e} {e.verdict}",
              file=sys.stderr)
    return 0 if report.passed else EXIT_VERDICT_FAIL


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        print("--sizes must be a comma-separated list of integers", file=sys.stderr)
        return EXIT_CONFIG
    if len(sizes) < 3:
        print("need at least 3 sizes", file=sys.stderr)
        return EXIT_CONFIG

    with ThreadPoolExecutor(max_workers=min(thread_cap(), len(sizes))) as pool:
        runs = list(pool.map(lambda n: run_analysis(cfg, n, n), sizes))
    for code, result, _ in runs:
        if code:
            return _fail(code, result)
    reports = [report for _, report, _ in runs]

    table = {"sizes": sizes, "residual_L_inf": {}, "fitted_order": {}}
    for row in RESIDUALS:
        linfs = [convergence_L_inf(r, row.field) for r in reports]
        table["residual_L_inf"][row.name] = linfs
        if any(np.isnan(linfs)) or any(x <= 0 for x in linfs):
            table["fitted_order"][row.name] = "skipped"
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            slope = convergence_order(dict(zip(sizes, linfs)).__getitem__, sizes)
        table["fitted_order"][row.name] = {
            "slope": slope, "label": classify_order(slope, linfs)
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
    if args.action != "list":
        print(f"unknown gallery action {args.action!r}", file=sys.stderr)
        return EXIT_CONFIG
    for name in sorted(GALLERY):
        print(name)
        for pname, doc in GALLERY[name]["params"].items():
            print(f"    {pname}: {doc}")
    return 0


def cmd_fields(args) -> int:
    cfg = load_config(args.config)
    code, report, chart = run_analysis(cfg)
    if code:
        return _fail(code, report)
    spec = chart.spec
    uu, vv = spec.meshgrid()
    out_path = args.out or _configured_path(cfg, "fields")
    columns = [uu, vv] + [report.fields[c] for c in RESIDUAL_CSV_COLUMNS]
    cells = [map(repr, np.asarray(col, dtype=float).ravel().tolist()) for col in columns]
    lines = [",".join(["u", "v"] + RESIDUAL_CSV_COLUMNS)]
    lines.extend(map(",".join, zip(*cells)))
    text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    return 0


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _configured_path(cfg: dict, kind: str):
    for out in cfg.get("outputs", []):
        if isinstance(out, dict) and out.get("kind") == kind and out.get("path"):
            return out["path"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wlab",
        description="conformal-geometry diagnostics for surfaces in spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full diagnostic pipeline")
    p_an.add_argument("config")
    p_an.add_argument("--out", help="report path (default: config outputs or stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_cv = sub.add_parser("convergence", help="re-run across grid sizes and fit orders")
    p_cv.add_argument("config")
    p_cv.add_argument("--sizes", required=True, help="comma-separated grid sizes")
    p_cv.add_argument("--out", help="optional JSON table path")
    p_cv.set_defaults(func=cmd_convergence)

    p_ga = sub.add_parser("gallery", help="inspect the surface gallery")
    p_ga.add_argument("action", choices=["list"])
    p_ga.set_defaults(func=cmd_gallery)

    p_fd = sub.add_parser("fields", help="dump per-point fields as CSV")
    p_fd.add_argument("config")
    p_fd.add_argument("--out", help="CSV path (default: config outputs or stdout)")
    p_fd.set_defaults(func=cmd_fields)

    args = parser.parse_args(argv)
    try:
        thread_cap()  # a malformed WLAB_THREADS fails every subcommand alike
    except ValueError as exc:
        return _fail(EXIT_CONFIG, f"config error: {exc}")
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, f"config error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
