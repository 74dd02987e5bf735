"""Batch front door: run configs in, JSON reports and CSV field dumps out.

Subcommands
-----------
    wlab analyze <config.json> [--out report.json]
    wlab convergence <config.json> --sizes 16,32,64 [--out table.json]
    wlab gallery list
    wlab fields <config.json> [--out fields.csv]

`--out` names the one file a run writes: without it `analyze` and
`fields` write to stdout, and `convergence` prints only its text table.
`fields` formats and writes its CSV a block of whole grid lines at a
time (`wlab.parallel.lines`), so a write that fails or is interrupted
leaves a partial file, as a failed single write could.
Only `analyze` writes, and so computes, `W_euclidean` and the rank
witnesses: `fields` and `convergence` run `analyze(..., witnesses=False)`,
so an error in those stages cannot fail them.  The CSV writer derives
its `abs_kk` and `theta` columns from the report's `kk` field.

A run config is a JSON object of these keys, and every object in it
holds only the keys shown:

    {
      "surface": {"name": "clifford", "params": {}},
      "grid": {"nu": 64, "nv": 64},
      "tolerances": {"flat_normal": 1e-4},          # optional overrides
      "transforms": [{"include_n": 5},
                     {"mobius": {"seed": 1, "magnitude": 1.0}}],
      "seed": 0
    }

A report is its config: the chart's `name`, `params`, `nu` and `nv`, the
`transforms`, `seed` and each entry's `tolerance` rebuild its run.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config or usage
error or an `--out` file that cannot be written, 3 chart error (any
failure to build the chart, or non-unit, non-finite, degenerate or
non-conformal points), 4 analysis error; `main` maps every failure, a
RunError, to its exit code.  `validate_config` gives exit 2 by three
rules, each wherever its kind of value occurs: an object must be a JSON
object; a key, surface name, param or transform must be a string among
the known ones (`outputs` is none); and `grid.nu`/`nv` (>= 8),
`include_n` and a `seed` (>= 0) must be integers at or above their
floor.  A tolerance must be a positive finite number, a Mobius
`magnitude` a finite one.

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
import math
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
from .invariants import unwrap_half_phase
from .lorentz import random_mobius
from .parallel import lines, thread_cap

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


def validate_config(cfg) -> dict:
    """The config with every default filled in and each transform as its
    (kind, value) pair, or a ConfigError naming the first value that breaks
    a rule of the module docstring."""
    _object(cfg, "config root")
    _known(cfg, {"surface", "grid", "tolerances", "transforms", "seed"}, "config key")
    surface = _object(cfg.get("surface"), "config key 'surface'", required="name")
    _known(surface, {"name", "params"}, "'surface' key")
    name = surface["name"]
    _known([name], GALLERY, "surface name", "; see `wlab gallery list`")
    params = _object(surface.get("params", {}), "config key 'surface.params'")
    _known(params, GALLERY[name], "param", f" for surface {name!r}; see `wlab gallery list`")
    grid = _object(cfg.get("grid", {}), "config key 'grid'")
    _known(grid, {"nu", "nv"}, "'grid' key")
    nu, nv = (_integer(grid.get(k, 64), f"config key 'grid.{k}'", MIN_GRID_POINTS)
              for k in ("nu", "nv"))
    tol = _object(cfg.get("tolerances", {}), "config key 'tolerances'")
    try:
        check_tolerances(tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seed = _integer(cfg.get("seed", 0), "config key 'seed'", 0)
    transforms = cfg.get("transforms", [])
    if not isinstance(transforms, list):
        raise ConfigError("config key 'transforms' must be a list")
    steps = []
    for tr in transforms:
        if not isinstance(tr, dict) or len(tr) != 1:
            raise ConfigError("each transform must be a one-key object")
        _known(tr, {"include_n", "mobius"}, "transform")
        (kind, val), = tr.items()
        if kind == "include_n":
            steps.append((kind, _integer(val, "transform 'include_n'")))
            continue
        _known(_object(val, "transform 'mobius'"), {"seed", "magnitude"}, "'mobius' key")
        magnitude = val.get("magnitude", 1.0)
        if not is_finite_real(magnitude):
            raise ConfigError(f"mobius 'magnitude' must be a finite number, not {magnitude!r}")
        steps.append((kind, {"seed": _integer(val.get("seed", seed), "mobius 'seed'", 0),
                             "magnitude": magnitude}))
    return {"surface": {"name": name, "params": params}, "grid": {"nu": nu, "nv": nv},
            "tolerances": tol, "transforms": steps, "seed": seed}


def _object(value, what: str, required=None) -> dict:
    if not isinstance(value, dict) or (required and required not in value):
        raise ConfigError(f"{what} must be an object"
                          + (f" with a {required!r}" if required else ""))
    return value


def _known(names, known, what: str, hint: str = "") -> None:
    for name in names:
        if not (isinstance(name, str) and name in known):
            raise ConfigError(f"unknown {what} {name!r}{hint}")


def _integer(value, what: str, floor=-math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        kind = {-math.inf: "an integer", 0: "a non-negative integer"}.get(
            floor, f"an integer >= {floor}")
        raise ConfigError(f"{what} must be {kind}, not {value!r}")
    return value


def build_chart(cfg: dict) -> Chart:
    surface, grid = cfg["surface"], cfg["grid"]
    chart = build_surface(surface["name"], grid["nu"], grid["nv"], surface["params"])
    for kind, val in cfg["transforms"]:
        if kind == "include_n":
            chart = include_in_higher_sphere(chart, val)
        else:
            mob = random_mobius(chart.ambient_n, val["seed"], val["magnitude"])
            chart = apply_mobius(chart, mob)
    return chart


def run_analysis(cfg: dict, witnesses: bool = True) -> DiagnosticsReport:
    """The report of one run, or a RunError: any exception while the chart
    is built (bad param values, a grid too large to allocate) and any
    ChartError raised by `analyze` (the chart check in the lift) exits
    EXIT_CHART, every other exception EXIT_ANALYSIS.  `witnesses` is
    `analyze`'s: False skips `W_euclidean` and the ranks.
    """
    try:
        chart = build_chart(cfg)
    except Exception as exc:  # noqa: BLE001 - construction maps to exit 3
        raise RunError(EXIT_CHART,
                       f"chart construction failed: {type(exc).__name__}: {exc}") from exc
    try:
        return analyze(chart, tolerances=cfg["tolerances"], witnesses=witnesses)
    except ChartError as exc:
        raise RunError(EXIT_CHART, f"chart rejected: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - analysis stage maps to exit 4
        raise RunError(EXIT_ANALYSIS, f"analysis failed: {exc}") from exc


def report_json(report: DiagnosticsReport, seed: int, transforms: list) -> str:
    """The report as JSON, with the config `seed` and the validated (kind,
    value) `transforms` applied, each a one-key object with defaults filled in."""
    applied = {"seed": seed, "transforms": [{kind: value} for kind, value in transforms]}
    return json.dumps({**report.to_json_dict(), **applied}, sort_keys=True, indent=2) + "\n"


def _emit(pieces, path) -> None:
    """Write the text pieces, in order, to `path` or stdout; an OSError
    is a config error (exit 2)."""
    try:
        with open(path, "w") if path else nullcontext(sys.stdout) as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write {path or '<stdout>'!r}: {exc}") from exc


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    report = run_analysis(cfg)
    _emit((report_json(report, cfg["seed"], cfg["transforms"]),), args.out)
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

    reports = [run_analysis({**cfg, "grid": {"nu": n, "nv": n}}, witnesses=False)
               for n in sizes]

    table = {"sizes": sizes, "residual_L_inf": {}, "fitted_order": {}}
    for row in RESIDUALS:
        linfs = [convergence_L_inf(r, row.field) for r in reports]
        table["residual_L_inf"][row.name] = linfs
        if not all(x > 0 and math.isfinite(x) for x in linfs):  # convergence_order's domain
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
        _emit((json.dumps(table, sort_keys=True, indent=2) + "\n",), args.out)
    return 0


def cmd_gallery(args) -> int:
    for name in sorted(GALLERY):
        print(name)
        for pname, doc in GALLERY[name].items():
            print(f"    {pname}: {doc}")
    return 0


def cmd_fields(args) -> int:
    cfg = load_config(args.config)
    report = run_analysis(cfg, witnesses=False)
    spec, kk = report.spec, report.fields["kk"]
    theta, theta_ok = unwrap_half_phase(kk, spec)
    fields = {**report.fields, "abs_kk": np.abs(kk), "theta": np.where(theta_ok, theta, np.nan)}
    _emit(_csv_pieces(spec, [np.asarray(fields[c], dtype=float) for c in RESIDUAL_CSV_COLUMNS]),
          args.out)
    return 0


def _csv_pieces(spec, columns):
    """The CSV text: its header line, then the rows of one block of
    `parallel.lines(nv)` grid lines (v fastest) per piece."""
    yield ",".join(["u", "v"] + RESIDUAL_CSV_COLUMNS) + "\n"
    # u and v are formatted once per grid line
    u, v = (list(map(repr, x.tolist())) for x in (spec.u, spec.v))
    step = lines(len(v))
    for lo in range(0, len(u), step):
        block = u[lo:lo + step]
        cells = [[x for x in block for _ in v], v * len(block)]
        cells += [map(repr, col[lo:lo + step].ravel().tolist()) for col in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


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
