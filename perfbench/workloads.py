"""The benchmark's workloads: fixed input lists, each call with its check.

Every workload is a closed loop: one caller issues the next call only
after the previous one returns, and a pass is one trip over the list.
The first call of each list doubles as the warm-up call of set-up.

- spectral_s3: library `analyze` on codimension-1 periodic charts of
  16-18k points (d = 5).  FFT derivatives and the residual evaluators
  dominate; the (d, d) projector fields are small.
- high_codim: library `analyze` on charts included into S^7 and S^10 and
  a CP^2 Hopf torus (d = 7..12).  The dense (nu, nv, d, d) fields of the
  projector, normal basis and Ricci residual dominate time and memory.
- cli_fd_batch: in-process `wlab.cli.main` on configs written here:
  finite-difference (order 6) charts, the DOP853 frame ODE, JSON and CSV
  emission and the threaded convergence sweep.

Unseeded inputs are compared with `golden.json`; the Mobius images, whose
maps derive from the workload seed, are compared by Mobius invariance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import wlab
import wlab.cli
from wlab.lorentz import random_mobius

import golden as golden_mod

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
COMPLEX_BYTES = 16


@dataclass
class Call:
    """One timed call and how to check its outcome."""

    label: str
    run: Callable[[], Any]
    observe: Callable[[Any], dict]
    compare: Callable[[dict, dict, str], list]
    points: int        # sum of nu*nv over the analyses the call makes
    field_bytes: int   # computed size of its largest per-point field
    invariant_of: Optional[str] = None  # golden key of the untransformed chart
    outputs: tuple = ()  # files the call writes

    def check(self, result, golden: dict) -> list[str]:
        got = self.observe(result)
        if self.invariant_of is not None:
            return golden_mod.compare_invariant(got, golden[self.invariant_of], self.label)
        return self.compare(got, golden[self.label], self.label)


@dataclass
class Workload:
    name: str
    calls: list
    work_dir: str

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def make_work_dir(name: str) -> str:
    path = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def mobius_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the workload's Mobius maps, derived from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def projector_field_bytes(nu: int, nv: int, d: int) -> int:
    # the largest per-point field of `analyze`: the complex derivative of
    # the (nu, nv, d, d) projector taken in ricci_residual
    return nu * nv * d * d * COMPLEX_BYTES


# ---------------------------------------------------------------------------
# library calls
# ---------------------------------------------------------------------------

def analyze_chart(chart):
    # looked up at call time so the tracer's wrapper is the one called
    return wlab.analyze(chart)


def observe_report(report) -> dict:
    return report.to_json_dict()


def library_call(label: str, chart, invariant_of: Optional[str] = None) -> Call:
    spec = chart.spec
    return Call(
        label=label,
        run=lambda: analyze_chart(chart),
        observe=observe_report,
        compare=golden_mod.compare_report,
        points=spec.nu * spec.nv,
        field_bytes=projector_field_bytes(spec.nu, spec.nv, chart.dim),
        invariant_of=invariant_of,
    )


def clifford_in(n_sphere: int, size: int):
    return wlab.include_in_higher_sphere(wlab.clifford(size, size), n_sphere)


def _spectral_s3(seed: int, _work: str) -> list[Call]:
    clif = wlab.clifford(128, 128)
    calls = [
        library_call("clifford_128", clif),
        library_call("pinkall_c1.5_192x96", wlab.pinkall_hopf_torus(1.5, 192, 96).chart),
    ]
    for k, s in enumerate(mobius_seeds(seed, 2)):
        moved = wlab.apply_mobius(clif, random_mobius(3, s, 1.0))
        calls.append(library_call(f"clifford_128_mobius{k}[seed={s}]", moved, "clifford_128"))
    return calls


def _high_codim(seed: int, _work: str) -> list[Call]:
    (s,) = mobius_seeds(seed, 1)
    moved = wlab.apply_mobius(clifford_in(7, 192), random_mobius(7, s, 1.0))
    cp2 = wlab.build_surface("homogeneous_cp2_hopf", 192, 96, {"lambdas": [-1.0, 0.5, 2.0]})
    return [
        library_call("cp2_hopf_192x96", cp2),
        library_call("clifford_256_S7", clifford_in(7, 256)),
        library_call(f"clifford_192_S7_mobius[seed={s}]", moved, "clifford_192_S7"),
        library_call("clifford_128_S10", clifford_in(10, 128)),
    ]


# untransformed charts that seeded inputs are compared with but that no
# workload times
REFERENCE_ONLY = {"clifford_192_S7": lambda: clifford_in(7, 192)}


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return wlab.cli.main(argv)


def _write_config(work: str, name: str, cfg: dict) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _observe(argv: list[str]):
    """Reader of the file the CLI call writes: report, CSV or table."""
    path = argv[argv.index("--out") + 1]

    def observe(code: int) -> dict:
        if argv[0] == "fields":
            return {"exit": code, "csv": _csv_stats(path)}
        with open(path) as fh:
            return {"exit": code, "report" if argv[0] == "analyze" else "table": json.load(fh)}
    return observe


def _csv_stats(path: str) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    absd = np.abs(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    columns = {
        col: {
            "max_abs": float(np.nanmax(absd[:, i])),
            "sum_abs": float(np.nansum(absd[:, i])),
            "nan_count": int(np.isnan(absd[:, i]).sum()),
        }
        for i, col in enumerate(header)
    }
    return {"header": header, "rows": len(absd), "columns": columns}


def cli_call(label: str, argv: list[str], points: int, field_bytes: int) -> Call:
    return Call(
        label=label,
        run=lambda: run_cli(argv),
        observe=_observe(argv),
        compare=golden_mod.compare_cli,
        points=points,
        field_bytes=field_bytes,
        outputs=(argv[argv.index("--out") + 1],),
    )


CONVERGENCE_SIZES = (48, 64, 96, 128)


def _cli_fd_batch(_seed: int, work: str) -> list[Call]:
    veronese = _write_config(work, "veronese", {
        "surface": {"name": "veronese", "params": {}},
        "grid": {"nu": 256, "nv": 64},
    })
    hopf = _write_config(work, "hopf_ode", {
        "surface": {"name": "hopf_from_curvature",
                    "params": {"k1": 1.0, "k2": 0.5, "ambient_complex_dim": 3}},
        "grid": {"nu": 128, "nv": 64},
    })
    cp2 = _write_config(work, "cp2_window", {
        "surface": {"name": "homogeneous_cp2_hopf",
                    "params": {"lambdas": [-1.0, 0.5, 2.0], "t_window": 6.0}},
    })
    sizes = ",".join(map(str, CONVERGENCE_SIZES))
    n_max = max(CONVERGENCE_SIZES)
    return [
        cli_call("cli_analyze_veronese_256x64",
                 ["analyze", veronese, "--out", os.path.join(work, "veronese_report.json")],
                 256 * 64, projector_field_bytes(256, 64, 6)),
        cli_call("cli_analyze_hopf_ode_128x64",
                 ["analyze", hopf, "--out", os.path.join(work, "hopf_report.json")],
                 128 * 64, projector_field_bytes(128, 64, 7)),
        cli_call("cli_fields_veronese_256x64",
                 ["fields", veronese, "--out", os.path.join(work, "veronese_fields.csv")],
                 256 * 64, projector_field_bytes(256, 64, 6)),
        cli_call("cli_convergence_cp2_window6",
                 ["convergence", cp2, "--sizes", sizes, "--out", os.path.join(work, "cp2_table.json")],
                 sum(n * n for n in CONVERGENCE_SIZES), projector_field_bytes(n_max, n_max, 7)),
    ]


WORKLOADS = {
    "spectral_s3": _spectral_s3,
    "high_codim": _high_codim,
    "cli_fd_batch": _cli_fd_batch,
}


def build(name: str, seed: int, work_dir: str) -> Workload:
    return Workload(name, WORKLOADS[name](seed, work_dir), work_dir)
