"""In-memory span tracer that wraps wlab's public functions from outside.

Each wrapped function records a span (name, start, end, parent, thread,
request) on a thread-local stack.  A function is wrapped wherever a wlab
module binds it, found by identity, so `wlab.diagnostics.ricci_residual`,
`wlab.invariants.ricci_residual` and `wlab.ricci_residual` all record the
same span name.  Nothing inside `src/` changes.

Self time is a span's duration minus the durations of its direct children
in the same thread (children on one thread never overlap).  Spans started
on another thread (the convergence sweep's pool) have no parent; they are
tied to their request through `Tracer.request`, which the closed-loop
caller sets before each call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# span name -> (module, attribute).  The function object found there is
# wrapped in every wlab module that binds it.
WRAPPED = {
    "calculus._diff_axis": ("wlab.calculus", "_diff_axis"),
    "calculus.diff_u": ("wlab.calculus", "diff_u"),
    "calculus.diff_v": ("wlab.calculus", "diff_v"),
    "calculus.diff_z": ("wlab.calculus", "diff_z"),
    "calculus.diff_zbar": ("wlab.calculus", "diff_zbar"),
    "lorentz.mink_inner": ("wlab.lorentz", "mink_inner"),
    "lorentz.cmink_inner": ("wlab.lorentz", "cmink_inner"),
    "lorentz.herm_norm_sq": ("wlab.lorentz", "herm_norm_sq"),
    "lorentz.span_rank": ("wlab.lorentz", "span_rank"),
    "frame.validate_chart": ("wlab.frame", "validate_chart"),
    "frame.canonical_lift": ("wlab.frame", "canonical_lift"),
    "frame.perp_projector": ("wlab.frame", "perp_projector"),
    "frame.normal_basis": ("wlab.frame", "normal_basis"),
    "frame.normal_project": ("wlab.frame", "normal_project"),
    "frame.build_frame": ("wlab.frame", "build_frame"),
    "invariants.hopf_schwarzian": ("wlab.invariants", "hopf_schwarzian"),
    "invariants.ricci_residual": ("wlab.invariants", "ricci_residual"),
    "invariants.willmore_energy_conformal": ("wlab.invariants", "willmore_energy_conformal"),
    "invariants.willmore_energy_euclidean": ("wlab.invariants", "willmore_energy_euclidean"),
    "diagnostics.analyze": ("wlab.diagnostics", "analyze"),
    "diagnostics.willmore_residual": ("wlab.diagnostics", "willmore_residual"),
    "diagnostics.s_willmore_residual": ("wlab.diagnostics", "s_willmore_residual"),
    "diagnostics.codazzi_gauss_residuals": ("wlab.diagnostics", "codazzi_gauss_residuals"),
    "diagnostics.six_form": ("wlab.diagnostics", "six_form"),
    "diagnostics.phase_laplacian_residual": ("wlab.diagnostics", "phase_laplacian_residual"),
    "diagnostics.reduction_span_check": ("wlab.diagnostics", "reduction_span_check"),
    "gallery.build_surface": ("wlab.gallery", "build_surface"),
    "gallery.clifford": ("wlab.gallery", "clifford"),
    "gallery.veronese": ("wlab.gallery", "veronese"),
    "gallery.pinkall_hopf_torus": ("wlab.gallery", "pinkall_hopf_torus"),
    "gallery.homogeneous_cp2_hopf": ("wlab.gallery", "homogeneous_cp2_hopf"),
    "gallery.hopf_from_curvature": ("wlab.gallery", "hopf_from_curvature"),
    "gallery.include_in_higher_sphere": ("wlab.gallery", "include_in_higher_sphere"),
    "gallery.apply_mobius": ("wlab.gallery", "apply_mobius"),
    "cli.main": ("wlab.cli", "main"),
    "cli.cmd_analyze": ("wlab.cli", "cmd_analyze"),
    "cli.cmd_fields": ("wlab.cli", "cmd_fields"),
    "cli.cmd_convergence": ("wlab.cli", "cmd_convergence"),
    "cli.report_json": ("wlab.cli", "report_json"),
}

WLAB_MODULES = (
    "wlab", "wlab.calculus", "wlab.lorentz", "wlab.frame", "wlab.invariants",
    "wlab.diagnostics", "wlab.gallery", "wlab.cli",
)


def _axis_attrs(args):
    # _diff_axis(f, axis, n, length, periodic, order), always called positionally
    f, periodic = args[0], args[4]
    return {"periodic": bool(periodic), "bytes": int(f.nbytes)}


def _projector_attrs(args):
    nu, nv, d = args[0].Y.shape
    return {"bytes": nu * nv * d * d * 8}


ATTRS = {
    "calculus._diff_axis": _axis_attrs,
    "frame.perp_projector": _projector_attrs,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    request: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(
                id=next(self._ids),
                name=name,
                parent=stack[-1].id if stack else None,
                thread=threading.get_ident(),
                request=self.request,
                start=time.perf_counter(),
                attrs=attrs(args) if attrs else {},
            )
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        for name, (mod_name, attr) in WRAPPED.items():
            original = getattr(importlib.import_module(mod_name), attr)
            traced = self.wrap(original, name, ATTRS.get(name))
            for binder in WLAB_MODULES:
                module = importlib.import_module(binder)
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.duration
    return {s.id: s.duration - child_total[s.id] for s in spans}


def span_table(spans: list[Span], passes: int) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, each per pass."""
    selfs = self_times(spans)
    rows: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = rows[s.name]
        row["calls"] += 1
        row["incl_s"] += s.duration
        row["self_s"] += selfs[s.id]
    return {
        name: {k: v / passes for k, v in row.items()}
        for name, row in sorted(rows.items())
    }


CALCULUS = ["calculus._diff_axis", "calculus.diff_u", "calculus.diff_v",
            "calculus.diff_z", "calculus.diff_zbar"]
GALLERY = [n for n in WRAPPED if n.startswith("gallery.") and n != "gallery.hopf_from_curvature"]

# per-layer metric -> span names whose self time it sums (seconds per pass)
SELF_TIME = {
    "calculus.axis_diff_s": CALCULUS,
    "lorentz.pairing_s": ["lorentz.mink_inner", "lorentz.cmink_inner", "lorentz.herm_norm_sq"],
    "lorentz.span_rank_s": ["lorentz.span_rank"],
    "frame.validate_s": ["frame.validate_chart"],
    "frame.canonical_lift_s": ["frame.canonical_lift"],
    "frame.perp_projector_s": ["frame.perp_projector"],
    "frame.normal_basis_s": ["frame.normal_basis"],
    "frame.normal_project_s": ["frame.normal_project"],
    "invariants.hopf_schwarzian_s": ["invariants.hopf_schwarzian"],
    "invariants.ricci_s": ["invariants.ricci_residual"],
    "invariants.energy_conformal_s": ["invariants.willmore_energy_conformal"],
    "invariants.energy_euclidean_s": ["invariants.willmore_energy_euclidean"],
    "diagnostics.analyze_self_s": ["diagnostics.analyze"],
    "diagnostics.willmore_s": ["diagnostics.willmore_residual"],
    "diagnostics.swillmore_s": ["diagnostics.s_willmore_residual"],
    "diagnostics.gauss_codazzi_s": ["diagnostics.codazzi_gauss_residuals"],
    "diagnostics.six_form_s": ["diagnostics.six_form"],
    "diagnostics.isothermic_s": ["diagnostics.phase_laplacian_residual"],
    "diagnostics.ranks_s": ["diagnostics.reduction_span_check"],
    "gallery.build_s": GALLERY,
    "gallery.ode_build_s": ["gallery.hopf_from_curvature"],
    "cli.report_json_s": ["cli.report_json"],
    "cli.csv_s": ["cli.cmd_fields"],
}

MIB = 2.0**20


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, each per pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    axis = by_name["calculus._diff_axis"]
    projectors = by_name["frame.perp_projector"]
    out = {
        "calculus.axis_diff_calls": len(axis),
        "calculus.fft_axis_calls": sum(s.attrs["periodic"] for s in axis),
        "calculus.fd_axis_calls": sum(not s.attrs["periodic"] for s in axis),
        "calculus.axis_diff_mb": sum(s.attrs["bytes"] for s in axis) / MIB,
        "lorentz.pairing_calls": len(by_name["lorentz.mink_inner"]),
        "frame.normal_project_calls": len(by_name["frame.normal_project"]),
        "diagnostics.analyze_calls": len(by_name["diagnostics.analyze"]),
    }
    out = {k: v / passes for k, v in out.items()}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(selfs[s.id] for n in names for s in by_name[n]) / passes
    # computed size of one projector field, not a per-pass total
    out["frame.projector_mb"] = max((s.attrs["bytes"] for s in projectors), default=0) / MIB
    out["cli.sweep_parallelism"] = sweep_parallelism(by_name)
    return dict(sorted(out.items()))


def sweep_parallelism(by_name: dict[str, list[Span]]) -> float:
    """Summed `analyze` time over `cmd_convergence` wall time, averaged over
    sweeps; the pool's analyze spans are tied to their sweep by request."""
    analyze_time: dict[int, float] = defaultdict(float)
    for s in by_name["diagnostics.analyze"]:
        analyze_time[s.request] += s.duration
    ratios = [analyze_time[s.request] / s.duration for s in by_name["cli.cmd_convergence"]]
    return sum(ratios) / len(ratios) if ratios else 0.0
