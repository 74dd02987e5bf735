"""Residual evaluators and verdicts for the conformal-surface criteria.

Every residual is a pointwise scalar field that vanishes (up to
discretization) exactly when the corresponding geometric property holds:

========================  ====================================================
willmore                  |D_zbar D_zbar kappa + (conj s / 2) kappa|
swillmore                 component of D_zbar kappa off the complex line of kappa
flat_normal               <kappa, conj kappa> - |<kappa, kappa>|
isothermic                |Im d_z d_zbar log <kappa,kappa>| / 2 = |theta_z zbar|
gauss                     s_zbar/2 - 3<kappa, D_z conj kappa> - <D_z kappa, conj kappa>
codazzi                   norm of Im(D_zbar D_zbar kappa + (conj s/2) kappa)
ricci                     |(D_zbar D_z - D_z D_zbar) kappa - RHS(kappa)|
omega_abs                 |Omega|, Omega = <D_zbar k, k>^2 - <D_zbar k, D_zbar k><k,k>
omega_holomorphy          |d_zbar Omega|
========================  ====================================================

All scalars are built from pairings of kappa and its normal derivatives,
never from components in a normal basis, so no choice of orthonormal
normal frame enters them; `analyze` builds none.

`RESIDUALS` is the one list of these criteria: tolerances, report
entries, convergence tables and the CSV columns are all read from it.
Adding a residual takes one table row plus its evaluator, whose field
`analyze` stores under the row's field key.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import __version__ as _version
from .calculus import GridSpec, diff_real, diff_z, diff_zbar, wirtinger
from .frame import Chart, FrameField, build_frame, normal_project
from .invariants import (
    hopf_schwarzian,
    normal_D,
    ricci_residual,
    willmore_energy_conformal,
    willmore_energy_euclidean,
    willmore_vector,
)
from .lorentz import herm_norm, mink_inner, span_rank
from .parallel import lines, split

SCHEMA_VERSION = 1
DEFAULT_TOL_SPECTRAL = 1e-6
DEFAULT_TOL_FD = 1e-3
MIN_RANK_SAMPLES = 50
# residuals compose up to four grid derivatives; one-sided stencils pollute
# about 3 cells per level, so refinement fits measure this far from FD edges
CONVERGENCE_MARGIN = 12


# verdict mask kinds: the points a residual's verdict is taken over
LIVE = "live"                # the frame mask
NON_UMBILIC = "non_umbilic"  # live points off the umbilic set


class Residual(NamedTuple):
    name: str   # report entry and tolerance key
    field: str  # key of its pointwise field in DiagnosticsReport.fields
    mask: str   # verdict mask kind
    csv: bool   # dumped by `wlab fields`


# theta is the phase of a flat normal bundle: ISOTHERMIC is skipped unless this passes
FLAT_NORMAL = Residual("flat_normal", "res_flat", NON_UMBILIC, True)
ISOTHERMIC = Residual("isothermic", "res_isothermic", NON_UMBILIC, False)

RESIDUALS = (
    Residual("willmore", "res_willmore", LIVE, True),
    Residual("swillmore", "res_swillmore", NON_UMBILIC, True),
    FLAT_NORMAL,
    ISOTHERMIC,
    Residual("gauss", "res_gauss", LIVE, True),
    Residual("codazzi", "res_codazzi", LIVE, True),
    Residual("ricci", "res_ricci", LIVE, False),
    Residual("omega_abs", "omega_abs", LIVE, True),
    Residual("omega_holomorphy", "omega_holomorphy", LIVE, False),
)


def convergence_L_inf(report: "DiagnosticsReport", key: str) -> float:
    """L_inf of the residual field `key` over the deep interior.

    The residual's own verdict mask, minus a CONVERGENCE_MARGIN band at
    non-periodic edges: fitted convergence orders need the
    one-sided-stencil pollution band excluded entirely.
    """
    mask = report.masks[key] & report.spec.interior_mask(CONVERGENCE_MARGIN)
    return field_norms(report.fields[key], report.spec, mask)[0]


def willmore_residual(willmore_vector: np.ndarray) -> np.ndarray:
    """|D_zbar D_zbar kappa + (conj s / 2) kappa| pointwise."""
    return herm_norm(willmore_vector)


def s_willmore_residual(frame: FrameField, dzbar_kappa: np.ndarray) -> np.ndarray:
    """Norm of the part of D_zbar kappa orthogonal to the line of kappa.

    Zero exactly when D_zbar kappa = mu kappa for some function mu.
    Meaningless at umbilic points (the quotient by <kappa, conj kappa>);
    callers mask those.
    """
    kkb = np.where(frame.umbilic_mask, 1.0, frame.kk_bar)
    out = np.empty(kkb.shape)

    def part(lo, hi):
        r = slice(lo, hi)
        coef = mink_inner(dzbar_kappa[r], np.conj(frame.kappa[r])) / kkb[r]
        out[r] = herm_norm(dzbar_kappa[r] - coef[..., None] * frame.kappa[r])

    split(part, len(out), lines(kkb.shape[1]))
    return out


def flat_normal_residual(frame: FrameField) -> np.ndarray:
    """<kappa, conj kappa> - |<kappa, kappa>|: zero iff kappa is a common
    phase times a real normal vector (flat normal bundle away from
    umbilics).  Always >= 0 by Cauchy-Schwarz."""
    return frame.kk_bar - np.abs(frame.kk)


def phase_laplacian_residual(theta: np.ndarray, spec: GridSpec) -> np.ndarray:
    """|d_z d_zbar theta| = |theta_uu + theta_vv| / 4."""
    return np.abs(diff_real(theta, spec, 0)[1] + diff_real(theta, spec, 1)[1]) / 4.0


def isothermic_residual(kk: np.ndarray, spec: GridSpec) -> np.ndarray:
    """|d_z d_zbar theta| = |Im d_z d_zbar log k| / 2, k = <kappa, kappa> = |k| e^{2i theta}:
    no branch of log enters.  Not finite at k = 0, umbilic wherever the normal bundle is flat."""
    k_z, k_zbar = wirtinger(kk, spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * np.abs(((kk * diff_z(k_zbar, spec) - k_z * k_zbar) / kk**2).imag)


def six_form(frame: FrameField, dzbar_kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The holomorphic-form candidate Omega and its |d_zbar Omega|.

    Omega = <D_zbar kappa, kappa>^2 - <D_zbar kappa, D_zbar kappa>
    <kappa, kappa>; it vanishes identically whenever D_zbar kappa is
    parallel to kappa, and d_zbar Omega vanishes on Willmore data.
    """
    omega = six_form_scalar(frame.kappa, dzbar_kappa)
    holo = np.abs(diff_zbar(omega, frame.spec))
    return omega, holo


def six_form_scalar(kappa: np.ndarray, dzbar_kappa: np.ndarray) -> np.ndarray:
    """Omega from bare vectors (complex-bilinear Euclidean pairing on the
    last axis); used for the algebraic-identity fixtures as well."""
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)
    return dot(dzbar_kappa, kappa) ** 2 - dot(dzbar_kappa, dzbar_kappa) * dot(kappa, kappa)


def gauss_residual(frame: FrameField, dz_kappa: np.ndarray,
                   dzbar_kappa: np.ndarray) -> np.ndarray:
    """|s_zbar / 2 - 3 <kappa, D_z conj kappa> - <D_z kappa, conj kappa>|,
    the pointwise defect of the Gauss row of the integrability system."""
    s_zbar = diff_zbar(frame.s, frame.spec)
    return np.abs(
        0.5 * s_zbar
        - 3.0 * mink_inner(frame.kappa, np.conj(dzbar_kappa))  # D_z conj kappa
        - mink_inner(dz_kappa, np.conj(frame.kappa))
    )


def codazzi_residual(willmore_vector: np.ndarray) -> np.ndarray:
    """Norm of Im(D_zbar D_zbar kappa + (conj s / 2) kappa), the Codazzi
    row; the imaginary part of a V^perp_C field is a real normal vector,
    so its Minkowski norm is gauge-invariant."""
    return herm_norm(willmore_vector.imag)


def codazzi_gauss_residuals(frame: FrameField, dz_kappa: np.ndarray, dzbar_kappa: np.ndarray,
                            willmore_vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gauss, codazzi): both integrability rows, for a caller holding the
    whole jet.  `analyze` takes each row at its own stage."""
    return gauss_residual(frame, dz_kappa, dzbar_kappa), codazzi_residual(willmore_vector)


def reduction_span_check(mask: np.ndarray, fields) -> int:
    """Rank of the span of the vectors of `fields` over the points of `mask`.

    A complex field adds its real and imaginary parts.  The lift's rank
    k+2 witnesses containment in a conformal S^k; the kappa jet (kappa,
    D_z kappa, D_zbar D_z kappa) of flat-normal Willmore data spans at
    most 4 dimensions.  Each leaf of `span_rank` gathers its masked rows
    by index: no masked copy of a field exists.
    """
    if int(mask.sum()) < MIN_RANK_SAMPLES:
        raise ValueError(f"need >= {MIN_RANK_SAMPLES} unmasked samples for rank checks")
    idx, step = np.flatnonzero(mask), lines(1)
    parts = (p for f in fields for p in ((f.real, f.imag) if np.iscomplexobj(f) else (f,)))
    return span_rank(p.reshape(-1, p.shape[-1])[idx[lo:lo + step]]
                     for p in parts for lo in range(0, len(idx), step))


def remark62_residual(
    k_fields,
    theta: np.ndarray,
    s: np.ndarray,
    spec: GridSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluator for the flat-normal-in-S^6 integrability system.

    First equation, for each of the four real components k_a:

        k_a_zbar_zbar + 2 i theta_zbar k_a_zbar
            + (i theta_zbar_zbar - theta_zbar^2 + conj s / 2) k_a = 0,

    second equation:

        s_zbar / 2 = 2 (sum k_a^2)_z - 2 i theta_z sum k_a^2.

    Returns (max_a |first|, |second|) pointwise.  This is an evaluator for
    candidate solutions; it does not solve the system.
    """
    ks = [np.asarray(k, dtype=float) for k in k_fields]
    for k in ks:
        if k.shape != (spec.nu, spec.nv):
            raise ValueError("k-field shape does not match the grid")
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=complex)
    t_z, t_zbar = wirtinger(theta, spec)
    t_zbar2 = diff_zbar(t_zbar, spec)
    coeff = 1j * t_zbar2 - t_zbar**2 + 0.5 * np.conj(s)
    res1 = np.zeros((spec.nu, spec.nv))
    for k in ks:
        k_zbar = diff_zbar(k, spec)
        k_zbarzbar = diff_zbar(k_zbar, spec)
        res1 = np.maximum(res1, np.abs(k_zbarzbar + 2j * t_zbar * k_zbar + coeff * k))
    total = sum(k * k for k in ks)
    res2 = np.abs(
        0.5 * diff_zbar(s, spec) - 2.0 * diff_z(total, spec) + 2j * t_z * total
    )
    return res1, res2


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class ResidualEntry:
    name: str
    L_inf: float
    L2: float
    tolerance: float
    verdict: str  # "pass" | "fail" | "skipped"
    masked_fraction: float


@dataclass
class DiagnosticsReport:
    chart: dict
    entries: list
    energies: dict
    ranks: dict
    passed: bool
    # not serialized: pointwise fields, each residual's verdict mask by
    # field key, and the grid they live on
    fields: dict = field(default_factory=dict, repr=False)
    masks: dict = field(default_factory=dict, repr=False)
    spec: Optional[GridSpec] = field(default=None, repr=False)

    def entry(self, name: str) -> ResidualEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        """The serialized report, in containers that are not the report's."""
        return {
            "schema_version": SCHEMA_VERSION,
            "chart": _jsonable(self.chart),
            "energies": dict(self.energies),
            "ranks": dict(self.ranks),
            "residuals": [asdict(e) for e in self.entries],
            "passed": self.passed,
        }


def field_norms(f: np.ndarray, spec: GridSpec, mask: np.ndarray):
    """(L_inf, L2, masked_fraction) of |f| over the mask, with quadrature
    weights for L2."""
    a = np.abs(np.asarray(f))
    frac = 1.0 - float(mask.sum()) / mask.size
    if not mask.any():
        return math.nan, math.nan, frac
    w = spec.quad_weights()
    l2 = float(np.sqrt(np.sum(w[mask] * a[mask] ** 2)))
    return float(a[mask].max()), l2, frac


def is_finite_real(value) -> bool:
    """A finite real number; bools do not count."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def check_tolerances(overrides: dict) -> dict:
    """Tolerance overrides as floats; ValueError on an unknown residual
    name or a value that is not a positive finite real number (bools
    included): no L_inf is below a tolerance <= 0."""
    unknown = set(overrides) - {row.name for row in RESIDUALS}
    if unknown:
        raise ValueError(f"unknown residual name(s) in tolerances: {sorted(unknown)}")
    for name, value in overrides.items():
        if not (is_finite_real(value) and value > 0):
            raise ValueError(
                f"tolerance for {name!r} must be a positive finite number, not {value!r}")
    return {name: float(value) for name, value in overrides.items()}


def default_tolerances(chart: Chart, overrides: Optional[dict] = None) -> dict:
    """Per-residual verdict tolerances: spectral charts resolve to the
    roundoff floor, finite-difference charts to their truncation floor."""
    base = DEFAULT_TOL_SPECTRAL if chart.spec.fully_periodic else DEFAULT_TOL_FD
    tol = {row.name: base for row in RESIDUALS}
    tol.update(check_tolerances(overrides or {}))
    return tol


def analyze(chart: Chart, tolerances: Optional[dict] = None, *,
            witnesses: bool = True) -> DiagnosticsReport:
    """Full pipeline: frame record (lift, split, invariants) -> residuals -> report.

    The canonical lift checks the chart, so a bad chart raises ChartError
    before any other work.  Each (nu, nv, d) field is released after its
    last reader: the lift leaves the record once kappa, s and the lift rank
    exist, each field of kappa's normal jet goes once its residuals and rank
    block are taken, the V basis after the last projection, kappa before
    the Euclidean check.

    `fields["kk"]` is <kappa, kappa> itself; no phase of it is unwrapped
    here (the CSV writer of `wlab fields` derives |kk| and theta).  With
    `witnesses=False` the Euclidean cross-check `W_euclidean` and both rank
    witnesses are not computed: `energies` holds only `W_conformal` and
    `domain_truncated` and `ranks` is empty, while entries, verdicts,
    fields and masks are those of the full report bit for bit.  Such a
    report is for callers that read only those (`wlab fields`, `wlab
    convergence`), not for serialization.
    """
    tol = default_tolerances(chart, tolerances)
    spec = chart.spec

    frame = hopf_schwarzian(build_frame(chart))
    live = frame.mask
    ranks = {"lift_rank": reduction_span_check(live, [frame.Y])} if witnesses else {}
    basis = frame.V_basis  # held apart, so that it goes after its last projection
    frame = replace(frame, Y=None, Y_z=None, Y_zz=None, Y_zzbar=None, V_basis=None)

    dz, dzbar = normal_D(basis, frame.kappa, spec)
    fields = {
        "res_swillmore": s_willmore_residual(frame, dzbar),
        "res_gauss": gauss_residual(frame, dz, dzbar),
    }
    omega, fields["omega_holomorphy"] = six_form(frame, dzbar)
    fields["omega_abs"] = np.abs(omega)
    del omega
    dzbar_dz = normal_project(basis, diff_zbar(dz, spec))
    if witnesses:
        ranks["kappa_jet_rank"] = reduction_span_check(live, [frame.kappa, dz, dzbar_dz])
    del dz
    dz_dzbar, willmore = normal_D(basis, dzbar, spec, out=dzbar)  # dzbar is read no more
    del dzbar, basis
    fields["res_ricci"] = ricci_residual(frame, dzbar_dz, dz_dzbar)
    del dzbar_dz, dz_dzbar
    willmore = willmore_vector(frame, willmore)
    fields["res_willmore"] = willmore_residual(willmore)
    fields["res_codazzi"] = codazzi_residual(willmore)
    del willmore

    fields["res_flat"] = flat_normal_residual(frame)
    fields["kkbar"] = frame.kk_bar
    fields["kk"] = frame.kk
    kinds = {LIVE: live, NON_UMBILIC: live & ~frame.umbilic_mask}
    masks = {row.field: kinds[row.mask] for row in RESIDUALS}

    def entry(row: Residual) -> ResidualEntry:
        mask = masks[row.field]
        linf, l2, frac = field_norms(fields[row.field], spec, mask)
        # NaN and inf compare False, so a non-finite value at a masked point fails
        verdict = "skipped" if not mask.any() else "pass" if linf < tol[row.name] else "fail"
        return ResidualEntry(row.name, linf, l2, tol[row.name], verdict, frac)

    flat = entry(FLAT_NORMAL)
    if flat.verdict == "pass":
        fields[ISOTHERMIC.field] = isothermic_residual(frame.kk, spec)
    else:
        fields[ISOTHERMIC.field] = np.full(live.shape, np.nan)
        masks[ISOTHERMIC.field] = np.zeros_like(live)
    entries = [flat if row is FLAT_NORMAL else entry(row) for row in RESIDUALS]
    energies = {"W_conformal": willmore_energy_conformal(frame),
                "domain_truncated": not spec.fully_periodic}
    del frame  # the Euclidean cross-check reads only the chart, so it runs last
    if witnesses:
        energies["W_euclidean"] = willmore_energy_euclidean(chart)

    passed = all(e.verdict in ("pass", "skipped") for e in entries)
    meta = {"name": chart.name, "params": _jsonable(chart.params), "nu": spec.nu, "nv": spec.nv,
            "ambient_n": chart.ambient_n, "cover_count": chart.cover_count,
            "periodic_u": spec.periodic_u, "periodic_v": spec.periodic_v,
            "wlab_version": _version}
    return DiagnosticsReport(
        chart=meta, entries=entries, energies=energies,
        ranks=ranks, passed=passed, fields=fields, masks=masks, spec=spec,
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
