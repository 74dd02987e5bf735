"""Conformal invariants of an immersed surface patch: kappa, s, D, energies.

For the canonical lift Y the basic decomposition is

    Y_zz = -(s/2) Y + kappa,

with kappa the V^perp_C part (the conformal Hopf differential) and s the
Schwarzian, recovered as s = 2 <Y_zz, N> since <Y, N> = -1.  The normal
connection is D_z v = P d_z v for sections v of V^perp_C, and the
conformally invariant metric is <kappa, conj kappa> |dz|^2, whose total
integral 2i Int <kappa, conj kappa> dz ^ dzbar = 4 Int <kappa, conj
kappa> du dv is the Willmore energy.  The independent Euclidean pipeline
stereographically projects the chart to R^n and integrates H^2 - K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import GridSpec, diff_real, integrate, wirtinger
from .frame import Chart, FrameField, normal_project
from .lorentz import herm_norm, herm_norm_sq, mink_inner
from .parallel import BLOCK_POINTS, split

UMBILIC_REL_TOL = 1e-10
UMBILIC_ABS_TOL = 1e-13
POLE_MIN_DISTANCE = 0.1
# chart points per block in the pole search: its (candidates, points)
# matrix of dot products is formed one block at a time
POLE_SEARCH_BLOCK = 4096


@dataclass
class InvariantField:
    """Per-point conformal invariants of a chart: kappa, s and the scalars
    the report reads.  `analyze` holds kappa's normal derivatives apart,
    each only until its last reader."""

    chart: Chart
    mask: np.ndarray         # the frame mask
    kappa: np.ndarray        # (nu, nv, d) complex, in V^perp_C
    s: np.ndarray            # (nu, nv) complex Schwarzian
    kk: np.ndarray           # <kappa, kappa>, complex
    kk_bar: np.ndarray       # <kappa, conj kappa>, real >= 0
    theta: np.ndarray        # unwrapped half-phase of <kappa, kappa>
    theta_mask: np.ndarray   # False where unwrapping was inconsistent
    umbilic_mask: np.ndarray  # True at (near-)umbilic points
    decomposition_defect: float
    tangential_defect: float

    @property
    def spec(self) -> GridSpec:
        return self.chart.spec


def hopf_schwarzian(frame: FrameField) -> InvariantField:
    """Split Y_zz into Schwarzian and conformal Hopf differential.

    kappa, the V^perp_C part of Y_zz, is the one `build_frame` stored; s =
    2 <Y_zz, N>, N formed from kk_bar.  The tangential components of Y_zz
    vanish identically for canonical lifts; their measured size is recorded
    as `tangential_defect`, and the closure of the decomposition itself as
    `decomposition_defect`.  These are the last readers of Y_zz.
    """
    kappa, m = frame.kappa, frame.mask
    kk = mink_inner(kappa, kappa)
    kk_bar, s = np.empty(m.shape), np.empty(m.shape, dtype=complex)
    decomp, tang = np.empty(m.shape), np.empty(m.shape)

    def part(lo, hi):  # no conjugate of kappa, N or defect term is a whole field
        rows = slice(lo, hi)
        kap, y_zz, y_z, y = kappa[rows], frame.Y_zz[rows], frame.Y_z[rows], frame.Y[rows]
        kk_bar[rows] = herm_norm_sq(kap)
        s[rows] = 2.0 * mink_inner(y_zz, 2.0 * frame.Y_zzbar[rows]
                                   + 2.0 * kk_bar[rows][..., None] * y)  # <Y_zz, N>
        decomp[rows] = herm_norm(y_zz - (-0.5 * s[rows][..., None] * y + kap))
        tang[rows] = np.maximum(np.abs(2.0 * mink_inner(y_zz, y_z)),
                                np.abs(2.0 * mink_inner(y_zz, np.conj(y_z))))

    split(part, m.shape[0], max(1, BLOCK_POINTS // m.shape[1]))
    umbilic = kk_bar < np.maximum(UMBILIC_REL_TOL * kk_bar[m].max(), UMBILIC_ABS_TOL)
    theta, theta_ok = unwrap_half_phase(kk, frame.spec)

    return InvariantField(
        chart=frame.chart,
        mask=m,
        kappa=kappa,
        s=s,
        kk=kk,
        kk_bar=kk_bar,
        theta=theta,
        theta_mask=theta_ok,
        umbilic_mask=umbilic,
        decomposition_defect=float(decomp[m].max()),
        tangential_defect=float(tang[m].max()),
    )


def normal_D(basis: np.ndarray, section: np.ndarray, spec: GridSpec,
             out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """(D_z v, D_zbar v) for a section v of V^perp_C: its Wirtinger
    derivatives, projected in place along the V basis field `basis`; D_zbar
    v is formed in `out` as in `wirtinger` (v itself, when v is read no more)."""
    v_z, v_zbar = wirtinger(section, spec, out)
    return normal_project(basis, v_z), normal_project(basis, v_zbar)


def willmore_vector(inv: InvariantField, dzbar_dzbar_kappa: np.ndarray) -> np.ndarray:
    """D_zbar D_zbar kappa + (conj s / 2) kappa, formed in the buffer of the
    D_zbar D_zbar kappa it is given."""
    dzbar_dzbar_kappa += 0.5 * np.conj(inv.s)[..., None] * inv.kappa
    return dzbar_dzbar_kappa


def _wrap_half_pi(x: np.ndarray) -> np.ndarray:
    return (x + np.pi / 2) % np.pi - np.pi / 2


def unwrap_half_phase(kk: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """theta = arg<kappa,kappa>/2, unwrapped row-major with period pi.

    theta is only defined mod pi; rows are unwrapped along v after seeding
    from the first column unwrapped along u.  Plaquettes whose wrapped
    increments fail to close (phase residues) get their four corners
    flagged False in the returned mask instead of being repaired.
    """
    raw = 0.5 * np.angle(kk)
    col0 = np.unwrap(raw[:, 0], period=np.pi)
    theta = np.unwrap(raw, axis=1, period=np.pi)
    theta += (col0 - theta[:, 0])[:, None]

    du = _wrap_half_pi(np.roll(raw, -1, axis=0) - raw)
    dv = _wrap_half_pi(np.roll(raw, -1, axis=1) - raw)
    curl = du + np.roll(dv, -1, axis=0) - np.roll(du, -1, axis=1) - dv
    bad = np.abs(curl) > np.pi / 2
    if not spec.periodic_u:
        bad[-1, :] = False
    if not spec.periodic_v:
        bad[:, -1] = False
    ok = ~(bad | np.roll(bad, 1, axis=0) | np.roll(bad, 1, axis=1)
           | np.roll(np.roll(bad, 1, axis=0), 1, axis=1))
    return theta, ok


def ricci_residual(inv: InvariantField, dzbar_dz_kappa: np.ndarray,
                   dz_dzbar_kappa: np.ndarray) -> np.ndarray:
    """Pointwise |R^D kappa - RHS|: the Ricci equation applied to kappa.

    R^D = D_zbar D_z - D_z D_zbar is the curvature of the normal connection
    D = P d on V^perp_C.  Its left side is the normal 2-jet of kappa it is
    given, so the check is algebra: it reads neither a normal basis nor a
    derivative of P.  The Ricci equation gives R^D v =
    2<v,kappa> conj kappa - 2<v,conj kappa> kappa; for v = kappa this
    vanishes exactly where the normal bundle is flat.
    """
    if inv.kappa.shape[-1] == 4:  # V^perp = 0: kappa is projector roundoff, not a section
        return np.zeros(inv.mask.shape)
    kap = inv.kappa
    # right side first, then the left side minus it: two fields alive at once
    defect = 2.0 * inv.kk[..., None] * np.conj(kap)
    defect -= 2.0 * inv.kk_bar[..., None] * kap
    defect = dzbar_dz_kappa - dz_dzbar_kappa - defect
    return herm_norm(defect)


def willmore_energy_conformal(inv: InvariantField) -> float:
    """W = 2i Int <kappa, conj kappa> dz ^ dzbar = 4 Int <k,kbar> du dv.

    Covering charts report the energy of a single cover.  On charts that
    are not fully periodic this is the energy of the truncated domain.
    """
    w = 4.0 * float(integrate(inv.kk_bar, inv.spec))
    return w / inv.chart.cover_count


def select_projection_pole(chart: Chart) -> np.ndarray:
    """Pole for stereographic projection: far from every chart sample.

    Scans the coordinate axes plus a fixed low-discrepancy set of unit
    vectors and keeps the candidate maximizing the minimal distance to the
    surface; conditioning of the projection improves with that distance.
    """
    pts = chart.points.reshape(-1, chart.ambient_n + 1)
    rng = np.random.default_rng(12345)
    cand = rng.normal(size=(256, pts.shape[1]))
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    axes = np.concatenate([np.eye(pts.shape[1]), -np.eye(pts.shape[1])])
    cand = np.concatenate([axes, cand])
    # |p - x|^2 = 2 - 2 p.x  on the unit sphere
    max_dot = np.max([(cand @ pts[i:i + POLE_SEARCH_BLOCK].T).max(axis=1)
                      for i in range(0, len(pts), POLE_SEARCH_BLOCK)], axis=0)
    min_d = np.sqrt(np.maximum(2.0 - 2.0 * max_dot, 0.0))
    best = int(np.argmax(min_d))
    if min_d[best] < POLE_MIN_DISTANCE:
        raise ValueError(
            f"no stereographic pole at distance >= {POLE_MIN_DISTANCE} from the surface"
        )
    return cand[best]


def willmore_energy_euclidean(chart: Chart) -> float:
    """Independent Willmore pipeline: stereographic projection + H^2 - K.

    Projects the chart to R^n from an automatically selected pole, builds
    the first and second fundamental forms by grid differentiation, and
    integrates (|H|^2 - K) dA.  Agrees with the conformal pipeline because
    the functional is invariant under the projection.
    """
    spec = chart.spec
    pole = select_projection_pole(chart)
    x = chart.points
    xp = np.einsum("uvk,k->uv", x, pole)
    X = (x - xp[..., None] * pole) / (1.0 - xp)[..., None]

    Xu, Xuu = diff_real(X, spec, 0)
    Xv, Xvv = diff_real(X, spec, 1)
    Xuv, = diff_real(Xu, spec, 1, order=1)
    E = np.einsum("uvk,uvk->uv", Xu, Xu)
    F = np.einsum("uvk,uvk->uv", Xu, Xv)
    G = np.einsum("uvk,uvk->uv", Xv, Xv)
    det = E * G - F * F

    def normal_part(w):  # in place; the Gram inverse is [[G, -F], [-F, E]] / det
        a, b = np.einsum("uvk,uvk->uv", Xu, w), np.einsum("uvk,uvk->uv", Xv, w)
        w -= ((G * a - F * b) / det)[..., None] * Xu
        w -= ((E * b - F * a) / det)[..., None] * Xv
        return w

    IIuu, IIuv, IIvv = normal_part(Xuu), normal_part(Xuv), normal_part(Xvv)
    del Xu, Xv
    h_vec = (G[..., None] * IIuu - 2.0 * F[..., None] * IIuv
             + E[..., None] * IIvv) / (2.0 * det[..., None])
    h2 = np.einsum("uvk,uvk->uv", h_vec, h_vec)
    k_gauss = (np.einsum("uvk,uvk->uv", IIuu, IIvv)
               - np.einsum("uvk,uvk->uv", IIuv, IIuv)) / det

    dens = (h2 - k_gauss) * np.sqrt(det)
    return float(integrate(dens, spec)) / chart.cover_count

