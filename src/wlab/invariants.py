"""Conformal invariants of an immersed surface patch: kappa, s, D, energies.

For the canonical lift Y the basic decomposition is

    Y_zz = -(s/2) Y + kappa,

with kappa the V^perp_C part (the conformal Hopf differential) and s the
Schwarzian, s = 2 <Y_zz, N> since <Y, N> = -1; `frame.perp_projector`
makes this split, once, into the frame record, and `hopf_schwarzian` adds
<kappa, kappa> and the umbilic mask to it: every evaluator here reads that
one `FrameField`.  The normal connection is D_z v = P d_z v for
sections v of V^perp_C, and the conformally invariant metric is <kappa,
conj kappa> |dz|^2, whose total integral 2i Int <kappa, conj kappa> dz ^
dzbar = 4 Int <kappa, conj kappa> du dv is the Willmore energy.  The
independent Euclidean pipeline stereographically projects the chart to
R^n and integrates H^2 - K.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .calculus import GridSpec, diff_real, integrate, wirtinger
from .frame import Chart, FrameField, normal_project
from .lorentz import herm_norm, mink_inner
from .parallel import lines

UMBILIC_REL_TOL = 1e-10
UMBILIC_ABS_TOL = 1e-13
POLE_MIN_DISTANCE = 0.1


def hopf_schwarzian(frame: FrameField) -> FrameField:
    """The frame with <kappa, kappa> and the umbilic mask added to the split
    that `perp_projector` formed (kappa, s, <kappa, conj kappa> and its
    defects); it reads no derivative of the lift and shares every other
    array with `frame`."""
    kk_bar = frame.kk_bar
    floor = np.maximum(UMBILIC_REL_TOL * kk_bar[frame.mask].max(), UMBILIC_ABS_TOL)
    return replace(frame, kk=mink_inner(frame.kappa, frame.kappa), umbilic_mask=kk_bar < floor)


def normal_D(basis: np.ndarray, section: np.ndarray, spec: GridSpec,
             out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """(D_z v, D_zbar v) for a section v of V^perp_C: its Wirtinger
    derivatives, projected in place along the V basis field `basis`; D_zbar
    v is formed in `out` as in `wirtinger` (v itself, when v is read no more)."""
    v_z, v_zbar = wirtinger(section, spec, out)
    return normal_project(basis, v_z), normal_project(basis, v_zbar)


def willmore_vector(frame: FrameField, dzbar_dzbar_kappa: np.ndarray) -> np.ndarray:
    """D_zbar D_zbar kappa + (conj s / 2) kappa, formed in the buffer of the
    D_zbar D_zbar kappa it is given."""
    dzbar_dzbar_kappa += 0.5 * np.conj(frame.s)[..., None] * frame.kappa
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


def ricci_residual(frame: FrameField, dzbar_dz_kappa: np.ndarray,
                   dz_dzbar_kappa: np.ndarray) -> np.ndarray:
    """Pointwise |R^D kappa - RHS|: the Ricci equation applied to kappa.

    R^D = D_zbar D_z - D_z D_zbar is the curvature of the normal connection
    D = P d on V^perp_C.  Its left side is the normal 2-jet of kappa it is
    given, so the check is algebra: it reads neither a normal basis nor a
    derivative of P.  The Ricci equation gives R^D v =
    2<v,kappa> conj kappa - 2<v,conj kappa> kappa; for v = kappa this
    vanishes exactly where the normal bundle is flat.
    """
    kap = frame.kappa
    # right side first, then the left side minus it: two fields alive at once
    defect = 2.0 * frame.kk[..., None] * np.conj(kap)
    defect -= 2.0 * frame.kk_bar[..., None] * kap
    defect = dzbar_dz_kappa - dz_dzbar_kappa - defect
    return herm_norm(defect)


def willmore_energy_conformal(frame: FrameField) -> float:
    """W = 2i Int <kappa, conj kappa> dz ^ dzbar = 4 Int <k,kbar> du dv.

    Covering charts report the energy of a single cover.  On charts that
    are not fully periodic this is the energy of the truncated domain.
    """
    w = 4.0 * float(integrate(frame.kk_bar, frame.spec))
    return w / frame.chart.cover_count


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
    # |p - x|^2 = 2 - 2 p.x  on the unit sphere; the (candidates, points)
    # products are formed a block of whole grid lines at a time
    step = lines(chart.spec.nv) * chart.spec.nv
    max_dot = np.max([(cand @ pts[i:i + step].T).max(axis=1)
                      for i in range(0, len(pts), step)], axis=0)
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

