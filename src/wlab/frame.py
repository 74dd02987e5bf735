"""Light-cone lifts and the canonical moving frame of a conformal immersion.

A chart samples a conformally parametrized immersion x: grid -> S^n (unit
vectors of R^{n+1}).  Its light-cone lift is Y0 = (1, x) in R^{n+2}_1 and
the canonical lift fixes the scaling so that <Y_z, Y_zbar> = 1/2.  The
point-wise rank-4 bundle

    V = Span{Y, Re Y_z, Im Y_z, Y_zzbar}

is Lorentzian; its orthogonal complement V^perp is the conformal normal
bundle.  The frame vector N in V is pinned by

    <N, Y_z> = <N, Y_zbar> = <N, N> = 0,   <N, Y> = -1,

and is computed as N = 2 Y_zzbar + 2 <kappa, conj kappa> Y once the normal
part of Y_zz is known.  With b_i the four basis vectors above, g^{ij} the
inverse of their Gram matrix and Q = diag(-1, 1, ..., 1), the projector
onto V^perp along V is P = I - sum_{i,j} b_i g^{ij} (Q b_j)^T; the Gram
matrix stays invertible at umbilic points because <Y, Y_zzbar> = -1/2.
P is built from these 16 rank-one terms and only ever applied to
vectors, never differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import GridSpec, diff_z, diff_zbar
from .lorentz import mink_inner, cmink_inner, herm_norm_sq, signature
from .parallel import split

UNIT_TOL = 1e-12
CONFORMAL_TOL_SPECTRAL = 1e-8
# finite-difference truncation of x_z dominates the conformality measurement
# on non-periodic charts (about 1e-4 for 32-point Mercator strips); 1e-8 is
# only attainable with exact trig modes.  Non-conformal charts sit at O(1).
CONFORMAL_TOL_FD = 1e-3
DEGENERATE_METRIC_TOL = 1e-14
PSI_RANK_TOL = 1e-8
PROJECTOR_BLOCK = 512  # grid points per block of `perp_projector`'s sums
BASIS_BLOCK = 4096  # grid points per block of `normal_basis`'s pivoting


class ChartError(ValueError):
    """A chart violates its construction contract (unit norm, conformality)."""


@dataclass
class Chart:
    """Grid of unit vectors in R^{n+1} sampling an immersed patch of S^n.

    `cover_count` > 1 records that the grid domain covers the underlying
    closed surface that many times (Hopf charts with twisted closure);
    integrated energies are reported per single cover.
    """

    spec: GridSpec
    points: np.ndarray  # (nu, nv, n+1)
    ambient_n: int
    mask: np.ndarray = None  # (nu, nv) bool; True = usable for norms
    cover_count: int = 1
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points.shape != (self.spec.nu, self.spec.nv, self.ambient_n + 1):
            raise ChartError(
                f"points shape {self.points.shape} does not match grid/ambient"
            )
        if self.mask is None:
            self.mask = self.spec.interior_mask()

    @property
    def dim(self) -> int:
        """Dimension of the Minkowski home of the lifts."""
        return self.ambient_n + 2


def validate_chart(chart: Chart) -> dict:
    """Check finiteness, unit norm, a non-degenerate metric and
    conformality; raise ChartError on violation.

    Returns the measured statistics.  The conformality tolerance is
    CONFORMAL_TOL_SPECTRAL on fully periodic (spectral) charts and
    CONFORMAL_TOL_FD otherwise.
    """
    bad = int((~np.isfinite(chart.points)).any(axis=-1).sum())
    if bad:
        raise ChartError(f"chart has {bad} non-finite point(s)")
    norms = np.linalg.norm(chart.points, axis=-1)
    unit_defect = float(np.abs(norms - 1.0).max())
    if unit_defect > UNIT_TOL:
        raise ChartError(f"chart points deviate from S^n by {unit_defect:.3e}")
    conformal_tol = (
        CONFORMAL_TOL_SPECTRAL if chart.spec.fully_periodic else CONFORMAL_TOL_FD
    )
    xz = diff_z(chart.points, chart.spec)
    den = np.einsum("uvk,uvk->uv", xz, np.conj(xz)).real
    if not (chart.mask & (den > DEGENERATE_METRIC_TOL)).any():
        raise ChartError("chart metric is degenerate everywhere")
    ratio = np.abs(np.einsum("uvk,uvk->uv", xz, xz)) / np.maximum(den, 1e-300)
    worst = float(ratio[chart.mask].max())
    if worst > conformal_tol:
        raise ChartError(
            f"chart is not conformal: |<x_z,x_z>|/<x_z,x_zbar> reaches {worst:.3e}"
        )
    return {"unit_defect": unit_defect, "conformality": worst}


@dataclass
class FrameField:
    """Canonical lift, its derivatives, kappa, N, and an orthonormal V^perp basis.

    `P_perp` is the (d, d) field projecting R^{n+2}_1 (and its
    complexification) onto V^perp along V; it is applied to vectors, never
    differentiated.  `psi` holds n-2 orthonormal spacelike vectors
    spanning V^perp, pivoted point by point in `normal_basis`; that gauge
    is not smooth, so diagnostics use only pairings that do not depend on
    it, never psi components.
    """

    chart: Chart
    spec: GridSpec
    Y: np.ndarray          # (nu, nv, d) real
    Y_z: np.ndarray        # complex
    Y_zbar: np.ndarray     # complex
    Y_zz: np.ndarray       # complex
    Y_zzbar: np.ndarray    # real
    rho: np.ndarray        # <Y0_z, Y0_zbar>, the raw conformal factor
    mask: np.ndarray
    kappa: Optional[np.ndarray] = None   # V^perp_C part of Y_zz, complex
    N: Optional[np.ndarray] = None       # real
    P_perp: Optional[np.ndarray] = None  # (nu, nv, d, d) real
    psi: Optional[np.ndarray] = None     # (nu, nv, n-2, d) real

    @property
    def dim(self) -> int:
        return self.Y.shape[-1]


def light_cone_lift(chart: Chart) -> np.ndarray:
    """Y0 = (1, x): the tautological lift, with <Y0, Y0> = 0 exactly."""
    norms = np.linalg.norm(chart.points, axis=-1)
    if np.abs(norms - 1.0).max() > UNIT_TOL:
        raise ChartError("chart points are not unit vectors")
    nu, nv, _ = chart.points.shape
    y0 = np.empty((nu, nv, chart.dim))
    y0[..., 0] = 1.0
    y0[..., 1:] = chart.points
    return y0


def canonical_lift(chart: Chart, prescale: Optional[np.ndarray] = None) -> FrameField:
    """Scale the light-cone lift so that <Y_z, Y_zbar> = 1/2.

    `prescale` multiplies Y0 by an arbitrary positive field first; the
    result is unchanged up to discretization error (the canonical lift is
    scale-fixing), which is exactly what the regression test exercises.
    """
    spec = chart.spec
    y0 = light_cone_lift(chart)
    if prescale is not None:
        y0 = y0 * prescale[..., None]
    y0_z = diff_z(y0, spec)
    rho = cmink_inner(y0_z, np.conj(y0_z)).real
    mask = chart.mask & (rho > DEGENERATE_METRIC_TOL)
    if not mask.any():
        raise ChartError("chart metric is degenerate everywhere")
    safe_rho = np.where(rho > DEGENERATE_METRIC_TOL, rho, 1.0)
    Y = y0 / np.sqrt(2.0 * safe_rho)[..., None]
    Y_z = diff_z(Y, spec)
    Y_zz = diff_z(Y_z, spec)
    Y_zzbar = diff_zbar(Y_z, spec).real  # imaginary part is pure commutator noise
    return FrameField(
        chart=chart,
        spec=spec,
        Y=Y,
        Y_z=Y_z,
        Y_zbar=np.conj(Y_z),
        Y_zz=Y_zz,
        Y_zzbar=Y_zzbar,
        rho=rho,
        mask=mask,
    )


def _v_basis(frame: FrameField) -> np.ndarray:
    """Real basis of V: (nu, nv, 4, d) = [Y, Re Y_z, Im Y_z, Y_zzbar]."""
    return np.stack(
        [frame.Y, frame.Y_z.real, frame.Y_z.imag, frame.Y_zzbar], axis=2
    )


def perp_projector(frame: FrameField) -> np.ndarray:
    """(d, d) field projecting onto V^perp along V, via the Gram solve.

    The Gram inverse and the rank-one terms are taken per PROJECTOR_BLOCK of
    points; the terms are summed over (i, j) in row-major order into a
    zeroed block: the order and rounding of the einsum
    "uvia,uvij,uvjb,b->uvab", so the result is bit-identical to it.
    """
    b = _v_basis(frame)
    q = signature(frame.dim)
    nu, nv, _, d = b.shape
    b = b.reshape(-1, 4, d)
    p = np.empty((nu * nv, d, d))
    idx = np.arange(d)

    def part(lo, hi):
        for start in range(lo, hi, PROJECTOR_BLOCK):
            rows = slice(start, start + PROJECTOR_BLOCK)
            blk, b_blk = p[rows], b[rows]
            ginv = np.linalg.inv(np.einsum("pik,pjk,k->pij", b_blk, b_blk, q))
            bg = b_blk[:, :, None, :] * ginv[:, :, :, None]  # b_ia g^ij: (m, i, j, a)
            bq = b_blk * q  # Q b_j; the signs +-1 are exact
            blk[...] = 0.0
            for i in range(4):
                for j in range(4):
                    blk += bg[:, i, j, :, None] * bq[:, j, None, :]
            np.negative(blk, out=blk)
            blk[:, idx, idx] += 1.0

    split(part, nu * nv, PROJECTOR_BLOCK)
    return p.reshape(nu, nv, d, d)


def normal_project(frame: FrameField, field_vec: np.ndarray) -> np.ndarray:
    """Project an ambient (complex) vector field onto V^perp_C pointwise."""
    p = frame.P_perp
    out = np.empty(field_vec.shape, dtype=np.result_type(p, field_vec))

    def part(lo, hi):
        np.einsum("uvab,uvb->uva", p[lo:hi], field_vec[lo:hi], out=out[lo:hi])

    split(part, len(out))
    return out


def frame_N(frame: FrameField, kappa_norm: np.ndarray) -> np.ndarray:
    """N = 2 Y_zzbar + 2 <kappa, conj kappa> Y.

    This inverts the structure relation Y_zzbar = -<kappa, conj kappa> Y
    + N/2 and lands on the unique vector with <N,Y_z> = <N,Y_zbar> =
    <N,N> = 0 and <N,Y> = -1.
    """
    return 2.0 * frame.Y_zzbar + 2.0 * kappa_norm[..., None] * frame.Y


def normal_basis(frame: FrameField) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spacelike basis of V^perp by pivoted Gram-Schmidt.

    The candidates are the columns P e_j of P_perp.  P is self-adjoint for
    the Minkowski pairing, so candidate j, deflated by the picks psi_m so
    far, is P e_j - sum_m q_j psi_mj psi_m with squared norm q_j P_jj -
    sum_m psi_mj^2; only the largest is formed and normalized.  Points are
    pivoted BASIS_BLOCK at a time, so the work arrays stay block-sized.
    Returns (psi, ok_mask); ok_mask is False where fewer than n-2
    candidates clear PSI_RANK_TOL.
    """
    nu, nv, d, _ = frame.P_perp.shape
    p = frame.P_perp.reshape(-1, d, d)
    q = signature(d)
    psi = np.zeros((nu * nv, d - 4, d))
    ok = np.ones(nu * nv, dtype=bool)

    def part(lo, hi):
        for start in range(lo, hi, BASIS_BLOCK):
            rows = slice(start, start + BASIS_BLOCK)
            p_blk, psi_blk = p[rows], psi[rows]
            sq = q * np.diagonal(p_blk, axis1=-2, axis2=-1)
            for k in range(d - 4):
                j = np.argmax(sq, axis=-1)[:, None]
                best = np.take_along_axis(sq, j, axis=-1)[:, 0]
                ok[rows] &= best > PSI_RANK_TOL
                picked = psi_blk[:, :k]
                psi_j = np.take_along_axis(picked, j[..., None], axis=-1)[..., 0]
                vec = np.take_along_axis(p_blk, j[..., None], axis=-1)[..., 0] \
                    - q[j] * np.einsum("pm,pmk->pk", psi_j, picked)
                psi_blk[:, k] = vec / np.sqrt(np.maximum(best, PSI_RANK_TOL))[:, None]
                sq -= psi_blk[:, k] ** 2

    split(part, nu * nv, BASIS_BLOCK)
    return psi.reshape(nu, nv, d - 4, d), ok.reshape(nu, nv)


def build_frame(chart: Chart, validate: bool = True) -> FrameField:
    """Full frame pipeline: canonical lift, projector, kappa, N, normal basis.

    Raises ChartError when no live point keeps a full normal basis.
    """
    if validate:
        validate_chart(chart)
    frame = canonical_lift(chart)
    frame.P_perp = perp_projector(frame)
    frame.kappa = normal_project(frame, frame.Y_zz)
    frame.N = frame_N(frame, herm_norm_sq(frame.kappa))
    psi, ok = normal_basis(frame)
    frame.psi = psi
    frame.mask = frame.mask & ok
    if not frame.mask.any():
        raise ChartError("normal basis is rank-deficient at every live point")
    return frame


def frame_residuals(frame: FrameField) -> dict:
    """Max violations of the defining frame relations over the mask.

    On spectral charts every entry sits at roundoff; on finite-difference
    charts they scale with the truncation error of the grid derivatives.
    """
    m = frame.mask

    def worst(x):
        return float(np.abs(np.asarray(x))[m].max())

    res = {
        "<Y,Y>": worst(mink_inner(frame.Y, frame.Y)),
        "<Y_z,Y_z>": worst(cmink_inner(frame.Y_z, frame.Y_z)),
        "<Y_z,Y_zbar>-1/2": worst(cmink_inner(frame.Y_z, frame.Y_zbar) - 0.5),
    }
    if frame.N is not None:
        res.update(
            {
                "<N,Y>+1": worst(mink_inner(frame.N, frame.Y) + 1.0),
                "<N,N>": worst(mink_inner(frame.N, frame.N)),
                "<N,Y_z>": worst(cmink_inner(frame.N.astype(complex), frame.Y_z)),
            }
        )
    if frame.psi is not None and frame.psi.shape[2] > 0:
        q = signature(frame.dim)
        gram = np.einsum("uvik,uvjk,k->uvij", frame.psi, frame.psi, q)
        eye = np.eye(frame.psi.shape[2])
        res["psi_gram-id"] = worst(gram - eye)
        for label, vec in (
            ("psi.Y", frame.Y.astype(complex)),
            ("psi.Y_z", frame.Y_z),
            ("psi.N", frame.N.astype(complex)),
        ):
            pair = np.einsum("uvik,uvk,k->uvi", frame.psi.astype(complex), vec, q)
            res[f"<{label}>"] = worst(np.abs(pair).max(axis=-1))
    return res
