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
vectors, never differentiated.  The pipeline needs no orthonormal basis of
V^perp: every criterion pairs kappa and its normal derivatives, which no
choice of normal frame changes.  `normal_basis` builds one on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import GridSpec, diff_z, row_blocks, wirtinger
from .lorentz import cmink_inner, herm_norm_sq, signature
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
    cover_count: int = 1
    name: str = "custom"
    params: dict = field(default_factory=dict)
    # (nu, nv) bool, True = usable for norms: the spec's interior mask
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.points.shape != (self.spec.nu, self.spec.nv, self.ambient_n + 1):
            raise ChartError(
                f"points shape {self.points.shape} does not match grid/ambient"
            )
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
    """Canonical lift, its derivatives, kappa, N and the V^perp projector.

    `P_perp` is the (d, d) field projecting R^{n+2}_1 (and its
    complexification) onto V^perp along V; it is applied to vectors, never
    differentiated.  Y_zbar is conj(Y_z) and is not stored.
    """

    chart: Chart
    Y: np.ndarray          # (nu, nv, d) real
    Y_z: np.ndarray        # complex
    Y_zz: np.ndarray       # complex
    Y_zzbar: np.ndarray    # real
    mask: np.ndarray
    kappa: Optional[np.ndarray] = None   # V^perp_C part of Y_zz, complex
    N: Optional[np.ndarray] = None       # real
    P_perp: Optional[np.ndarray] = None  # (nu, nv, d, d) real

    @property
    def spec(self) -> GridSpec:
        return self.chart.spec

    @property
    def dim(self) -> int:
        return self.Y.shape[-1]


def light_cone_lift(chart: Chart) -> np.ndarray:
    """Y0 = (1, x): the tautological lift, with <Y0, Y0> = 0 exactly."""
    norms = np.linalg.norm(chart.points, axis=-1)
    if not np.abs(norms - 1.0).max() <= UNIT_TOL:  # NaN compares False: rejected
        raise ChartError("chart points are not finite unit vectors")
    nu, nv, _ = chart.points.shape
    y0 = np.empty((nu, nv, chart.dim))
    y0[..., 0] = 1.0
    y0[..., 1:] = chart.points
    return y0


def canonical_lift(chart: Chart) -> FrameField:
    """Scale the light-cone lift so that <Y_z, Y_zbar> = 1/2.

    The result does not depend on the scale of the lift it starts from, up
    to discretization error: the canonical lift is scale-fixing.
    """
    spec = chart.spec
    y0 = light_cone_lift(chart)
    y0_z = diff_z(y0, spec)
    rho = cmink_inner(y0_z, np.conj(y0_z)).real
    mask = chart.mask & (rho > DEGENERATE_METRIC_TOL)
    if not mask.any():
        raise ChartError("chart metric is degenerate everywhere")
    safe_rho = np.where(rho > DEGENERATE_METRIC_TOL, rho, 1.0)
    Y = y0 / np.sqrt(2.0 * safe_rho)[..., None]
    Y_z = diff_z(Y, spec)
    Y_zz, Y_zzbar = wirtinger(Y_z, spec)
    return FrameField(
        chart=chart,
        Y=Y,
        Y_z=Y_z,
        Y_zz=Y_zz,
        Y_zzbar=Y_zzbar.real.copy(),  # Im is commutator noise; the copy frees it
        mask=mask,
    )


def perp_projector(frame: FrameField) -> np.ndarray:
    """(d, d) field projecting onto V^perp along V, via the Gram solve.

    Per PROJECTOR_BLOCK of points: the basis [Y, Re Y_z, Im Y_z, Y_zzbar],
    its Gram inverse, and the 16 terms (b_ia g^ij)(q_b b_jb) added in (i, j)
    row-major order into a zeroed (d, d, points) buffer: the products and
    the order of the einsum "uvia,uvij,uvjb,b->uvab", bit for bit, with
    every inner loop over contiguous points.
    """
    q = signature(frame.dim)
    nu, nv, d = frame.Y.shape
    y, y_z, y_zzbar = (f.reshape(-1, d) for f in (frame.Y, frame.Y_z, frame.Y_zzbar))
    p = np.empty((nu * nv, d, d))
    idx = np.arange(d)

    def part(lo, hi):
        for start in range(lo, hi, PROJECTOR_BLOCK):
            rows = slice(start, start + PROJECTOR_BLOCK)
            b = np.stack([y[rows], y_z[rows].real, y_z[rows].imag, y_zzbar[rows]], axis=1)
            ginv = np.linalg.inv(np.einsum("pik,pjk,k->pij", b, b, q))
            b = np.ascontiguousarray(b.transpose(1, 2, 0))  # (i, a, points)
            ginv = np.ascontiguousarray(ginv.transpose(1, 2, 0))  # (i, j, points)
            bg = b[:, None] * ginv[:, :, None]  # b_ia g^ij: (i, j, a, points)
            bq = b * q[:, None]  # Q b_j; the signs +-1 are exact
            acc = np.zeros((d, d, b.shape[-1]))
            term = np.empty_like(acc)
            for i in range(4):
                for j in range(4):
                    np.add(acc, np.multiply(bg[i, j, :, None], bq[j, None], out=term), out=acc)
            blk = p[rows]
            np.negative(acc.transpose(2, 0, 1), out=blk)
            blk[:, idx, idx] += 1.0

    split(part, nu * nv, PROJECTOR_BLOCK)
    return p.reshape(nu, nv, d, d)


def normal_project(p_perp: np.ndarray, field_vec: np.ndarray) -> np.ndarray:
    """Project a complex vector field onto V^perp_C pointwise by the
    (nu, nv, d, d) projector field p_perp, in place, a block of rows at a
    time: field_vec is overwritten and returned."""

    def part(lo, hi):
        for rows in row_blocks(lo, hi, field_vec.shape[1]):
            field_vec[rows] = np.einsum("uvab,uvb->uva", p_perp[rows], field_vec[rows])

    split(part, len(field_vec))
    return field_vec


def normal_basis(frame: FrameField) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spacelike basis psi of V^perp by pivoted Gram-Schmidt.

    Built on demand only: the pivoted gauge is not smooth across grid
    points, and no criterion reads it.  The candidates are the columns
    P e_j of P_perp.  P is self-adjoint for the Minkowski pairing, so
    candidate j, deflated by the picks psi_m so far, is P e_j - sum_m q_j
    psi_mj psi_m with squared norm q_j P_jj - sum_m psi_mj^2; only the
    largest is formed and normalized.  Returns (psi, ok_mask): psi is
    (nu, nv, n-2, d), and ok_mask is False where fewer than n-2 candidates
    clear PSI_RANK_TOL.
    """
    nu, nv, d, _ = frame.P_perp.shape
    p = frame.P_perp.reshape(-1, d, d)
    q = signature(d)
    psi = np.zeros((nu * nv, d - 4, d))
    ok = np.ones(nu * nv, dtype=bool)
    sq = q * np.diagonal(p, axis1=-2, axis2=-1)
    for k in range(d - 4):
        j = np.argmax(sq, axis=-1)[:, None]
        best = np.take_along_axis(sq, j, axis=-1)[:, 0]
        ok &= best > PSI_RANK_TOL
        picked = psi[:, :k]
        psi_j = np.take_along_axis(picked, j[..., None], axis=-1)[..., 0]
        vec = np.take_along_axis(p, j[..., None], axis=-1)[..., 0] \
            - q[j] * np.einsum("pm,pmk->pk", psi_j, picked)
        psi[:, k] = vec / np.sqrt(np.maximum(best, PSI_RANK_TOL))[:, None]
        sq -= psi[:, k] ** 2
    return psi.reshape(nu, nv, d - 4, d), ok.reshape(nu, nv)


def build_frame(chart: Chart, validate: bool = True) -> FrameField:
    """Full frame pipeline: canonical lift, projector, kappa and N."""
    if validate:
        validate_chart(chart)
    frame = canonical_lift(chart)
    frame.P_perp = perp_projector(frame)
    frame.kappa = normal_project(frame.P_perp, frame.Y_zz.copy())
    frame.N = 2.0 * frame.Y_zzbar + 2.0 * herm_norm_sq(frame.kappa)[..., None] * frame.Y
    return frame

