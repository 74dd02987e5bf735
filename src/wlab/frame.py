"""Light-cone lifts and the canonical moving frame of a conformal immersion.

A chart samples a conformally parametrized immersion x: grid -> S^n (unit
vectors of R^{n+1}).  Its light-cone lift is Y0 = (1, x) in R^{n+2}_1 and
the canonical lift fixes the scaling so that <Y_z, Y_zbar> = 1/2.  Every
criterion lives on that lift, so the lift checks the chart, once: finite
unit points, then a live metric and conformality on the Y0_z the scale is
read from.  The point-wise rank-4 bundle

    V = Span{Y, Re Y_z, Im Y_z, Y_zzbar}

is Lorentzian; its orthogonal complement V^perp is the conformal normal
bundle.  The frame vector N in V is pinned by

    <N, Y_z> = <N, Y_zbar> = <N, N> = 0,   <N, Y> = -1,

and is N = 2 Y_zzbar + 2 <kappa, conj kappa> Y, formed where it is read.
With b_i the four basis vectors above, g^{ij} the inverse of their Gram
matrix (Burstall, Pedit and Pinkall, Contemp. Math. 308, 2002) and
Q = diag(-1, 1, ..., 1), the projector onto V^perp along V is
P = I - sum_{i,j} b_i g^{ij} (Q b_j)^T; the Gram matrix stays invertible
at umbilic points because <Y, Y_zzbar> = -1/2.  Blocks of P, from these
16 rank-one terms, project Y_zz to kappa; every other vector is projected
along a Q-orthonormal basis e_k of V, as w - sum_k eps_k <w, e_k> e_k.
The pipeline needs no orthonormal basis of V^perp: every criterion pairs
kappa and its normal derivatives, which no choice of normal frame
changes.  `normal_basis` builds one on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import GridSpec, diff_z, wirtinger
from .lorentz import herm_norm_sq, mink_inner, signature
from .parallel import BLOCK_POINTS, split

UNIT_TOL = 1e-12
CONFORMAL_TOL_SPECTRAL = 1e-8
# finite-difference truncation of x_z dominates the conformality measurement
# on non-periodic charts (about 1e-4 for 32-point Mercator strips); 1e-8 is
# only attainable with exact trig modes.  Non-conformal charts sit at O(1).
CONFORMAL_TOL_FD = 1e-3
DEGENERATE_METRIC_TOL = 1e-14
PSI_RANK_TOL = 1e-8
PROJECTOR_BLOCK = 1024  # grid points per block of `perp_projector`'s sums


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
    cover_count: int = 1
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = self.points.shape
        if len(shape) != 3 or shape[:2] != (self.spec.nu, self.spec.nv):
            raise ChartError(f"points shape {shape} is not ({self.spec.nu}, {self.spec.nv}, n+1)")

    @property
    def ambient_n(self) -> int:
        """n, read from the points: the chart samples S^n in R^{n+1}."""
        return self.points.shape[-1] - 1

    @property
    def mask(self) -> np.ndarray:
        """(nu, nv) bool, True = usable for norms: the spec's interior mask."""
        return self.spec.interior_mask()

    @property
    def dim(self) -> int:
        """Dimension of the Minkowski home of the lifts."""
        return self.ambient_n + 2


@dataclass
class FrameField:
    """Canonical lift, its derivatives, kappa and the basis of V that
    `normal_project` projects along.  Y_zbar is conj(Y_z) and N is formed
    from kappa where it is read; neither is stored.
    """

    chart: Chart
    Y: np.ndarray          # (nu, nv, d) real
    Y_z: np.ndarray        # complex
    Y_zz: np.ndarray       # complex
    Y_zzbar: np.ndarray    # real
    mask: np.ndarray
    kappa: Optional[np.ndarray] = None    # V^perp_C part of Y_zz, complex
    V_basis: Optional[np.ndarray] = None  # (nu, nv, 4, d): e_0 timelike, e_1..e_3

    @property
    def spec(self) -> GridSpec:
        return self.chart.spec

    @property
    def dim(self) -> int:
        return self.Y.shape[-1]


def light_cone_lift(chart: Chart) -> np.ndarray:
    """Y0 = (1, x): the tautological lift, with <Y0, Y0> = 0 exactly.

    The one check of the points: ChartError unless each is a finite unit
    vector (a NaN norm compares False, so it is rejected).
    """
    defect = _unit_defect(chart.points)
    if not defect <= UNIT_TOL:
        bad = int((~np.isfinite(chart.points)).any(axis=-1).sum())
        raise ChartError(f"chart points are not finite unit vectors: {bad} non-finite "
                         f"point(s), unit defect {defect:.3e}")
    y0 = np.empty(chart.points.shape[:2] + (chart.dim,))
    y0[..., 0] = 1.0
    y0[..., 1:] = chart.points
    return y0


def _unit_defect(points: np.ndarray) -> float:
    return float(np.abs(np.linalg.norm(points, axis=-1) - 1.0).max())


def _checked_lift(chart: Chart):
    """(y0, rho, live, conformality): the light-cone lift, rho = <y0_z, conj
    y0_z>, live = rho > DEGENERATE_METRIC_TOL and the worst |<y0_z, y0_z>| /
    rho on the chart mask, a ratio no rescaling of y0 changes.  ChartError
    unless the points are finite unit vectors, the metric is live somewhere
    on the mask and the ratio is within the spectral or FD tolerance."""
    y0 = light_cone_lift(chart)
    y0_z = diff_z(y0, chart.spec)
    rho = herm_norm_sq(y0_z)
    live = rho > DEGENERATE_METRIC_TOL
    if not (chart.mask & live).any():
        raise ChartError("chart metric is degenerate everywhere")
    ratio = np.abs(mink_inner(y0_z, y0_z)) / np.maximum(rho, 1e-300)
    worst = float(ratio[chart.mask].max())
    if worst > (CONFORMAL_TOL_SPECTRAL if chart.spec.fully_periodic else CONFORMAL_TOL_FD):
        raise ChartError(f"chart is not conformal: |<x_z,x_z>|/<x_z,x_zbar> reaches {worst:.3e}")
    return y0, rho, live, worst


def validate_chart(chart: Chart) -> dict:
    """The check of `canonical_lift` without the rest of the frame: raises
    what it raises, and returns the measured unit defect and conformality."""
    *_, worst = _checked_lift(chart)
    return {"unit_defect": _unit_defect(chart.points), "conformality": worst}


def canonical_lift(chart: Chart) -> FrameField:
    """Scale the light-cone lift so that <Y_z, Y_zbar> = 1/2.

    The chart is checked here, once (see `validate_chart`).  The result
    does not depend on the scale of the lift it starts from, up to
    discretization error: the canonical lift is scale-fixing.
    """
    spec = chart.spec
    y0, rho, live, _ = _checked_lift(chart)
    Y = y0 / np.sqrt(2.0 * np.where(live, rho, 1.0))[..., None]
    Y_z = diff_z(Y, spec)  # real Y: diff_real with ROADMAP item 5 once item 1 floors abs_kk/theta
    Y_zz, Y_zzbar = wirtinger(Y_z, spec)
    return FrameField(
        chart=chart,
        Y=Y,
        Y_z=Y_z,
        Y_zz=Y_zz,
        Y_zzbar=Y_zzbar.real.copy(),  # Im is commutator noise; the copy frees it
        mask=chart.mask & live,
    )


def perp_projector(frame: FrameField) -> tuple[np.ndarray, np.ndarray]:
    """(kappa, V basis): Y_zz projected onto V^perp_C, and the basis of V.

    Per PROJECTOR_BLOCK of points: the basis [Y, Re Y_z, Im Y_z, Y_zzbar],
    its Gram matrix, the V basis from it, and the 16 terms (b_ia g^ij)(q_b
    b_jb) of P added in (i, j) row-major order into a zeroed (d, d, points)
    buffer, the einsum "uvia,uvij,uvjb,b->uvab" bit for bit, which projects
    that block of Y_zz and goes.
    """
    q = signature(frame.dim)
    nu, nv, d = frame.Y.shape
    y, y_z, y_zz, y_zzbar = (f.reshape(-1, d) for f in
                             (frame.Y, frame.Y_z, frame.Y_zz, frame.Y_zzbar))
    kappa = np.empty((nu * nv, d), dtype=complex)
    basis = np.empty((nu * nv, 4, d))
    idx = np.arange(d)

    def part(lo, hi):
        rows = slice(lo, hi)
        b = np.stack([y[rows], y_z[rows].real, y_z[rows].imag, y_zzbar[rows]], axis=1)
        g = np.einsum("pik,pjk,k->pij", b, b, q)
        np.matmul(_v_coefficients(b, g), b, out=basis[rows])
        b = np.ascontiguousarray(b.transpose(1, 2, 0))  # (i, a, points)
        ginv = np.ascontiguousarray(np.linalg.inv(g).transpose(1, 2, 0))  # (i, j, points)
        acc = np.zeros((d, d, b.shape[-1]))
        term, bg = np.empty_like(acc), np.empty_like(b[0])
        for i in range(4):
            for j in range(4):
                np.multiply(b[i], ginv[i, j], out=bg)  # b_ia g^ij
                np.multiply(bg[:, None], b[j, None], out=term)
                term[:, 0] *= -1.0  # times q_b b_jb: Q flips slot 0, exactly
                np.add(acc, term, out=acc)
        p = np.negative(acc.transpose(2, 0, 1), out=term.reshape(-1, d, d))
        p[:, idx, idx] += 1.0
        kappa[rows] = np.einsum("pab,pb->pa", p, y_zz[rows])

    split(part, nu * nv, PROJECTOR_BLOCK)
    return kappa.reshape(nu, nv, d), basis.reshape(nu, nv, 4, d)


def _v_coefficients(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(points, 4, 4) coefficients on b = [Y, Re Y_z, Im Y_z, Y_zzbar] of a
    Q-orthonormal basis e_0 (timelike), e_1, e_2, e_3 of its span, from its
    Gram matrix g: Gram-Schmidt on Re Y_z, Im Y_z, then a closed-form
    rotation (no eigh) of the Lorentzian 2x2 block h of Y / sigma, sigma
    Y_zzbar, sigma^2 = |Y| / |Y_zzbar| so that e_0, e_3 stay short.  No
    divisor reaches 0, so the basis is finite wherever g is."""
    tiny = np.finfo(float).tiny
    r1 = 1.0 / np.sqrt(np.maximum(np.abs(g[:, 1, 1]), tiny))
    t = g[:, 1, 2] * r1 * r1
    r2 = 1.0 / np.sqrt(np.maximum(np.abs(g[:, 2, 2] - t * g[:, 1, 2]), tiny))
    norms = np.maximum(np.sqrt(np.einsum("pia,pia->pi", b[:, ::3], b[:, ::3])), tiny)
    sigma = np.sqrt(norms[:, 0] / norms[:, 1])
    scale = np.stack([1.0 / sigma, sigma], axis=1)  # of y = Y / sigma, z = sigma Y_zzbar
    ends = g[:, ::3] * scale[:, :, None]  # <y, b_j>, <z, b_j>
    a1 = ends[:, :, 1] * r1[:, None]  # <y, e_1>, <z, e_1>
    a2 = (ends[:, :, 2] - t[:, None] * ends[:, :, 1]) * r2[:, None]  # with e_2
    h = ends[:, :, ::3] * scale[:, None] - a1[:, :, None] * a1[:, None] \
        - a2[:, :, None] * a2[:, None]
    h00, h03, h33 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    angle = 0.5 * np.arctan2(2.0 * h03, h00 - h33)
    lam_plus = np.maximum(0.5 * (h00 + h33) + 0.5 * np.hypot(h00 - h33, 2.0 * h03), tiny)
    lam = np.stack([np.abs((h00 * h33 - h03 * h03) / lam_plus), lam_plus], axis=1)
    c = np.zeros(g.shape)  # row k: the coefficients of e_k on b
    c[:, 1, 1], c[:, 2, 1], c[:, 2, 2] = r1, -t * r2, r2
    c[:, 0, 0], c[:, 3, 3] = scale[:, 0], scale[:, 1]  # y and z, then less e_1, e_2 parts
    c[:, ::3, 1], c[:, ::3, 2] = -a1 * r1[:, None] + a2 * (r2 * t)[:, None], -a2 * r2[:, None]
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([-sin, cos], axis=1), np.stack([cos, sin], axis=1)], axis=1)
    c[:, ::3] = rot / np.sqrt(np.maximum(lam, tiny))[:, :, None] @ c[:, ::3]  # e_0, e_3
    return c


def normal_project(basis: np.ndarray, field_vec: np.ndarray) -> np.ndarray:
    """Project a complex vector field onto V^perp_C pointwise along the
    (nu, nv, 4, d) basis of V, as w - sum_k eps_k <w, e_k> e_k, in place, a
    block of rows at a time, in real arithmetic on the (..., d, 2) view of
    the field: field_vec is overwritten and returned."""
    q, eps = signature(basis.shape[-1]), signature(4)[:, None]
    pairs = field_vec.view(float).reshape(field_vec.shape + (2,))

    def part(lo, hi):
        e = basis[lo:hi]
        coef = np.matmul(e, q[:, None] * pairs[lo:hi])  # <w, e_k>: (rows, nv, 4, 2)
        coef *= eps
        pairs[lo:hi] -= np.matmul(np.swapaxes(e, -1, -2), coef)

    split(part, len(field_vec), max(1, BLOCK_POINTS // field_vec.shape[1]))
    return field_vec


def normal_basis(frame: FrameField) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spacelike basis psi of V^perp by pivoted Gram-Schmidt.

    Built on demand only: the pivoted gauge is not smooth across grid
    points, and no criterion reads it.  The candidates are the columns
    P e_j = e_j - q_j sum_k eps_k e_kj e_k, formed from the V basis.  P is
    self-adjoint for the Minkowski pairing, so candidate j, deflated by the
    picks psi_m so far, is P e_j - sum_m q_j psi_mj psi_m with squared norm
    q_j P_jj - sum_m psi_mj^2; only the largest is formed and normalized.
    Returns (psi, ok_mask): psi is (nu, nv, n-2, d), and ok_mask is False
    where fewer than n-2 candidates clear PSI_RANK_TOL.
    """
    nu, nv, _, d = frame.V_basis.shape
    e = frame.V_basis.reshape(-1, 4, d)
    q, eps = signature(d), signature(4)
    psi = np.zeros((nu * nv, d - 4, d))
    ok = np.ones(nu * nv, dtype=bool)
    sq = q - np.einsum("pka,pka,k->pa", e, e, eps)
    for k in range(d - 4):
        j = np.argmax(sq, axis=-1)[:, None]
        best = np.take_along_axis(sq, j, axis=-1)[:, 0]
        ok &= best > PSI_RANK_TOL
        picked = psi[:, :k]
        psi_j = np.take_along_axis(picked, j[..., None], axis=-1)[..., 0]
        e_j = np.take_along_axis(e, j[..., None], axis=-1)[..., 0] * eps
        vec = (np.arange(d) == j) - q[j] * (np.einsum("pk,pka->pa", e_j, e)
                                            + np.einsum("pm,pmk->pk", psi_j, picked))
        psi[:, k] = vec / np.sqrt(np.maximum(best, PSI_RANK_TOL))[:, None]
        sq -= psi[:, k] ** 2
    return psi.reshape(nu, nv, d - 4, d), ok.reshape(nu, nv)


def build_frame(chart: Chart) -> FrameField:
    """Full frame pipeline: the checked canonical lift, kappa and the V
    basis.  Raises what `validate_chart` raises."""
    frame = canonical_lift(chart)
    frame.kappa, frame.V_basis = perp_projector(frame)
    return frame
