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

and is N = 2 Y_zzbar + 2 <kappa, conj kappa> Y.  With b_i the four basis
vectors above, g^{ij} the inverse of their Gram matrix (Burstall, Pedit
and Pinkall, Contemp. Math. 308, 2002) and Q = diag(-1, 1, ..., 1), the
projector onto V^perp along V is
P = I - sum_{i,j} b_i g^{ij} (Q b_j)^T; the Gram matrix stays invertible
at umbilic points because <Y, Y_zzbar> = -1/2.  Line blocks of P, from these
16 rank-one terms, project Y_zz to kappa, and the same walk over the lift
splits Y_zz = -(s/2) Y + kappa: it forms <kappa, conj kappa>, N from it
and the Schwarzian s = 2 <Y_zz, N>, the one place any of them is formed.
Every other vector is projected along a Q-orthonormal basis e_k of V, as
w - sum_k eps_k <w, e_k> e_k, which Gram-Schmidt builds from the null
pair (Y, N) and Re Y_z, Im Y_z.
The pipeline needs no orthonormal basis of V^perp: every criterion pairs
kappa and its normal derivatives, which no choice of normal frame
changes.  `normal_basis` builds one on demand.  `FrameField` is the one
record from lift to verdict: `invariants.hopf_schwarzian` adds <kappa,
kappa> and the umbilic mask to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .calculus import GridSpec, diff_z, wirtinger
from .lorentz import herm_norm, herm_norm_sq, mink_inner, signature
from .parallel import lines, split

UNIT_TOL = 1e-12
CONFORMAL_TOL_SPECTRAL = 1e-8
# finite-difference truncation of x_z dominates the conformality measurement
# on non-periodic charts (about 1e-4 for 32-point Mercator strips); 1e-8 is
# only attainable with exact trig modes.  Non-conformal charts sit at O(1).
CONFORMAL_TOL_FD = 1e-3
DEGENERATE_METRIC_TOL = 1e-14
PSI_RANK_TOL = 1e-8


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
    def dim(self) -> int:
        """Dimension of the Minkowski home of the lifts."""
        return self.ambient_n + 2


@dataclass
class FrameField:
    """The one record from lift to verdict: the canonical lift and its
    derivatives (None once `analyze` has read them), what `perp_projector`
    fills in (the split of Y_zz, its worst defects on the mask and the
    basis of V that `normal_project` projects along) and what
    `hopf_schwarzian` adds.  Y_zbar = conj(Y_z) and N are not stored."""

    chart: Chart
    Y: Optional[np.ndarray]        # (nu, nv, d) real
    Y_z: Optional[np.ndarray]      # complex
    Y_zz: Optional[np.ndarray]     # complex
    Y_zzbar: Optional[np.ndarray]  # real
    mask: np.ndarray
    kappa: Optional[np.ndarray] = None    # V^perp_C part of Y_zz, complex
    s: Optional[np.ndarray] = None        # (nu, nv) complex Schwarzian
    kk_bar: Optional[np.ndarray] = None   # <kappa, conj kappa>, real >= 0
    decomposition_defect: Optional[float] = None  # max |Y_zz + (s/2) Y - kappa|
    tangential_defect: Optional[float] = None     # max 2|<Y_zz, Y_z>|, 2|<Y_zz, Y_zbar>|
    V_basis: Optional[np.ndarray] = None  # (nu, nv, 4, d): e_0 timelike, e_1..e_3
    kk: Optional[np.ndarray] = None       # <kappa, kappa>, complex
    umbilic_mask: Optional[np.ndarray] = None  # True at (near-)umbilic points

    @property
    def spec(self) -> GridSpec:
        return self.chart.spec

    @property
    def dim(self) -> int:
        return self.chart.dim


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
    rho on the interior mask, a ratio no rescaling of y0 changes.  ChartError
    unless the points are finite unit vectors, the metric is live somewhere
    on the mask and the ratio is within the spectral or FD tolerance."""
    y0 = light_cone_lift(chart)
    y0_z = diff_z(y0, chart.spec)
    rho = herm_norm_sq(y0_z)
    live = rho > DEGENERATE_METRIC_TOL
    if not (chart.spec.interior_mask() & live).any():
        raise ChartError("chart metric is degenerate everywhere")
    ratio = np.abs(mink_inner(y0_z, y0_z)) / np.maximum(rho, 1e-300)
    worst = float(ratio[chart.spec.interior_mask()].max())
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
        mask=spec.interior_mask() & live,
    )


def perp_projector(frame: FrameField) -> FrameField:
    """A copy of the lift's frame, sharing its arrays, with the split
    Y_zz = -(s/2) Y + kappa, its defects and the V basis filled in.

    Per block of whole grid lines: the 16 terms (b_ia g^ij)(q_b b_jb) of P,
    from b = [Y, Re Y_z, Im Y_z, Y_zzbar] and its inverse Gram matrix g^ij,
    added in (i, j) row-major order into a zeroed (d, d, points) buffer (the
    einsum "uvia,uvij,uvjb,b->uvab" bit for bit), project that block of Y_zz
    to kappa.  Its rows then give kk_bar, N, s = 2 <Y_zz, N>, the V basis and
    the worst, on the mask, of the closure |Y_zz + (s/2) Y - kappa| and the
    tangential 2|<Y_zz, Y_z>|, 2|<Y_zz, Y_zbar>| (zero for canonical lifts).
    """
    q = signature(frame.dim)
    nu, nv, d = frame.Y.shape
    y, y_z, y_zz, y_zzbar = (f.reshape(-1, d) for f in
                             (frame.Y, frame.Y_z, frame.Y_zz, frame.Y_zzbar))
    kappa = np.empty((nu * nv, d), dtype=complex)
    basis = np.empty((nu * nv, 4, d))
    s, kk_bar = np.empty(nu * nv, dtype=complex), np.empty(nu * nv)
    # each block keeps its worst defects on the mask, so no defect field exists
    mask, worst = frame.mask.reshape(-1), {}
    idx = np.arange(d)

    def part(lo, hi):
        rows = slice(lo * nv, hi * nv)
        b = np.stack([y[rows], y_z[rows].real, y_z[rows].imag, y_zzbar[rows]], axis=1)
        ginv = np.linalg.inv(np.einsum("pik,pjk,k->pij", b, b, q))
        b = np.ascontiguousarray(b.transpose(1, 2, 0))  # (i, a, points)
        ginv = np.ascontiguousarray(ginv.transpose(1, 2, 0))  # (i, j, points)
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
        zz = y_zz[rows]
        kap = kappa[rows] = np.einsum("pab,pb->pa", p, zz)
        del acc, term, p, ginv, bg  # P is read no more; free it before the split forms its own
        kk_bar[rows] = herm_norm_sq(kap)
        # N as (points, a), like Y_zz, for s; the V basis takes an (a, points) copy
        n = 2.0 * y_zzbar[rows] + 2.0 * kk_bar[rows, None] * y[rows]
        s[rows] = 2.0 * mink_inner(zz, n)  # <Y_zz, N>
        decomp = herm_norm(zz - (-0.5 * s[rows, None] * y[rows] + kap))
        tang = np.maximum(np.abs(2.0 * mink_inner(zz, y_z[rows])),
                          np.abs(2.0 * mink_inner(zz, np.conj(y_z[rows]))))
        worst[lo] = [np.max(f, where=mask[rows], initial=-np.inf) for f in (decomp, tang)]
        basis[rows] = _v_basis(b, np.ascontiguousarray(n.T)).transpose(2, 0, 1)

    split(part, nu, lines(nv))
    decomp, tang = np.max(list(worst.values()), axis=0)  # a NaN on the mask stays NaN
    return replace(frame, kappa=kappa.reshape(nu, nv, d), s=s.reshape(nu, nv),
                   kk_bar=kk_bar.reshape(nu, nv), decomposition_defect=float(decomp),
                   tangential_defect=float(tang), V_basis=basis.reshape(nu, nv, 4, d))


def _v_basis(b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Q-orthonormal e_0 (timelike), e_1, e_2, e_3 of V, formed in place in
    the (4, d, points) b = [Y, Re Y_z, Im Y_z, *]: Minkowski Gram-Schmidt
    over Y/sigma + sigma N, Re Y_z, Im Y_z, Y/sigma - sigma N.  sigma^2 =
    |Y| / |N| (Euclidean) gives the null pair equal lengths; divisors
    floored at finfo.tiny keep the basis finite wherever its inputs are."""
    tiny = np.finfo(float).tiny
    norm_y, norm_n = (np.maximum(np.linalg.norm(f, axis=0), tiny) for f in (b[0], n))
    sigma = np.sqrt(norm_y) / np.sqrt(norm_n)
    y, n = b[0] / sigma, n * sigma
    b[0], b[3] = y + n, y - n
    eps = signature(4)
    for k in range(4):
        for m in range(k):
            b[k] -= eps[m] * mink_inner(b[k].T, b[m].T) * b[m]
        b[k] /= np.sqrt(np.maximum(np.abs(mink_inner(b[k].T, b[k].T)), tiny))
    return b


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

    split(part, len(field_vec), lines(field_vec.shape[1]))
    return field_vec


def normal_basis(frame: FrameField) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spacelike basis psi of V^perp, on demand: its gauge is not
    smooth across grid points, and no criterion reads it.  Per block of lines,
    QP = Q - sum_k eps_k (Q e_k)(Q e_k)^T, the Minkowski Gram of P's columns,
    is 0 on V and positive on V^perp; its n-2 largest eigenpairs (w, u), eigh's
    last, give psi = sqrt(w) Q u, as P u = w Q u.  Returns (psi, ok_mask): psi
    is (nu, nv, n-2, d), ok_mask False where a kept w is <= PSI_RANK_TOL."""
    nu, nv, _, d = frame.V_basis.shape
    e = frame.V_basis.reshape(-1, 4, d)
    q, eps = signature(d), signature(4)
    psi = np.empty((nu * nv, d - 4, d))
    ok = np.empty(nu * nv, dtype=bool)

    def part(lo, hi):
        rows = slice(lo * nv, hi * nv)
        qe = e[rows] * q
        w, u = np.linalg.eigh(np.diag(q) - np.einsum("pka,pkb,k->pab", qe, qe, eps))
        psi[rows] = (np.sqrt(w[:, 4:])[:, None] * q[:, None] * u[:, :, 4:]).transpose(0, 2, 1)
        ok[rows] = (w[:, 4:] > PSI_RANK_TOL).all(-1)

    split(part, nu, lines(nv))
    return psi.reshape(nu, nv, d - 4, d), ok.reshape(nu, nv)


def build_frame(chart: Chart) -> FrameField:
    """Full frame pipeline: the checked canonical lift, the split of Y_zz
    and the V basis.  Raises what `validate_chart` raises."""
    return perp_projector(canonical_lift(chart))
