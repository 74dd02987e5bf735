"""Differential and integral operators on rectangular parameter grids.

Fields live on an (nu, nv) grid carrying the complex coordinate
z = u + i v, so

    d/dz = (d/du - i d/dv) / 2,      d/dzbar = (d/du + i d/dv) / 2.

Periodic axes are differentiated by exact trigonometric (FFT)
interpolation; non-periodic axes use centered finite differences of
order 6 with one-sided stencils at the boundary rows.  Scalar fields are
(nu, nv) arrays; vector fields append trailing axes.  Axis 0 is u,
axis 1 is v.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .parallel import split

FD_ORDER = 6
# one-sided FD rows contaminate a margin this wide; residual norms skip it
BOUNDARY_MARGIN = 3
BLOCK_POINTS = 2048  # grid points per block of the blockwise in-place loops


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid over [u0, u0+Lu] x [v0, v0+Lv].

    Periodic axes sample n points with the right endpoint excluded;
    non-periodic axes include both endpoints.
    """

    nu: int
    nv: int
    Lu: float
    Lv: float
    periodic_u: bool = True
    periodic_v: bool = True
    u0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if self.nu < 8 or self.nv < 8:
            raise ValueError("grid sizes must be >= 8")
        if self.Lu <= 0 or self.Lv <= 0:
            raise ValueError("grid extents must be positive")

    @property
    def u(self) -> np.ndarray:
        if self.periodic_u:
            return self.u0 + self.Lu * np.arange(self.nu) / self.nu
        return self.u0 + np.linspace(0.0, self.Lu, self.nu)

    @property
    def v(self) -> np.ndarray:
        if self.periodic_v:
            return self.v0 + self.Lv * np.arange(self.nv) / self.nv
        return self.v0 + np.linspace(0.0, self.Lv, self.nv)

    @property
    def fully_periodic(self) -> bool:
        return self.periodic_u and self.periodic_v

    def meshgrid(self):
        return np.meshgrid(self.u, self.v, indexing="ij")

    def quad_weights(self) -> np.ndarray:
        """(nu, nv) quadrature weights: periodic-exact / trapezoid."""
        return np.outer(
            _axis_weights(self.nu, self.Lu, self.periodic_u),
            _axis_weights(self.nv, self.Lv, self.periodic_v),
        )

    def interior_mask(self, margin: int = BOUNDARY_MARGIN) -> np.ndarray:
        """True away from non-periodic boundaries (margin cells dropped)."""
        mask = np.ones((self.nu, self.nv), dtype=bool)
        if not self.periodic_u:
            mask[:margin, :] = False
            mask[-margin:, :] = False
        if not self.periodic_v:
            mask[:, :margin] = False
            mask[:, -margin:] = False
        return mask


def _axis_weights(n: int, length: float, periodic: bool) -> np.ndarray:
    if periodic:
        return np.full(n, length / n)
    h = length / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def _fornberg_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes x.

    Fornberg's recursion (Math. Comp. 51, 1988); returns weights for
    derivative orders 0..m, of which row m is used.
    """
    n = len(x)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=64)
def _fd_matrix(n: int, h: float) -> np.ndarray:
    """Dense first-derivative matrix, centered order-FD_ORDER stencils
    inside, one-sided at the first/last FD_ORDER/2 rows."""
    width = FD_ORDER + 1
    half = FD_ORDER // 2
    d = np.zeros((n, n))
    nodes = np.arange(width) * h
    for i in range(n):
        lo = min(max(0, i - half), n - width)
        d[i, lo : lo + width] = _fornberg_weights(nodes, (i - lo) * h, 1)
    return d


@lru_cache(maxsize=64)
def _spectral_wavenumbers(n: int, length: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # Nyquist mode has no well-defined first derivative
    return k


def _diff_axis(f: np.ndarray, axis: int, n: int, length: float, periodic: bool) -> np.ndarray:
    """Derivative along one grid axis.

    A periodic axis is transformed line by line, split over the lines of
    the other axis; each line's FFTs do not depend on the split, so the
    result is bit-identical for any number of parts.  A BLAS product rounds
    by the shape of its operands, so the finite-difference product is
    never split.
    """
    if f.shape[axis] != n:
        raise ValueError(f"field has {f.shape[axis]} points on axis {axis}, grid has {n}")
    if not periodic:
        d = _fd_matrix(n, length / (n - 1))
        out = np.tensordot(d, np.moveaxis(f, axis, 0), axes=(1, 0))
        return np.moveaxis(out, 0, axis)
    shape = [1] * f.ndim
    shape[axis] = n
    ik = 1j * _spectral_wavenumbers(n, length).reshape(shape)
    out = np.empty(f.shape, dtype=complex)
    other = 1 - axis

    def part(lo, hi):
        lines = (slice(None),) * other + (slice(lo, hi),)
        fhat = out[lines]
        np.fft.fft(f[lines], axis=axis, out=fhat)
        np.multiply(ik, fhat, out=fhat)
        np.fft.ifft(fhat, axis=axis, out=fhat)

    split(part, f.shape[other])
    return out


def diff_u(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    return _diff_axis(np.asarray(f), 0, spec.nu, spec.Lu, spec.periodic_u)


def diff_v(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    return _diff_axis(np.asarray(f), 1, spec.nv, spec.Lv, spec.periodic_v)


def row_blocks(lo: int, hi: int, nv: int) -> list[slice]:
    """Slices covering grid rows lo..hi, each of about BLOCK_POINTS points."""
    step = max(1, BLOCK_POINTS // nv)
    return [slice(start, min(start + step, hi)) for start in range(lo, hi, step)]


def _times_i(f_v: np.ndarray) -> np.ndarray:
    """1j * f_v, formed in the buffer of f_v when it is complex."""
    return np.multiply(1j, f_v, out=f_v if np.iscomplexobj(f_v) else None)


def diff_z(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    """d/dz = (d/du - i d/dv)/2.  Result is complex."""
    f_u = diff_u(f, spec)
    i_f_v = _times_i(diff_v(f, spec))
    return np.multiply(0.5, np.subtract(f_u, i_f_v, out=i_f_v), out=i_f_v)


def diff_zbar(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    """d/dzbar = (d/du + i d/dv)/2.  Result is complex."""
    f_u = diff_u(f, spec)
    i_f_v = _times_i(diff_v(f, spec))
    return np.multiply(0.5, np.add(f_u, i_f_v, out=i_f_v), out=i_f_v)


def wirtinger(f: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(d/dz f, d/dzbar f) from one diff_u and one diff_v, bit-identical to
    `diff_z` / `diff_zbar`.  They are formed in the buffers of d/du f and
    i d/dv f, a block of rows at a time, so only a block of d/dz f is extra."""
    f_u = diff_u(f, spec).astype(complex, copy=False)
    i_f_v = _times_i(diff_v(f, spec))
    for rows in row_blocks(0, spec.nu, spec.nv):
        f_z = f_u[rows] - i_f_v[rows]
        np.add(f_u[rows], i_f_v[rows], out=i_f_v[rows])
        f_u[rows] = f_z
    return np.multiply(0.5, f_u, out=f_u), np.multiply(0.5, i_f_v, out=i_f_v)


def integrate(f: np.ndarray, spec: GridSpec) -> complex:
    """Quadrature of a scalar field over the grid domain (du dv measure)."""
    f = np.asarray(f)
    if f.shape[:2] != (spec.nu, spec.nv):
        raise ValueError(f"field shape {f.shape[:2]} does not match grid ({spec.nu}, {spec.nv})")
    val = np.einsum("uv,uv->", spec.quad_weights(), f)
    return complex(val) if np.iscomplexobj(f) else float(val)


def convergence_order(sizes, residuals) -> float:
    """Least-squares slope of log(residual) versus log(size).

    `residuals` holds one positive residual per grid size (int).  A slope
    of -p means the residual decays like size^-p.  Warns (and still
    returns the slope) if the residuals fail to decrease.
    """
    sizes = list(sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes to fit an order")
    res = np.asarray(residuals, dtype=float)
    if np.any(res <= 0):
        res = np.maximum(res, 1e-300)
    if not np.all(np.diff(res) < 0):
        warnings.warn("residuals are not strictly decreasing; slope may be meaningless")
    slope = np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(res), 1)[0]
    return float(slope)


SUPERALGEBRAIC_SLOPE = -10.0
ROUNDOFF_FLOOR = 1e-10
ROUNDOFF_FRACTION = 1e-2


def classify_order(slope: float, residuals, tolerance: float) -> str:
    """Human label for a fitted convergence slope of `residuals`.

    A row is at its "roundoff floor" when every residual is below
    ROUNDOFF_FLOOR, whatever the sign of its noise slope, or when it does
    not fall while every residual is below ROUNDOFF_FRACTION of its verdict
    `tolerance`.  Else a slope below SUPERALGEBRAIC_SLOPE is "superalgebraic".
    """
    top = max(residuals)
    if top < ROUNDOFF_FLOOR or (slope >= 0 and top < ROUNDOFF_FRACTION * tolerance):
        return "roundoff floor"
    if slope < SUPERALGEBRAIC_SLOPE:
        return "superalgebraic"
    return f"order {round(-slope, 2) + 0.0:.2f}"  # + 0.0 turns -0.0 into 0.0
