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
from typing import Optional

import numpy as np

from .parallel import lines, split

FD_ORDER = 6
# one-sided FD rows contaminate a margin this wide; residual norms skip it
BOUNDARY_MARGIN = 3
# the fewest points a grid axis may have, for the library and the CLI alike
MIN_GRID_POINTS = 8


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
        if min(self.nu, self.nv) < MIN_GRID_POINTS:
            raise ValueError(f"grid sizes must be >= {MIN_GRID_POINTS}")
        if not (0 < self.Lu < np.inf and 0 < self.Lv < np.inf):  # False for NaN
            raise ValueError(f"grid extents must be positive and finite, not {self.Lu}, {self.Lv}")
        if not (np.isfinite(self.u0) and np.isfinite(self.v0)):
            raise ValueError(f"grid origins must be finite, not {self.u0}, {self.v0}")

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
    stencils = [_fornberg_weights(nodes, k * h, 1) for k in range(width)]
    for i in range(n):
        lo = min(max(0, i - half), n - width)
        d[i, lo : lo + width] = stencils[i - lo]
    return d


@lru_cache(maxsize=64)
def _spectral_wavenumbers(n: int, length: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # Nyquist mode has no well-defined first derivative
    return k


def _diff_axis(f: np.ndarray, axis: int, n: int, length: float, periodic: bool,
               combine=None) -> Optional[np.ndarray]:
    """Derivative along one grid axis.

    A periodic axis is transformed line by line, split over the lines of
    the other axis; each line's FFTs do not depend on the split, so the
    result is bit-identical for any number of parts.  A BLAS product rounds
    by the shape of its operands, so the finite-difference product is
    never split.  With `combine`, each block of `parallel.lines(n)` lines
    of the derivative goes to combine(index of f, block) in place of a
    whole result.
    """
    if f.shape[axis] != n:
        raise ValueError(f"field has {f.shape[axis]} points on axis {axis}, grid has {n}")
    if not periodic:
        d = _fd_matrix(n, length / (n - 1))
        out = np.moveaxis(np.tensordot(d, np.moveaxis(f, axis, 0), axes=(1, 0)), 0, axis)
        return out if combine is None else combine((slice(None),), out)
    shape = [1] * f.ndim
    shape[axis] = n
    ik = 1j * _spectral_wavenumbers(n, length).reshape(shape)
    out = np.empty(f.shape, dtype=complex) if combine is None else None
    other = 1 - axis

    def part(lo, hi):
        lines = (slice(None),) * other + (slice(lo, hi),)
        fhat = np.empty(f[lines].shape, dtype=complex) if combine else out[lines]
        np.fft.fft(f[lines], axis=axis, out=fhat)
        np.multiply(ik, fhat, out=fhat)
        np.fft.ifft(fhat, axis=axis, out=fhat)
        if combine:
            combine(lines, fhat)

    split(part, f.shape[other], lines(n) if combine else 0)
    return out


def diff_real(f: np.ndarray, spec: GridSpec, axis: int, order: int = 2) -> tuple[np.ndarray, ...]:
    """(f', f'') of a real field along axis 0 (u) or 1 (v), real; (f',) for
    order 1.  FD: the matrix of `_diff_axis`, once per order.  Periodic: one
    rfft, then irffts of ik and -k^2 times it (Nyquist 0).  Not split across
    threads: a split version measured no faster on two cores."""
    n, length, periodic = ((spec.nu, spec.Lu, spec.periodic_u) if axis == 0
                           else (spec.nv, spec.Lv, spec.periodic_v))
    if not periodic:
        f1 = _diff_axis(f, axis, n, length, False)
        return (f1,) if order == 1 else (f1, _diff_axis(f1, axis, n, length, False))
    if f.shape[axis] != n:
        raise ValueError(f"field has {f.shape[axis]} points on axis {axis}, grid has {n}")
    k = _spectral_wavenumbers(n, length)[: n // 2 + 1].reshape((-1,) + (1,) * (f.ndim - 1 - axis))
    fhat = np.fft.rfft(f, axis=axis)
    return tuple(np.fft.irfft(m * fhat, n, axis=axis) for m in (1j * k, -k * k)[:order])


def diff_u(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    return _diff_axis(np.asarray(f), 0, spec.nu, spec.Lu, spec.periodic_u)


def diff_v(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    return _diff_axis(np.asarray(f), 1, spec.nv, spec.Lv, spec.periodic_v)


def _times_i(f_v: np.ndarray) -> np.ndarray:
    """1j * f_v, formed in the buffer of f_v when it is complex."""
    return np.multiply(1j, f_v, out=f_v if np.iscomplexobj(f_v) else None)


def diff_z(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    """d/dz = (d/du - i d/dv)/2.  Result is complex."""
    return _wirtinger(f, spec, np.subtract)[0]


def diff_zbar(f: np.ndarray, spec: GridSpec) -> np.ndarray:
    """d/dzbar = (d/du + i d/dv)/2.  Result is complex."""
    return _wirtinger(f, spec, np.add)[0]


def wirtinger(f: np.ndarray, spec: GridSpec,
              out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """(d/dz f, d/dzbar f), bit-identical to `diff_z` / `diff_zbar`; d/dzbar f
    is formed in `out`: a new array, or a complex f that is read no more."""
    return _wirtinger(f, spec, np.subtract, np.empty(np.shape(f), complex) if out is None else out)


def _wirtinger(f: np.ndarray, spec: GridSpec, op, zbar: Optional[np.ndarray] = None):
    """(d/du f op i d/dv f) / 2 in the buffer of d/du f, and d/dzbar f in
    `zbar` if given; d/dv f exists only a block of rows at a time."""
    f = np.asarray(f)
    f_u = diff_u(f, spec).astype(complex, copy=False)

    def combine(rows, f_v):
        i_f_v = _times_i(f_v)
        if zbar is not None:
            np.multiply(0.5, f_u[rows] + i_f_v, out=zbar[rows])
        np.multiply(0.5, op(f_u[rows], i_f_v, out=i_f_v), out=f_u[rows])

    _diff_axis(f, 1, spec.nv, spec.Lv, spec.periodic_v, combine)
    return f_u, zbar


def integrate(f: np.ndarray, spec: GridSpec) -> complex:
    """Quadrature of a scalar field over the grid domain (du dv measure)."""
    f = np.asarray(f)
    if f.shape[:2] != (spec.nu, spec.nv):
        raise ValueError(f"field shape {f.shape[:2]} does not match grid ({spec.nu}, {spec.nv})")
    # einsum rounds by the memory layout of f, so every f is summed in C order
    val = np.einsum("uv,uv->", spec.quad_weights(), np.ascontiguousarray(f))
    return complex(val) if np.iscomplexobj(f) else float(val)


def convergence_order(sizes, residuals) -> float:
    """Least-squares slope of log(residual) versus log(size).

    `residuals` holds one positive, finite residual per grid size (int),
    else ValueError.  A slope of -p means the residual decays like
    size^-p.  Warns (and still returns the slope) if they fail to decrease.
    """
    sizes = list(sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes to fit an order")
    res = np.asarray(residuals, dtype=float)
    if not np.all((res > 0) & np.isfinite(res)):
        raise ValueError(f"residuals must be positive and finite, not {res.tolist()}")
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
