"""Constructors for the example surfaces and their transformations.

The S^1-invariant charts come from the Hopf fibration S^{2m-1} -> CP^{m-1}:
a horizontal unit-speed lift gamma(t) of a base curve, with frame

    gamma' = xi,
    xi'    = k1 * i * xi + k2 * eta - gamma,
    eta'   = -k2 * xi,

(i the ambient complex unit; eta kept unit and perpendicular to gamma,
i gamma, xi, i xi; eta' = -k2 xi is the minimal choice preserving all the
constraints) yields the surface x(t, theta) = e^{i theta} gamma(t), for
which z = t + i theta is a conformal coordinate.

A closed base curve has frame monodromy gamma(T) = e^{i phi} gamma(0).
Rectangular doubly periodic grids exist only on a q-fold cover in t.
One closure rule gives q, the denominator of phi / 2pi, or None for an
open curve or an irrational twist; one cover rule (`_hopf_chart`) builds
the q-fold cover, recorded in Chart.cover_count so integrated energies
stay per-torus, or for q = None a single non-periodic quasi-period
(closed=False).  A Pinkall torus is the two-frequency homogeneous lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .calculus import GridSpec
from .frame import Chart, light_cone_lift

TWO_PI = 2.0 * np.pi
MAX_TWIST_DENOMINATOR = 64
MONODROMY_TOL = 1e-8
ODE_SEGMENTS_PER_PERIOD = 64
FRAME_DRIFT_ABORT = 1e-6


# ---------------------------------------------------------------------------
# basic charts
# ---------------------------------------------------------------------------

def clifford(nu: int, nv: int) -> Chart:
    """The minimal product torus in S^3, x = (cos u, sin u, cos v, sin v)/sqrt2."""
    spec = GridSpec(nu, nv, TWO_PI, TWO_PI, True, True)
    u, v = spec.meshgrid()
    r = 1.0 / np.sqrt(2.0)
    pts = np.stack(
        [r * np.cos(u), r * np.sin(u), r * np.cos(v), r * np.sin(v)], axis=-1
    )
    return Chart(spec, pts, name="clifford")


def round_sphere(nu: int, nv: int, ambient_n: int = 4, extent: float = 2.5) -> Chart:
    """Totally umbilic control: Mercator chart of an equatorial S^2.

    x = (sech u cos v, sech u sin v, tanh u), zero-padded into S^ambient_n;
    u in [-extent, extent] is non-periodic (the poles are excluded).
    """
    if ambient_n < 2:
        raise ValueError("ambient sphere dimension must be >= 2")
    spec = GridSpec(nu, nv, 2 * extent, TWO_PI, False, True, u0=-extent)
    u, v = spec.meshgrid()
    sech = 1.0 / np.cosh(u)
    pts = np.zeros((nu, nv, ambient_n + 1))
    pts[..., 0] = sech * np.cos(v)
    pts[..., 1] = sech * np.sin(v)
    pts[..., 2] = np.tanh(u)
    return Chart(spec, pts, name="round_sphere",
                 params={"ambient_n": ambient_n, "extent": extent})


def veronese(nu: int, nv: int, extent: float = 2.5) -> Chart:
    """Degree-2 minimal immersion of S^2 into S^4, Mercator-parametrized.

    Full in S^4, hence a non-flat-normal-bundle control.  The conformal
    factor decays like sech(u); `extent` = 2.5 keeps it conditioned.
    """
    sphere = round_sphere(nu, nv, 2, extent)
    x, y, z = np.moveaxis(sphere.points, -1, 0)
    s3 = np.sqrt(3.0)
    pts = np.stack(
        [
            s3 * x * y,
            s3 * x * z,
            s3 * y * z,
            0.5 * s3 * (x * x - y * y),
            0.5 * (x * x + y * y - 2.0 * z * z),
        ],
        axis=-1,
    )
    return Chart(sphere.spec, pts, name="veronese", params={"extent": extent})


# ---------------------------------------------------------------------------
# Hopf-fibration surfaces
# ---------------------------------------------------------------------------

@dataclass
class CurveSpec:
    """Curvature data of a horizontal unit-speed curve lift.

    k1/k2 are constants or callables of arc length t; t_period is the
    parameter interval over which closure is tested.
    """

    k1: Union[float, Callable[[float], float]]
    k2: Union[float, Callable[[float], float]] = 0.0
    t_period: float = TWO_PI
    ambient_complex_dim: int = 2

    def __post_init__(self):
        if self.t_period <= 0:
            raise ValueError("t_period must be positive")
        ts = np.linspace(0.0, self.t_period, 33)
        if not np.all(np.isfinite([self.k1_at(t) for t in ts])) or not np.all(
            np.isfinite([self.k2_at(t) for t in ts])
        ):
            raise ValueError("curvature functions must be finite on [0, t_period]")

    def k1_at(self, t: float) -> float:
        return self.k1(t) if callable(self.k1) else float(self.k1)

    def k2_at(self, t: float) -> float:
        return self.k2(t) if callable(self.k2) else float(self.k2)

    @property
    def mode(self) -> str:
        return "tabulated" if callable(self.k1) or callable(self.k2) else "constant_k1"


@dataclass
class HopfChartResult:
    chart: Chart
    closing_period: float
    lift_monodromy_phase: float

    @property
    def closed(self) -> bool:
        """The chart is the periodic cover of a closed curve."""
        return self.chart.spec.periodic_u


def _realify(cplx_vecs: np.ndarray) -> np.ndarray:
    """(..., m) complex -> (..., 2m) real interleaved."""
    out = np.empty(cplx_vecs.shape[:-1] + (2 * cplx_vecs.shape[-1],))
    out[..., 0::2] = cplx_vecs.real
    out[..., 1::2] = cplx_vecs.imag
    return out


def _twist_denominator(fraction: float) -> Optional[int]:
    """Denominator q <= 64 with fraction ~ p/q, or None if irrational."""
    f = Fraction(fraction).limit_denominator(MAX_TWIST_DENOMINATOR)
    if abs(fraction - f.numerator / f.denominator) < 1e-8:
        return f.denominator
    return None


def _multi_frequency_closure(freqs: np.ndarray):
    """(T, phase, q) for gamma with the given active frequencies.

    The curve closes projectively at the smallest T with (l_i - l_j) T in
    2 pi Z for all pairs: T = 2 pi lcm(q_k) / d_1, where d_k are the
    frequency differences and d_k / d_1 = p_k / q_k in lowest terms.  q
    is the twist denominator of the monodromy phase, None for an
    irrational twist or an open curve (irrational d_k / d_1).
    """
    lam = np.sort(freqs)
    diffs = lam[1:] - lam[0]
    diffs = diffs[diffs > 1e-14]
    if len(diffs) == 0:
        # single frequency: the base point is fixed, the fiber closes trivially
        t = TWO_PI / max(abs(lam[0]), 1e-300)
        return t, (lam[0] * t) % TWO_PI, 1
    base = diffs[0]
    n_mult = 1
    for d in diffs[1:]:
        q_d = _twist_denominator(d / base)
        if q_d is None:
            return TWO_PI, 0.0, None
        n_mult = math.lcm(n_mult, q_d)
    t = TWO_PI * n_mult / base
    phase = (lam[0] * t) % TWO_PI
    return t, phase, _twist_denominator(phase / TWO_PI)


def _hopf_chart(
    gamma_of_t: Callable[[np.ndarray], np.ndarray],
    period: float,
    q: Optional[int],
    nu: int,
    nv: int,
    name: str,
    params: dict,
) -> Chart:
    """x(t, theta) = e^{i theta} gamma(t) on the q-fold periodic cover
    [0, q period), or on one non-periodic period [0, period] if q is None.

    gamma_of_t maps (nu,) parameters to (nu, m) complex points of S^{2m-1}.
    """
    closed = q is not None
    spec = GridSpec(nu, nv, q * period if closed else period, TWO_PI, closed, True)
    gam = gamma_of_t(spec.u)
    gam = gam / np.linalg.norm(_realify(gam), axis=-1)[:, None]
    x = np.exp(1j * spec.v)[None, :, None] * gam[:, None, :]
    return Chart(spec, _realify(x), cover_count=q or 1, name=name, params=params)


def _homogeneous_lift(
    lam: np.ndarray, a: np.ndarray, nu: int, nv: int, name: str, params: dict,
    t_window: Optional[float] = None,
) -> HopfChartResult:
    """gamma(t) = (a_k e^{i l_k t})_k on its closing cover, or on the
    non-periodic window [0, t_window] when one is given."""
    t_close, phase, q = _multi_frequency_closure(lam[np.abs(a) > 0])

    def gamma(t):
        return a[None, :] * np.exp(1j * np.outer(t, lam))

    period = t_close
    if t_window is not None:
        period, q, params = t_window, None, {**params, "t_window": t_window}
    chart = _hopf_chart(gamma, period, q, nu, nv, name, params)
    return HopfChartResult(chart, t_close, phase)


def pinkall_hopf_torus(c: float, nu: int, nv: int) -> HopfChartResult:
    """Hopf surface over the constant-curvature curve k1 = c, k2 = 0 in CP^1.

    Closed form: gamma(t) = (a1 e^{i l1 t}, a2 e^{i l2 t}) with l^2 - c l -
    1 = 0, a1^2 l1 + a2^2 l2 = 0 (horizontality) and a1^2 + a2^2 = 1; unit
    speed a1^2 l1^2 + a2^2 l2^2 = 1 then holds automatically.  The curve
    closes at T = 2 pi / (l1 - l2) with monodromy phase 2 pi l1 / (l1 -
    l2); the chart covers t in [0, qT) with q the twist denominator.  The
    image is the product torus with radii (a1, a2); c = 0 is the Clifford
    torus in arc-length coordinates.
    """
    disc = math.sqrt(c * c + 4.0)
    l1 = 0.5 * (c + disc)
    l2 = 0.5 * (c - disc)
    a1 = math.sqrt(-l2 / (l1 - l2))
    a2 = math.sqrt(l1 / (l1 - l2))
    params = {"c": c, "lambda1": l1, "lambda2": l2, "a1_sq": a1 * a1, "a2_sq": a2 * a2}
    return _homogeneous_lift(np.array([l1, l2]), np.array([a1, a2]), nu, nv,
                             "pinkall_hopf_torus", params)


def homogeneous_cp2_hopf(
    lambdas, amps, nu: int, nv: int, t_window: Optional[float] = None
) -> HopfChartResult:
    """Three-frequency homogeneous Hopf lift in S^5 over CP^2.

    gamma(t) = (a1 e^{i l1 t}, a2 e^{i l2 t}, a3 e^{i l3 t}) subject to
    sum a^2 = 1 (sphere), sum a^2 l = 0 (horizontality), sum a^2 l^2 = 1
    (unit speed), validated to 1e-12.  Genuinely three-frequency data has
    k2 != 0 and therefore a non-flat normal bundle.

    `t_window` forces a non-periodic chart over [0, t_window] instead of
    the closed covering grid; the analytic evaluation makes this the
    clean control for finite-difference refinement studies.
    """
    lam = np.asarray(lambdas, dtype=float)
    a = np.asarray(amps, dtype=float)
    if lam.shape != (3,) or a.shape != (3,):
        raise ValueError("need exactly three frequencies and amplitudes")
    asq = a * a
    defects = (
        abs(asq.sum() - 1.0),
        abs((asq * lam).sum()),
        abs((asq * lam * lam).sum() - 1.0),
    )
    if max(defects) > 1e-12:
        raise ValueError(
            f"constraint violation (norm, horizontality, speed) = {defects}"
        )
    params = {"lambdas": lam.tolist(), "amps": a.tolist()}
    return _homogeneous_lift(lam, a, nu, nv, "homogeneous_cp2_hopf", params, t_window)


def solve_cp2_amplitudes(lambdas) -> np.ndarray:
    """Amplitudes for a homogeneous CP^2 Hopf lift with given frequencies.

    Solves the Vandermonde system sum a^2 (1, l, l^2) = (1, 0, 1) and
    takes square roots; raises if any squared amplitude is negative.
    """
    lam = np.asarray(lambdas, dtype=float)
    vand = np.vstack([np.ones(3), lam, lam * lam])
    asq = np.linalg.solve(vand, np.array([1.0, 0.0, 1.0]))
    if np.any(asq < -1e-12):
        raise ValueError(f"frequencies {lam.tolist()} admit no horizontal unit-speed lift")
    return np.sqrt(np.maximum(asq, 0.0))


def hopf_from_curvature(curve: CurveSpec, nu: int, nv: int) -> HopfChartResult:
    """Hopf surface from curvature functions, by integrating the frame ODE.

    Uses an adaptive high-order Runge-Kutta (DOP853) over one period,
    re-projecting (gamma, xi, eta) onto the orthonormality constraints at
    segment boundaries to kill secular drift.  Closure is detected from
    the full frame monodromy; closed curves are extended equivariantly by
    gamma(t + T) = e^{i phi} gamma(t), so the q-fold covering chart costs
    a single period of integration.  The frame starts at gamma = e_1, xi =
    e_2 and eta = e_3 (eta = 0 when m = 2).
    """
    # imported here, so that `import wlab` does not load scipy
    from scipy.integrate import solve_ivp

    m = curve.ambient_complex_dim
    k2_active = any(abs(curve.k2_at(t)) > 1e-15
                    for t in np.linspace(0.0, curve.t_period, 65))
    if m < 2 or (k2_active and m < 3):
        raise ValueError("ambient_complex_dim must be >= 2, and >= 3 when k2 != 0")

    gamma0, xi0, eta0 = np.eye(3, m, dtype=complex)

    def rhs(t, y):
        g, xi, eta = y[:m], y[m:2 * m], y[2 * m:]
        dg = xi
        dxi = curve.k1_at(t) * 1j * xi + curve.k2_at(t) * eta - g
        deta = -curve.k2_at(t) * xi
        return np.concatenate([dg, dxi, deta])

    def reproject(y):
        g, xi, eta = y[:m].copy(), y[m:2 * m].copy(), y[2 * m:].copy()
        g /= np.linalg.norm(g)
        for w in (g, 1j * g):
            xi -= np.vdot(w, xi).real * w
        drift = abs(np.linalg.norm(xi) - 1.0)
        if drift > FRAME_DRIFT_ABORT:
            raise RuntimeError(
                f"frame degeneracy: |xi| drifted by {drift:.3e} in one segment"
            )
        xi /= np.linalg.norm(xi)
        if np.linalg.norm(eta) > 0:
            for w in (g, 1j * g, xi, 1j * xi):
                eta -= np.vdot(w, eta).real * w
            eta /= np.linalg.norm(eta)
        return np.concatenate([g, xi, eta])

    t_period = curve.t_period
    y = np.concatenate([gamma0, xi0, eta0])
    edges = np.linspace(0.0, t_period, ODE_SEGMENTS_PER_PERIOD + 1)
    solutions = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(
            rhs, (t0, t1), y, method="DOP853", dense_output=True,
            rtol=1e-13, atol=1e-14,
        )
        if not sol.success:
            raise RuntimeError(f"frame ODE integration failed: {sol.message}")
        solutions.append(sol.sol)
        y = reproject(sol.y[:, -1])

    def frame_at(ts: np.ndarray) -> np.ndarray:
        ts = np.atleast_1d(ts)
        idx = np.clip(np.searchsorted(edges, ts, side="right") - 1,
                      0, ODE_SEGMENTS_PER_PERIOD - 1)
        out = np.empty((len(ts), 3 * m), complex)
        for i, (t, k) in enumerate(zip(ts, idx)):
            out[i] = solutions[k](min(t, t_period))
        return out

    y_end = frame_at(np.array([t_period]))[0]
    gamma_end = y_end[:m]
    phase = float(np.angle(np.vdot(gamma0, gamma_end)))
    rot = np.exp(1j * phase)
    defect = max(
        np.linalg.norm(gamma_end - rot * gamma0),
        np.linalg.norm(y_end[m:2 * m] - rot * xi0),
        np.linalg.norm(y_end[2 * m:] - rot * eta0) if m >= 3 else 0.0,
    )
    q = _twist_denominator((phase / TWO_PI) % 1.0) if defect < MONODROMY_TOL else None

    def gamma_direct(ts: np.ndarray) -> np.ndarray:
        return frame_at(np.minimum(ts, t_period))[:, :m]

    def gamma_extended(ts: np.ndarray) -> np.ndarray:
        # equivariant continuation gamma(t + T) = e^{i phase} gamma(t),
        # exact for closed frames; keeps the covering chart drift-free
        wraps = np.floor(ts / t_period + 1e-12)
        local = ts - wraps * t_period
        gam = frame_at(local)[:, :m]
        return np.exp(1j * phase * wraps)[:, None] * gam

    params = {
        "mode": curve.mode,
        "k1": None if callable(curve.k1) else float(curve.k1),
        "k2": None if callable(curve.k2) else float(curve.k2),
        "t_period": t_period,
        "ambient_complex_dim": m,
    }
    chart = _hopf_chart(gamma_direct if q is None else gamma_extended, t_period, q,
                        nu, nv, "hopf_from_curvature", params)
    return HopfChartResult(chart, t_period, phase % TWO_PI)


def remark_energy(curve_or_c, t_close: float) -> float:
    """Closed-form Hopf-torus Willmore energy Int ((k1^2+k2^2)/4 + 1) dt dtheta."""
    if isinstance(curve_or_c, CurveSpec):
        ts = np.linspace(0.0, t_close, 4097)
        vals = np.array(
            [curve_or_c.k1_at(t) ** 2 + curve_or_c.k2_at(t) ** 2 for t in ts]
        )
        trapz = getattr(np, "trapezoid", None) or np.trapz
        integral = trapz(vals / 4.0 + 1.0, ts)
    else:
        integral = (curve_or_c**2 / 4.0 + 1.0) * t_close
    return float(TWO_PI * integral)


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def include_in_higher_sphere(chart: Chart, n_target: int) -> Chart:
    """Zero-pad the chart into S^{n_target} (an isometric inclusion)."""
    if n_target < chart.ambient_n:
        raise ValueError("target sphere dimension is smaller than the chart's")
    pts = np.zeros(chart.points.shape[:2] + (n_target + 1,))
    pts[..., : chart.ambient_n + 1] = chart.points
    return replace(chart, points=pts, params={**chart.params, "included_n": n_target})


def apply_mobius(chart: Chart, matrix: np.ndarray) -> Chart:
    """Act by a matrix of O(n+1,1) on the light-cone lifts; re-project to S^n.

    Fails if the transformed lift overflows or crosses the projection
    singularity (vanishing timelike component); pick a different map then.
    """
    if matrix.shape != (chart.dim, chart.dim):
        raise ValueError(f"Mobius matrix shape {matrix.shape}; the chart needs {(chart.dim,) * 2}")
    w = np.einsum("ij,...j->...i", matrix, light_cone_lift(chart))
    t_comp = w[..., 0]
    # written so that a NaN fails it; an overflow to inf shows in `w`
    if not (np.abs(t_comp).min() > 1e-10 and np.isfinite(w).all()):
        raise ValueError(
            "Mobius image overflows or crosses the projection singularity; use a different map"
        )
    # w is null up to roundoff, so spatial/timelike is unit to roundoff and
    # the identity map reproduces the chart bit-exactly
    x = w[..., 1:] / t_comp[..., None]
    return replace(chart, points=x, params={**chart.params, "mobius": True})


# ---------------------------------------------------------------------------
# registry (CLI surface addressing)
# ---------------------------------------------------------------------------

def _build_homogeneous(nu, nv, lambdas, amps=None, t_window=None):
    if amps is None:
        amps = solve_cp2_amplitudes(lambdas)
    return homogeneous_cp2_hopf(lambdas, amps, nu, nv, t_window=t_window)


def _build_hopf(nu, nv, k1=0.0, k2=0.0, t_period=TWO_PI, ambient_complex_dim=2):
    curve = CurveSpec(k1=k1, k2=k2, t_period=t_period,
                      ambient_complex_dim=ambient_complex_dim)
    return hopf_from_curvature(curve, nu, nv)


GALLERY = {
    "clifford": {
        "build": clifford,
        "params": {},
    },
    "round_sphere": {
        "build": round_sphere,
        "params": {"ambient_n": "int, target sphere (default 4)",
                   "extent": "float, |u| range of the Mercator strip (default 2.5)"},
    },
    "pinkall_hopf_torus": {
        "build": pinkall_hopf_torus,
        "params": {"c": "float, constant curvature of the base curve"},
    },
    "hopf_from_curvature": {
        "build": _build_hopf,
        "params": {"k1": "float (default 0)", "k2": "float (default 0)",
                   "t_period": "float (default 2*pi)",
                   "ambient_complex_dim": "int (default 2; >= 3 when k2 != 0)"},
    },
    "homogeneous_cp2_hopf": {
        "build": _build_homogeneous,
        "params": {"lambdas": "list of 3 floats",
                   "amps": "list of 3 floats (default: solved from the constraints)",
                   "t_window": "float, force a non-periodic t window (default: closed cover)"},
    },
    "veronese": {
        "build": veronese,
        "params": {"extent": "float, |u| range of the Mercator strip (default 2.5)"},
    },
}


def build_surface(name: str, nu: int, nv: int, params: Optional[dict] = None) -> Chart:
    """Construct a gallery chart by name; Hopf results are unwrapped."""
    if name not in GALLERY:
        raise KeyError(f"unknown gallery surface {name!r}; see `wlab gallery list`")
    out = GALLERY[name]["build"](nu=nu, nv=nv, **(params or {}))
    return out.chart if isinstance(out, HopfChartResult) else out
