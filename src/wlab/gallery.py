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
(closed=False).  One checked construction builds the homogeneous lifts
gamma(t) = (a_k e^{i l_k t})_k: Pinkall tori from two frequencies, with
l1 l2 = -1, and tori over CP^2 from three.

Each builder takes the grid size (nu, nv) and its surface parameters as
keywords, the parameters' one name: a chart's `params` are these keywords
with defaults filled in, GALLERY maps each builder's name to their docs,
and `build_surface(name, nu, nv, params)` calls the builder by that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from ._dop853 import dop853
from .calculus import GridSpec
from .frame import Chart, light_cone_lift

TWO_PI = 2.0 * np.pi
MAX_TWIST_DENOMINATOR = 64
MONODROMY_TOL = 1e-8
ODE_SEGMENTS_PER_PERIOD = 64


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


def round_sphere(nu: int, nv: int, extent: float = 2.5) -> Chart:
    """Totally umbilic control: Mercator chart of the round S^2.

    x = (sech u cos v, sech u sin v, tanh u); u in [-extent, extent] is
    non-periodic (the poles are excluded).  `include_in_higher_sphere`
    makes it the equatorial S^2 of a higher sphere.
    """
    spec = GridSpec(nu, nv, 2 * extent, TWO_PI, False, True, u0=-extent)
    u, v = spec.meshgrid()
    sech = 1.0 / np.cosh(u)
    pts = np.stack(
        [sech * np.cos(v), sech * np.sin(v), np.tanh(u)], axis=-1
    )
    return Chart(spec, pts, name="round_sphere", params={"extent": extent})


def veronese(nu: int, nv: int, extent: float = 2.5) -> Chart:
    """Degree-2 minimal immersion of S^2 into S^4, Mercator-parametrized.

    Full in S^4, hence a non-flat-normal-bundle control.  The conformal
    factor decays like sech(u); `extent` = 2.5 keeps it conditioned.
    """
    sphere = round_sphere(nu, nv, extent)
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
class HopfChartResult:
    chart: Chart
    closing_period: float
    lift_monodromy_phase: float


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
    irrational twist or an open curve (irrational d_k / d_1).  A lift
    has two distinct frequencies at least: one alone, l, would need l = 0
    for horizontality and l^2 = 1 for unit speed.
    """
    lam = np.sort(freqs)
    diffs = lam[1:] - lam[0]
    diffs = diffs[diffs > 1e-14]
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


def solve_amplitudes(lambdas) -> np.ndarray:
    """Amplitudes of a homogeneous lift with two or three frequencies: the
    roots of the Vandermonde solve of sum a^2 (1, l, l^2) = (1, 0, 1), its
    first two rows for two frequencies; raises if a frequency repeats or
    any a^2 is negative."""
    lam = np.asarray(lambdas, dtype=float)
    n = len(lam)
    repeated = [x for x in lam.tolist() if (lam == x).sum() > 1]
    if repeated:
        raise ValueError(f"frequencies {lam.tolist()} repeat {repeated[0]}: "
                         "the amplitudes need distinct frequencies")
    vand = np.vstack([np.ones(n), lam, lam * lam])[:n]
    asq = np.linalg.solve(vand, np.array([1.0, 0.0, 1.0])[:n])
    if np.any(asq < -1e-12):
        raise ValueError(f"frequencies {lam.tolist()} admit no horizontal unit-speed lift")
    return np.sqrt(np.maximum(asq, 0.0))


def _homogeneous_lift(lam: np.ndarray, a: np.ndarray, nu: int, nv: int, name: str,
                      params: dict) -> HopfChartResult:
    """gamma(t) = (a_k e^{i l_k t})_k with frequencies `lam` and amplitudes
    `a`, on its closing cover or on the non-periodic window [0, t_window]
    when `params` gives one.  The sphere, horizontality and unit-speed
    constraints must hold to 1e-12; the check quotes the chart's `params`."""
    asq = a * a
    defects = np.abs([asq.sum() - 1.0, (asq * lam).sum(), (asq * lam * lam).sum() - 1.0])
    if not defects.max() <= 1e-12:  # written so that a NaN fails it
        raise ValueError(f"{name} {params} admits no horizontal unit-speed lift: "
                         f"(sphere, horizontality, speed) defects {defects.tolist()}")
    t_close, phase, q = _multi_frequency_closure(lam[np.abs(a) > 0])

    def gamma(t):
        return a[None, :] * np.exp(1j * np.outer(t, lam))

    period = t_close
    if params.get("t_window") is not None:
        period, q = params["t_window"], None
    chart = _hopf_chart(gamma, period, q, nu, nv, name, params)
    return HopfChartResult(chart, t_close, phase)


def pinkall_hopf_torus(c: float, nu: int, nv: int) -> HopfChartResult:
    """Hopf surface over the constant-curvature curve k1 = c, k2 = 0 in CP^1.

    The two-frequency homogeneous lift gamma(t) = (a1 e^{i l1 t}, a2 e^{i
    l2 t}), l1 > l2 the roots of l^2 - c l - 1 = 0.  The root of larger
    magnitude comes from the quadratic formula, where it has no
    cancellation, and the other from l1 l2 = -1, which also makes unit
    speed follow from the sphere and horizontality constraints.  The curve
    closes at T = 2 pi / (l1 - l2) with monodromy phase 2 pi l1 / (l1 -
    l2); the chart covers t in [0, qT) with q the twist denominator.  The
    image is the product torus with radii (a1, a2); c = 0 is the Clifford
    torus in arc-length coordinates.
    """
    big = 0.5 * (c + math.copysign(math.hypot(c, 2.0), c))  # hypot: no overflow of c^2
    l1, l2 = (big, -1.0 / big) if big > 0 else (-1.0 / big, big)
    lam = np.array([l1, l2])
    a = solve_amplitudes(lam)
    return _homogeneous_lift(lam, a, nu, nv, "pinkall_hopf_torus", {"c": c})


def homogeneous_cp2_hopf(lambdas, nu: int, nv: int,
                         t_window: Optional[float] = None) -> HopfChartResult:
    """Three-frequency homogeneous Hopf lift in S^5 over CP^2.

    gamma(t) = (a1 e^{i l1 t}, a2 e^{i l2 t}, a3 e^{i l3 t}) with the
    amplitudes solved from sum a^2 = 1 (sphere), sum a^2 l = 0
    (horizontality), sum a^2 l^2 = 1 (unit speed): the frequencies fix
    each a^2, and the sign of an a_k is an isometry of S^5.  Genuinely
    three-frequency data has k2 != 0 and so a non-flat normal bundle.

    `t_window` forces a non-periodic chart over [0, t_window] instead of
    the closed covering grid; the analytic evaluation makes this the
    clean control for finite-difference refinement studies.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (3,):
        raise ValueError("need exactly three frequencies")
    a = solve_amplitudes(lam)
    return _homogeneous_lift(lam, a, nu, nv, "homogeneous_cp2_hopf",
                             {"lambdas": lam.tolist(), "t_window": t_window})


def _curvature_at(k):
    """A curvature given as a constant or a callable of arc length, as a callable."""
    if callable(k):
        return k
    k = float(k)
    return lambda t: k


def hopf_from_curvature(nu: int, nv: int, k1=0.0, k2=0.0, t_period: float = TWO_PI,
                        ambient_complex_dim: int = 2) -> HopfChartResult:
    """Hopf surface from curvature data, by integrating the frame ODE.

    k1 and k2 are constants or callables of arc length t; t_period is the
    parameter interval over which closure is tested.  Integrates with the
    adaptive Runge-Kutta method DOP853 over one period, in 64 segments on
    the grid that samples the curvatures, each started from the previous
    one's end state.  The step error control alone keeps (gamma, xi, eta)
    orthonormal, to about 1e-13, and a frame off its constraints fails the
    chart's conformality check.  Closure is detected
    from the full frame monodromy at the last end state; closed curves are
    extended equivariantly by gamma(t + T) = e^{i phi} gamma(t), so the
    q-fold covering chart costs a single period of integration.  The frame
    starts at gamma = e_1, xi = e_2 and eta = e_3 (eta = 0 when m = 2).
    """
    m = ambient_complex_dim
    k1_at, k2_at = _curvature_at(k1), _curvature_at(k2)
    if not 0 < t_period < np.inf:
        raise ValueError("t_period must be positive and finite")
    edges = np.linspace(0.0, t_period, ODE_SEGMENTS_PER_PERIOD + 1)
    k1s, k2s = np.array([k1_at(t) for t in edges]), np.array([k2_at(t) for t in edges])
    if not (np.isfinite(k1s).all() and np.isfinite(k2s).all()):
        raise ValueError("curvature functions must be finite on [0, t_period]")
    if m < 2 or (m < 3 and np.abs(k2s).max() > 1e-15):
        raise ValueError("ambient_complex_dim must be >= 2, and >= 3 when k2 != 0")

    frame0 = np.eye(3, m, dtype=complex)  # rows gamma, xi, eta

    def rhs(t, y):
        g, xi, eta = y[:m], y[m:2 * m], y[2 * m:]
        return np.concatenate([xi, k1_at(t) * 1j * xi + k2_at(t) * eta - g, -k2_at(t) * xi])

    y = frame0.flatten()
    solutions = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        try:
            y, dense = dop853(rhs, t0, t1, y)
        except RuntimeError as exc:
            raise RuntimeError(f"frame ODE integration failed: {exc}") from None
        solutions.append(dense)

    frame_end = y.reshape(3, m)
    phase = float(np.angle(np.vdot(frame0[0], frame_end[0])))
    defect = np.linalg.norm(frame_end - np.exp(1j * phase) * frame0, axis=1).max()
    q = _twist_denominator((phase / TWO_PI) % 1.0) if defect < MONODROMY_TOL else None
    closed = q is not None

    def gamma(ts: np.ndarray) -> np.ndarray:
        # on the closed cover, the equivariant continuation gamma(t + T) =
        # e^{i phase} gamma(t), exact for closed frames and drift-free; an
        # open chart is the one period itself
        wraps = np.floor(ts / t_period + 1e-12) if closed else 0.0
        local = np.minimum(ts - wraps * t_period, t_period)
        idx = np.clip(np.searchsorted(edges, local, side="right") - 1,
                      0, ODE_SEGMENTS_PER_PERIOD - 1)
        gam = np.array([solutions[k](t)[:m] for t, k in zip(local, idx)])
        return np.exp(1j * phase * wraps)[:, None] * gam if closed else gam

    params = {"k1": None if callable(k1) else float(k1), "k2": None if callable(k2) else float(k2),
              "t_period": t_period, "ambient_complex_dim": m}
    chart = _hopf_chart(gamma, t_period, q, nu, nv, "hopf_from_curvature", params)
    return HopfChartResult(chart, t_period, phase % TWO_PI)


def remark_energy(k1, t_close: float, k2=0.0) -> float:
    """Hopf-torus Willmore energy 2 pi Int_0^T ((k1^2 + k2^2)/4 + 1) dt, by
    the trapezoid rule on 4097 points; k1 and k2 are constants or callables
    of arc length."""
    k1_at, k2_at = _curvature_at(k1), _curvature_at(k2)
    ts = np.linspace(0.0, t_close, 4097)
    vals = np.array([k1_at(t) ** 2 + k2_at(t) ** 2 for t in ts])
    return float(TWO_PI * np.trapezoid(vals / 4.0 + 1.0, ts))


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def include_in_higher_sphere(chart: Chart, n_target: int) -> Chart:
    """Zero-pad the chart into S^{n_target} (an isometric inclusion)."""
    if n_target < chart.ambient_n:
        raise ValueError("target sphere dimension is smaller than the chart's")
    pts = np.zeros(chart.points.shape[:2] + (n_target + 1,))
    pts[..., : chart.ambient_n + 1] = chart.points
    return replace(chart, points=pts)


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
    return replace(chart, points=x)


# ---------------------------------------------------------------------------
# registry (CLI surface addressing)
# ---------------------------------------------------------------------------

# each builder by its name, with the keyword parameters a config may pass it
GALLERY = {builder.__name__: params for builder, params in [
    (clifford, {}),
    (round_sphere, {"extent": "float, |u| range of the Mercator strip of S^2 (default 2.5)"}),
    (pinkall_hopf_torus, {"c": "float, constant curvature of the base curve"}),
    (hopf_from_curvature, {"k1": "float (default 0)", "k2": "float (default 0)",
                           "t_period": "float (default 2*pi)",
                           "ambient_complex_dim": "int (default 2; >= 3 when k2 != 0)"}),
    (homogeneous_cp2_hopf, {
        "lambdas": "list of 3 floats",
        "t_window": "float, force a non-periodic t window (default: closed cover)"}),
    (veronese, {"extent": "float, |u| range of the Mercator strip (default 2.5)"}),
]}


def build_surface(name: str, nu: int, nv: int, params: Optional[dict] = None) -> Chart:
    """Construct a gallery chart by name; Hopf results are unwrapped.

    The builder is looked up by its name when called, so the function
    bound at `wlab.gallery.<name>` is the one that runs.  A param value
    that is a bool, a string or a JSON object, or a list holding one,
    raises ValueError: none is a number the builder may coerce.
    """
    if not (isinstance(name, str) and name in GALLERY):
        raise KeyError(f"unknown gallery surface {name!r}; see `wlab gallery list`")
    params = params or {}
    for key, value in params.items():
        items = value if isinstance(value, list) else [value]
        if any(isinstance(item, (bool, str, dict)) for item in items):
            raise ValueError(f"surface param {key!r} must be a number or a list of numbers, "
                             f"not {value!r}")
    out = globals()[name](nu=nu, nv=nv, **params)
    return out.chart if isinstance(out, HopfChartResult) else out
