"""wlab's numpy DOP853 against its oracle, scipy's `solve_ivp(method="DOP853")`.

Every comparison is exact (`np.array_equal`): the port runs the same
operations in the same order, so nothing may move, not even in the last bit.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wlab import _dop853, gallery
from wlab._dop853 import ATOL, MAX_STEPS, RTOL, dop853
from wlab.gallery import TWO_PI, hopf_from_curvature


def scipy_solution(rhs, t0, t1, y0):
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", dense_output=True,
                    rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol


def scipy_dop853(rhs, t0, t1, y0):
    """The frame ODE's integrator as it was: scipy's, in dop853's shape."""
    sol = scipy_solution(rhs, t0, t1, y0)
    return sol.y[:, -1], sol.sol


def frame_rhs(k1, k2, m):
    def rhs(t, y):
        g, xi, eta = y[:m], y[m:2 * m], y[2 * m:]
        return np.concatenate([xi, k1 * 1j * xi + k2 * eta - g, -k2 * xi])
    return rhs


FRAME0 = np.eye(3, dtype=complex).ravel()  # gamma = e_1, xi = e_2, eta = e_3
W = np.array([0.7 - 0.2j, -1.3 + 0.4j, 2.1 + 0.0j, 0.05 - 3.0j])

SEGMENTS = {
    # the benchmark curve's frame over its first segment, and over many steps
    "frame_segment": (frame_rhs(1.0, 0.5, 3), 0.0, TWO_PI / 64, FRAME0),
    "frame_long": (frame_rhs(1.0, 0.5, 3), 0.0, 5.0, FRAME0),
    # a linear rotation with mixed rates, started off zero
    "rotation": (lambda t, y: 1j * W * y, 0.25, 3.5, np.array([1.0, 0.5j, -0.3, 2.0 + 1.0j])),
    # time-dependent and nonlinear, with a decaying mode that forces rejected steps
    "nonlinear": (lambda t, y: np.array([-40.0 * y[0] + math.sin(3 * t),
                                         1j * (1 + 0.3 * math.cos(t)) * y[1] + 0.1 * y[0] ** 2]),
                  0.0, 2.0, np.array([1.0 + 0.0j, 0.2 - 0.1j])),
}


@pytest.mark.parametrize("case", sorted(SEGMENTS))
def test_one_segment_matches_scipy_bit_for_bit(case):
    rhs, t0, t1, y0 = SEGMENTS[case]
    sol = scipy_solution(rhs, t0, t1, y0)
    y_end, dense = dop853(rhs, t0, t1, y0)
    assert np.array_equal(y_end, sol.y[:, -1])
    assert np.array_equal(dense.ts, sol.t)
    # sample times between steps and at every step time, where the earlier
    # step's interpolant is the one evaluated
    for t in np.union1d(np.linspace(t0, t1, 23), sol.t):
        assert np.array_equal(dense(t), sol.sol(t)), t


def test_the_nonlinear_segment_takes_rejected_steps():
    # so the bit identity above covers rejection: the first step takes 2
    # evaluations, each attempt 12 more and each accepted step 3 for its
    # dense output
    rhs, t0, t1, y0 = SEGMENTS["nonlinear"]
    calls = []
    _, dense = dop853(lambda t, y: calls.append(t) or rhs(t, y), t0, t1, y0)
    assert len(calls) > 2 + 15 * (len(dense.ts) - 1)


C = 1.5
CURVES = {
    "benchmark_open": dict(k1=1.0, k2=0.5, ambient_complex_dim=3),
    "closed_m2": dict(k1=C, t_period=TWO_PI / math.sqrt(C * C + 4)),
    "geodesic": dict(k1=0.0, t_period=math.pi),
    "k2_only": dict(k1=0.0, k2=0.5, t_period=4 * math.pi / math.sqrt(5), ambient_complex_dim=3),
    "tabulated": dict(k1=lambda t: 1.0 + 0.3 * math.sin(t)),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_hopf_charts_match_the_scipy_path_within_a_hundredth_of_the_budget(name, monkeypatch):
    curve = CURVES[name]
    monkeypatch.setattr(gallery, "dop853", scipy_dop853)
    ref = hopf_from_curvature(128, 64, **curve)
    monkeypatch.undo()
    # every call of the chart fits in 1% of the step budget
    monkeypatch.setattr(_dop853, "MAX_STEPS", MAX_STEPS // 100)
    res = hopf_from_curvature(128, 64, **curve)
    assert np.array_equal(res.chart.points, ref.chart.points)
    assert res.chart.spec == ref.chart.spec and res.chart.cover_count == ref.chart.cover_count
    assert np.array_equal(res.closing_period, ref.closing_period)
    assert np.array_equal(res.lift_monodromy_phase, ref.lift_monodromy_phase)


def test_a_curve_past_the_step_budget_fails_loudly():
    with pytest.raises(RuntimeError, match="frame ODE integration failed: more than"):
        hopf_from_curvature(16, 16, k1=1e20)
