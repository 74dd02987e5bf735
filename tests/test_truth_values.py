"""Residual and energy values that a chart's geometry fixes.

A verdict only says which side of a tolerance a value falls on; these
assert the values themselves, so a wrong term in the Willmore vector, in s
or in the energy's weight moves them even where no verdict flips.

The Pinkall torus over a circle of geodesic curvature c is homogeneous, so
its Willmore residual is one constant.  A Hopf torus is Willmore exactly
when its base curve is a free elastica (Pinkall, Invent. Math. 81, 1985);
a circle is not one unless c = 0, and the residual reads c (4 + c^2) / 32
at every point.  The closed surfaces have W = 2 pi^2 (Clifford) and
W = (c^2 / 4 + 1) T 2 pi = 5 pi^2 / 2 (Pinkall, c = 3/2), and Mobius
maps keep W.  The frame ODE over k1 = c for one closing period T = 2 pi /
sqrt(c^2 + 4) builds the same torus up to a unitary map, so it has the
same values.
"""

import numpy as np
import pytest

from wlab.diagnostics import analyze
from wlab.gallery import apply_mobius, clifford, hopf_from_curvature, pinkall_hopf_torus
from wlab.lorentz import random_mobius

ENERGY_REL = 1e-12
TWO_PI = 2 * np.pi


def pinkall_willmore(c):
    return c * (4.0 + c * c) / 32.0


# at these small c the monodromy phase is no small rational, so the chart is
# one non-periodic period, FD along the curve and right to truncation; c = 3/2
# closes on a 5-fold cover, spectral and right to roundoff
@pytest.mark.parametrize("c, nu, nv, rel", [
    (1e-3, 128, 64, 1e-5),
    (0.05, 128, 64, 1e-5),
    (0.3, 128, 64, 1e-5),
    (1.5, 192, 96, 1e-8),
])
def test_the_pinkall_willmore_residual_is_its_closed_form(c, nu, nv, rel):
    chart = pinkall_hopf_torus(c, nu, nv).chart
    assert chart.spec.fully_periodic == (c == 1.5)
    report = analyze(chart, witnesses=False)
    assert report.entry("willmore").L_inf == pytest.approx(pinkall_willmore(c), rel=rel)
    if c == 1.5:
        assert report.energies["W_conformal"] == pytest.approx(2.5 * np.pi**2, rel=ENERGY_REL)


def test_the_frame_ode_torus_over_a_circle_has_the_pinkall_values():
    res = hopf_from_curvature(64, 32, k1=1.5, t_period=TWO_PI / 2.5)
    assert res.closed and res.chart.cover_count == 5
    report = analyze(res.chart, witnesses=False)
    assert report.energies["W_conformal"] == pytest.approx(2.5 * np.pi**2, rel=ENERGY_REL)
    assert report.entry("willmore").L_inf == pytest.approx(pinkall_willmore(1.5), rel=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mobius_images_of_clifford_keep_w_2pi2(seed):
    chart = apply_mobius(clifford(128, 128), random_mobius(3, seed, 0.5))
    w = analyze(chart, witnesses=False).energies["W_conformal"]
    assert w == pytest.approx(2 * np.pi**2, rel=ENERGY_REL)
