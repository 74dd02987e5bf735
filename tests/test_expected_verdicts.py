"""Verdicts that a chart's geometry fixes before anything is computed.

Each expected verdict comes with the reason it holds, so a defect in a
criterion's formula shows as a verdict that contradicts geometry, not only
as a moved reference number.

The Veronese surface is the degree-2 minimal immersion of S^2 into S^4.
It is superminimal, and it is full in S^4.  The Clifford torus and the
Pinkall torus are Hopf tori over circles of S^2 (the great circle, and a
circle of geodesic curvature c), so they are homogeneous and lie in S^3.
The CP^2 torus is the Hopf lift to S^5 of a homogeneous curve of CP^2 with
k2 != 0.  The round sphere is totally umbilic: kappa vanishes.
"""

from functools import lru_cache

import pytest

from wlab.diagnostics import analyze
from wlab.gallery import (
    apply_mobius,
    build_surface,
    clifford,
    include_in_higher_sphere,
    veronese,
)
from wlab.lorentz import random_mobius

VERONESE_VERDICTS = {
    "willmore": ("pass", "a minimal surface in S^n is Willmore"),
    "swillmore": ("pass", "a superminimal surface is S-Willmore: D_zbar kappa is on the line "
                  "of kappa"),
    "gauss": ("pass", "the Gauss row is an integrability condition of every immersion"),
    "codazzi": ("pass", "the Codazzi row is an integrability condition of every immersion"),
    "ricci": ("pass", "the Ricci equation is an integrability condition of every immersion"),
    "flat_normal": ("fail", "an S-Willmore surface with flat normal bundle lies in some S^3, "
                    "and the Veronese surface is S-Willmore and full in S^4"),
}


@pytest.fixture(scope="module")
def veronese_report():
    return analyze(veronese(48, 24))


@pytest.mark.parametrize("name", sorted(VERONESE_VERDICTS))
def test_veronese_verdicts_follow_from_its_geometry(veronese_report, name):
    verdict, reason = VERONESE_VERDICTS[name]
    entry = veronese_report.entry(name)
    assert entry.verdict == verdict, f"{name} L_inf={entry.L_inf:.3e}: {reason}"


INTEGRABILITY = {
    name: ("pass", f"the {name} row is an integrability condition of every immersion")
    for name in ("gauss", "codazzi", "ricci")
}
CODIMENSION_ONE = {
    **INTEGRABILITY,
    "swillmore": ("pass", "a rank-1 normal bundle holds D_zbar kappa on the complex line of "
                  "kappa"),
    "flat_normal": ("pass", "a rank-1 normal bundle is flat"),
    "isothermic": ("pass", "<kappa, kappa> is constant on a Hopf torus over a circle, and "
                   "a Mobius map keeps it, so its half-phase is harmonic"),
    "omega_abs": ("pass", "Omega vanishes where D_zbar kappa is a multiple of kappa, for any "
                  "bilinear pairing"),
    "omega_holomorphy": ("pass", "Omega vanishes identically, and so does d_zbar Omega"),
}
CLIFFORD = {**CODIMENSION_ONE,
            "willmore": ("pass", "the Clifford torus is minimal in S^3, so Willmore")}

# chart -> (builder, {criterion: (verdict, reason)}).  The Mobius image and
# the inclusion keep every Clifford verdict: a Mobius map keeps every
# Minkowski pairing of the lift, and both charts lie in some S^3, so kappa
# and its normal derivatives stay on the normal line they have there
GEOMETRY = {
    "clifford_48": (lambda: clifford(48, 48), CLIFFORD),
    "clifford_48_in_S7": (lambda: include_in_higher_sphere(clifford(48, 48), 7), CLIFFORD),
    "clifford_48_mobius": (lambda: apply_mobius(clifford(48, 48), random_mobius(3, 1, 0.3)),
                           CLIFFORD),
    "pinkall_c1.5_48x24": (
        lambda: build_surface("pinkall_hopf_torus", 48, 24, {"c": 1.5}),
        {**CODIMENSION_ONE,
         "willmore": ("fail", "a Hopf torus is Willmore only over a free elastic curve, and "
                      "the only free elastic circle is the great circle (Pinkall 1985)")}),
    "cp2_48x24": (
        lambda: build_surface("homogeneous_cp2_hopf", 48, 24, {"lambdas": [-1.0, 0.5, 2.0]}),
        {**INTEGRABILITY,
         "flat_normal": ("fail", "the base curve's k2 != 0 bends the normal bundle"),
         "isothermic": ("skipped", "the isothermic row is evaluated only where flat_normal "
                        "passes")}),
    "round_sphere_48x24": (
        lambda: include_in_higher_sphere(build_surface("round_sphere", 48, 24, {}), 4),
        {**INTEGRABILITY,
         "willmore": ("pass", "kappa = 0 solves the Willmore equation"),
         **{name: ("skipped", "the sphere is totally umbilic, so every point is masked")
            for name in ("swillmore", "flat_normal", "isothermic")}}),
}


@lru_cache(maxsize=None)
def report_of(chart: str):
    return analyze(GEOMETRY[chart][0]())


@pytest.mark.parametrize("chart, name", [(chart, name) for chart, (_, verdicts) in
                                         GEOMETRY.items() for name in sorted(verdicts)])
def test_verdicts_follow_from_geometry(chart, name):
    verdict, reason = GEOMETRY[chart][1][name]
    entry = report_of(chart).entry(name)
    assert entry.verdict == verdict, f"{chart} {name} L_inf={entry.L_inf:.3e}: {reason}"


def test_every_criterion_has_an_expected_verdict_on_the_clifford_rows():
    names = {e.name for e in report_of("clifford_48").entries}
    assert set(CLIFFORD) == names and set(GEOMETRY["pinkall_c1.5_48x24"][1]) == names
