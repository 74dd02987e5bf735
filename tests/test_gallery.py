import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wlab import gallery
from wlab.calculus import diff_u, diff_v
from wlab.diagnostics import analyze, flat_normal_residual
from wlab.frame import build_frame, validate_chart
from wlab.gallery import (
    GALLERY,
    apply_mobius,
    build_surface,
    clifford,
    homogeneous_cp2_hopf,
    hopf_from_curvature,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    remark_energy,
    round_sphere,
    solve_amplitudes,
    veronese,
)
from wlab.invariants import hopf_schwarzian, willmore_energy_conformal
from wlab.lorentz import random_mobius

TWO_PI = 2 * np.pi


def pinkall_lift(c):
    """(l, a): l1 > l2, the roots of l^2 - c l - 1 = 0 (the root of larger
    magnitude by the quadratic formula, the other from l1 l2 = -1), and the
    amplitudes that `solve_amplitudes` gives them."""
    big = 0.5 * (c + math.copysign(math.hypot(c, 2.0), c))
    lam = np.array((big, -1.0 / big) if big > 0 else (-1.0 / big, big))
    return lam, solve_amplitudes(lam)


def theta0_defect(res, lam, a) -> float:
    """max |x(t, 0) - (a_k e^{i l_k t})_k| over the chart's theta = 0 line."""
    line = res.chart.points[:, 0, 0::2] + 1j * res.chart.points[:, 0, 1::2]
    return float(np.abs(line - a * np.exp(1j * np.outer(res.chart.spec.u, lam))).max())


def test_clifford_chart_geometry():
    ch = clifford(32, 32)
    assert np.abs(np.linalg.norm(ch.points, axis=-1) - 1).max() < 1e-15
    xu = diff_u(ch.points, ch.spec).real
    xv = diff_v(ch.points, ch.spec).real
    assert np.abs(np.einsum("uvk,uvk->uv", xu, xv)).max() < 1e-12
    assert np.abs(np.einsum("uvk,uvk->uv", xu, xu) - 0.5).max() < 1e-12
    assert np.abs(np.einsum("uvk,uvk->uv", xv, xv) - 0.5).max() < 1e-12


def test_all_gallery_charts_validate():
    charts = [
        clifford(32, 32),
        include_in_higher_sphere(round_sphere(64, 24), 4),
        veronese(64, 24),
        pinkall_hopf_torus(1.5, 80, 32).chart,
        homogeneous_cp2_hopf([2.0, -1.0, 0.25], 96, 24).chart,
    ]
    for ch in charts:
        validate_chart(ch)


# --- pinkall family ---------------------------------------------------------

@pytest.mark.parametrize("c, period, cover", [
    (0.0, np.pi, 2),
    (1.5, 4 * np.pi / 5, 5),
    (1 / math.sqrt(2), TWO_PI / math.sqrt(4.5), 3),  # twist 2/3
    (1.0, TWO_PI / math.sqrt(5), None),  # golden-ratio pair: irrational twist
])
def test_pinkall_closure(c, period, cover):
    res = pinkall_hopf_torus(c, 64, 32)
    assert res.chart.params == {"c": c}
    assert res.chart.spec.periodic_u == (cover is not None)
    assert res.chart.cover_count == (cover or 1)
    assert res.closing_period == pytest.approx(period, rel=1e-15)
    assert res.chart.spec.Lu == pytest.approx((cover or 1) * period, rel=1e-15)
    lam, a = pinkall_lift(c)
    assert theta0_defect(res, lam, a) < 1e-14
    # frame monodromy: gamma(T) = e^{i phase} gamma(0)
    gam_t = a * np.exp(1j * lam * res.closing_period)
    assert np.abs(gam_t - np.exp(1j * res.lift_monodromy_phase) * a).max() < 1e-12


def test_pinkall_at_zero_curvature_is_clifford():
    res = pinkall_hopf_torus(0.0, 64, 64)
    assert res.lift_monodromy_phase == pytest.approx(np.pi, rel=1e-15)
    rep = analyze(res.chart)
    assert rep.passed
    assert rep.energies["W_conformal"] == pytest.approx(2 * np.pi**2, rel=1e-12)
    # arc-length coordinates double the invariant density of the half-angle
    # product chart: <kappa, conj kappa> = 1/4, constant
    kkbar = rep.fields["kkbar"]
    assert np.abs(kkbar - 0.25).max() < 1e-8


def test_pinkall_three_halves_closed_form():
    (l1, l2), a = pinkall_lift(1.5)
    a1_sq, a2_sq = a * a
    assert l1 == pytest.approx(2.0, rel=1e-15)
    assert l2 == pytest.approx(-0.5, rel=1e-15)
    assert a1_sq == pytest.approx(0.2, rel=1e-14)
    assert a2_sq == pytest.approx(0.8, rel=1e-14)


@given(c=st.floats(-1e5, 1e5))
@example(c=10.0)  # the old closed form gave l1 l2 + 1 = 3.4e-15 here
@example(c=-1e5)
def test_pinkall_roots_have_product_minus_one_and_satisfy_the_constraints(c):
    lam, a = pinkall_lift(c)
    (l1, l2), (a1_sq, a2_sq) = lam, a * a
    assert theta0_defect(pinkall_hopf_torus(c, 8, 8), lam, a) < 1e-14
    assert l1 > l2 and l1 * l1 - c * l1 - 1 == pytest.approx(0, abs=2e-15 * max(1, l1 * l1))
    assert abs(l1 * l2 + 1) <= 4.5e-16
    assert abs(a1_sq + a2_sq - 1) <= 1e-14  # sphere
    assert abs(a1_sq * l1 + a2_sq * l2) <= 1e-14  # horizontality
    assert abs(a1_sq * l1 * l1 + a2_sq * l2 * l2 - 1) <= 1e-14  # unit speed


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, 1e200])
def test_pinkall_without_a_lift_names_c(c):
    with pytest.raises(ValueError, match=r"pinkall_hopf_torus \{'c': "):
        pinkall_hopf_torus(c, 8, 8)


def test_pinkall_irrational_twist_reports_open():
    res = pinkall_hopf_torus(1.0, 64, 32)  # lambda = golden ratio pair
    assert not res.chart.spec.periodic_u
    rep = analyze(res.chart)
    assert rep.entry("flat_normal").L_inf < 1e-4  # rank-1 normal bundle


def test_pinkall_flatness_spectral():
    res = pinkall_hopf_torus(1.5, 80, 48)
    frame = hopf_schwarzian(build_frame(res.chart))
    live = frame.mask & ~frame.umbilic_mask
    assert flat_normal_residual(frame)[live].max() < 1e-8


# --- ODE route ---------------------------------------------------------------

def test_frame_ode_matches_closed_form():
    c = 1.5
    disc = math.sqrt(c * c + 4)
    l1, l2 = (c + disc) / 2, (c - disc) / 2
    a1, a2 = math.sqrt(-l2 / (l1 - l2)), math.sqrt(l1 / (l1 - l2))
    t_close = TWO_PI / (l1 - l2)
    res = hopf_from_curvature(80, 32, k1=c, k2=0.0, t_period=t_close, ambient_complex_dim=2)
    ref = pinkall_hopf_torus(c, 80, 32)
    assert res.chart.spec.periodic_u and res.chart.cover_count == ref.chart.cover_count
    # the ODE starts at gamma = e_1, xi = e_2; the unitary whose rows are the
    # conjugates of the closed form's gamma(0) and gamma'(0) moves it there
    # and commutes with the fibre action e^{i theta}
    unitary = np.conj([[a1, a2], [1j * l1 * a1, 1j * l2 * a2]])
    w = (ref.chart.points[..., 0::2] + 1j * ref.chart.points[..., 1::2]) @ unitary.T
    moved = np.stack([w.real, w.imag], axis=-1).reshape(ref.chart.points.shape)
    assert np.abs(res.chart.points - moved).max() < 1e-13


def test_frame_ode_geodesic_gives_clifford_invariants():
    res = hopf_from_curvature(48, 48, k1=0.0, k2=0.0, t_period=np.pi, ambient_complex_dim=2)
    assert res.chart.spec.periodic_u and res.chart.cover_count == 2
    rep = analyze(res.chart)
    assert rep.passed
    assert rep.energies["W_conformal"] == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_frame_ode_k2_surface_is_not_flat():
    t_close = 4 * np.pi / math.sqrt(5.0)
    res = hopf_from_curvature(64, 32, k1=0.0, k2=0.5, t_period=t_close, ambient_complex_dim=3)
    assert res.chart.spec.periodic_u and res.chart.cover_count == 1
    frame = hopf_schwarzian(build_frame(res.chart))
    live = frame.mask & ~frame.umbilic_mask
    assert flat_normal_residual(frame)[live].min() > 1e-2
    w = willmore_energy_conformal(frame)
    assert w == pytest.approx(remark_energy(0.0, t_close, k2=0.5), rel=1e-12)


# the frame ODE is never reprojected onto its constraints: the integrator's
# error control alone must keep xi unit and perpendicular to gamma, i gamma,
# which the conformality of x = e^{i theta} gamma measures
@pytest.mark.parametrize("nu", [128, 256])
@pytest.mark.parametrize("curve", [
    dict(k1=1.5, t_period=TWO_PI / 2.5),
    dict(k1=0.0, t_period=np.pi),
    dict(k1=0.0, k2=0.5, t_period=4 * np.pi / math.sqrt(5.0), ambient_complex_dim=3),
])
def test_frame_ode_keeps_its_constraints_without_reprojection(curve, nu):
    res = hopf_from_curvature(nu, 64, **curve)
    assert res.chart.spec.periodic_u
    *_, conformality = validate_chart(res.chart)
    assert conformality <= 1e-12


def test_frame_ode_requires_room_for_k2():
    with pytest.raises(ValueError):
        hopf_from_curvature(32, 32, k1=0.0, k2=0.5, ambient_complex_dim=2)


def test_curvature_builder_validation():
    for t_period in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_period"):
            hopf_from_curvature(16, 16, k1=0.0, t_period=t_period)
    with pytest.raises(ValueError):
        hopf_from_curvature(16, 16, k1=lambda t: math.nan, t_period=2.0)


def test_remark_energy_of_a_constant_is_the_trapezoid_value_of_a_callable():
    t_close = 4 * np.pi / math.sqrt(5.0)
    assert remark_energy(0.0, t_close, k2=0.5) == pytest.approx(
        remark_energy(0.0, t_close, k2=lambda t: 0.5), rel=1e-14, abs=0)


# --- homogeneous CP^2 family -------------------------------------------------

def test_homogeneous_amplitude_solver():
    amps = solve_amplitudes([2.0, -1.0, 0.25])
    asq = amps**2
    lam = np.array([2.0, -1.0, 0.25])
    assert asq.sum() == pytest.approx(1.0, abs=1e-14)
    assert (asq * lam).sum() == pytest.approx(0.0, abs=1e-14)
    assert (asq * lam**2).sum() == pytest.approx(1.0, abs=1e-14)
    assert (asq > 0).all()


def test_solve_amplitudes_on_two_frequencies():
    for l1 in (2.0, 1.0, 1e-3, 1e5):
        l2 = -1.0 / l1
        asq = solve_amplitudes([l1, l2]) ** 2
        assert asq == pytest.approx([-l2 / (l1 - l2), l1 / (l1 - l2)], rel=1e-15)
        # sphere, horizontality, and unit speed from l1 l2 = -1
        assert asq.sum() == pytest.approx(1.0, abs=1e-15)
        assert (asq * [l1, l2]).sum() == pytest.approx(0.0, abs=1e-15 * l1)
        assert (asq * [l1 * l1, l2 * l2]).sum() == pytest.approx(1.0, abs=1e-15)


def test_homogeneous_cp2_needs_three_frequencies():
    # the shape is checked before the amplitudes are solved
    with pytest.raises(ValueError, match="need exactly three frequencies"):
        homogeneous_cp2_hopf([2.0, -0.5], 32, 32)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
def test_homogeneous_non_finite_lift_is_rejected(bad):
    with pytest.raises(ValueError, match=r"homogeneous_cp2_hopf \{'lambdas': \[-1.0, 0.5, "):
        homogeneous_cp2_hopf([-1.0, 0.5, bad], 32, 32)


def test_homogeneous_degenerate_third_amplitude_reduces_to_pinkall():
    # the (2, -1/2) pinkall pair with zero third amplitude satisfies the
    # constraints for any third frequency and reproduces the same invariants;
    # the solve gives a3 = 0 exactly for the third frequency 0.3
    res = homogeneous_cp2_hopf([2.0, -0.5, 0.3], 80, 32)
    assert solve_amplitudes([2.0, -0.5, 0.3])[2] == 0.0
    ref = pinkall_hopf_torus(1.5, 80, 32)
    rep = analyze(res.chart)
    ref_rep = analyze(ref.chart)
    assert rep.energies["W_conformal"] == pytest.approx(
        ref_rep.energies["W_conformal"], rel=1e-10
    )
    assert np.abs(rep.fields["kkbar"] - ref_rep.fields["kkbar"].max()).max() < 1e-8


def test_homogeneous_generic_triple_not_flat():
    lam = [2.0, -1.0, 0.25]
    res = homogeneous_cp2_hopf(lam, 96, 24)
    assert res.chart.spec.periodic_u
    assert res.closing_period == pytest.approx(8 * np.pi, rel=1e-12)
    frame = hopf_schwarzian(build_frame(res.chart))
    live = frame.mask & ~frame.umbilic_mask
    assert flat_normal_residual(frame)[live].min() > 1e-3
    # closed-form energy: W = ((k1^2 + k2^2)/4 + 1) T 2 pi
    asq = solve_amplitudes(lam) ** 2
    k1 = float((asq * np.array(lam) ** 3).sum())
    k2_sq = float((asq * np.array(lam) ** 4).sum()) - k1**2 - 1.0
    w_expected = ((k1**2 + k2_sq) / 4 + 1) * res.closing_period * TWO_PI
    w = willmore_energy_conformal(frame)
    assert w == pytest.approx(w_expected, rel=1e-10)
    # the integrability rows hold on any genuine immersion
    rep = analyze(res.chart)
    for name in ("gauss", "codazzi", "ricci"):
        assert rep.entry(name).verdict == "pass", name


def test_homogeneous_window_chart_is_fd():
    lam = [0.0, math.sqrt(5) / 2, -math.sqrt(5) / 2]
    res = homogeneous_cp2_hopf(lam, 48, 24, t_window=4 * np.pi)
    assert not res.chart.spec.periodic_u
    validate_chart(res.chart)


def test_homogeneous_irrational_frequency_ratio_gives_an_open_chart():
    # (sqrt(2) + 1) / 1.5 is irrational: the curve never closes
    res = homogeneous_cp2_hopf([-1.0, 0.5, math.sqrt(2)], 32, 16)
    assert not res.chart.spec.periodic_u and res.chart.spec.periodic_v
    assert res.chart.cover_count == 1


# --- veronese and round sphere ----------------------------------------------

def test_veronese_reference_values():
    rep = analyze(veronese(96, 32))
    assert rep.entry("willmore").L_inf < 1e-3
    assert rep.ranks["lift_rank"] == 6
    assert rep.entry("flat_normal").verdict == "fail"  # non-flat control


def test_round_sphere_reference_values():
    rep = analyze(include_in_higher_sphere(round_sphere(96, 32), 4))
    assert rep.entry("willmore").L_inf < 1e-9
    assert abs(rep.energies["W_conformal"]) < 1e-8
    assert rep.ranks["lift_rank"] == 4
    assert rep.energies["domain_truncated"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: span_rank's RANK_TOL is relative to the largest "
                   "singular value, so when kappa is roundoff (max 1.6e-14) it counts the "
                   "rank of roundoff and kappa_jet_rank reads 4")
def test_the_totally_umbilic_sphere_has_kappa_jet_rank_0():
    for nu, nv in [(48, 24), (96, 48)]:
        sphere = include_in_higher_sphere(round_sphere(nu, nv), 4)
        assert analyze(sphere).ranks["kappa_jet_rank"] == 0, (nu, nv)


# --- transformations ----------------------------------------------------------

def test_identity_mobius_is_exact():
    ch = clifford(24, 24)
    out = apply_mobius(ch, np.eye(5))
    assert np.array_equal(out.points, ch.points)


def test_inclusion_preserves_diagnostics():
    base = analyze(clifford(32, 32))
    chart = include_in_higher_sphere(clifford(32, 32), 5)
    assert chart.ambient_n == 5 and chart.dim == 7
    padded = analyze(chart)
    assert abs(base.energies["W_conformal"] - padded.energies["W_conformal"]) < 1e-10
    for e in base.entries:
        other = padded.entry(e.name)
        if not np.isnan(e.L_inf):
            assert abs(e.L_inf - other.L_inf) < 1e-10


def test_random_mobius_preserves_energy():
    mob = random_mobius(3, seed=1, magnitude=1.0)
    rep = analyze(apply_mobius(clifford(64, 64), mob))
    assert rep.energies["W_conformal"] == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_mobius_guard_rejects_degenerate_map():
    bad = np.eye(5)
    bad[0, 0] = 0.0  # not a Lorentz transform: kills the timelike slot
    with pytest.raises(ValueError, match="singularity"):
        apply_mobius(clifford(16, 16), bad)


def test_mobius_matrix_shape_check():
    with pytest.raises(ValueError, match=r"shape \(4, 4\); the chart needs \(5, 5\)"):
        apply_mobius(clifford(16, 16), np.eye(4))


def test_inclusion_dimension_check():
    with pytest.raises(ValueError):
        include_in_higher_sphere(clifford(16, 16), 2)


def test_gallery_params_are_the_builder_keywords():
    # `build_surface` passes a config's params to the builder as keywords, and
    # the CLI accepts exactly the documented ones
    for name, params in GALLERY.items():
        keywords = set(inspect.signature(getattr(gallery, name)).parameters) - {"nu", "nv"}
        assert set(params) == keywords, name


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_build_surface_calls_the_builder_bound_at_its_name(name, monkeypatch):
    chart = clifford(8, 8)
    calls = []
    monkeypatch.setattr(gallery, name, lambda **kwargs: calls.append(kwargs) or chart)
    assert build_surface(name, 8, 9, {"t_window": 2.0}) is chart
    assert calls == [{"nu": 8, "nv": 9, "t_window": 2.0}]


@pytest.mark.parametrize("name", ["torus_of_mystery", ["clifford"], {"a": 1}, None])
def test_build_surface_raises_key_error_for_any_unknown_name(name):
    # a list or an object is no more a gallery name than a misspelled one
    with pytest.raises(KeyError, match="unknown gallery surface"):
        build_surface(name, 8, 8)
