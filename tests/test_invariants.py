import tracemalloc
from dataclasses import replace

import wlab.frame

import numpy as np
import pytest

from wlab.calculus import classify_order, convergence_order, diff_u, diff_v
from wlab.cli import report_json
from wlab.diagnostics import analyze, convergence_L_inf
from wlab.frame import Chart, build_frame
from wlab.gallery import (
    build_surface,
    clifford,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    round_sphere,
    veronese,
)
from wlab.invariants import (
    hopf_schwarzian,
    normal_D,
    ricci_residual,
    select_projection_pole,
    willmore_energy_conformal,
    willmore_energy_euclidean,
)
from wlab.lorentz import herm_norm_sq, mink_inner

from frame_oracles import kappa_jet, structure_closure_residuals


@pytest.fixture(scope="module")
def clifford_inv():
    frame = build_frame(clifford(48, 48))
    return frame, hopf_schwarzian(frame)


@pytest.fixture(scope="module")
def veronese_inv():
    frame = build_frame(veronese(96, 48))
    return frame, hopf_schwarzian(frame)


def test_round_sphere_is_totally_umbilic():
    frame = build_frame(round_sphere(96, 32))
    inv = hopf_schwarzian(frame)
    kappa_norm = np.sqrt(np.maximum(herm_norm_sq(inv.kappa), 0))
    assert kappa_norm[frame.mask].max() < 1e-9
    assert inv.umbilic_mask[frame.mask].all()


def test_kappa_is_normal(clifford_inv):
    frame, inv = clifford_inv
    for vec in (frame.Y, frame.Y_z, np.conj(frame.Y_z), frame.N):
        pair = np.abs(mink_inner(inv.kappa, vec.astype(complex)))
        assert pair[frame.mask].max() < 1e-8


def test_cauchy_schwarz_between_kk_and_kkbar(clifford_inv, veronese_inv):
    for frame, inv in (clifford_inv, veronese_inv):
        assert inv.kk_bar.min() >= 0
        assert (np.abs(inv.kk) <= inv.kk_bar + 1e-12).all()


def test_clifford_normal_derivatives_vanish(clifford_inv):
    jet = kappa_jet(*clifford_inv)
    # kappa_zbar is purely tangential: n_zbar = -x_z, so D_zbar kappa = 0
    assert np.sqrt(herm_norm_sq(jet.Dzbar_kappa)).max() < 1e-10
    assert np.sqrt(herm_norm_sq(jet.Dz_kappa)).max() < 1e-10


def test_normal_D_of_constant_ambient_vector_projection():
    frame = build_frame(clifford(24, 24))
    const = np.zeros(frame.mask.shape + (5,), dtype=complex)
    const[..., 0] = 2.0  # constant field: derivative is exactly zero
    assert np.abs(normal_D(frame.P_perp, const, frame.spec)).max() < 1e-12


def test_normal_D_linearity():
    frame = build_frame(clifford(24, 24))
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    w2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    s1 = np.einsum("uvab,b->uva", frame.P_perp, w1)
    s2 = np.einsum("uvab,b->uva", frame.P_perp, w2)
    a, b = 1.3 - 0.7j, -0.4 + 2.1j
    halves = zip(*(normal_D(frame.P_perp, s, frame.spec) for s in (a * s1 + b * s2, s1, s2)))
    for lhs, d1, d2 in halves:  # D_z, then D_zbar
        assert np.abs(lhs - (a * d1 + b * d2)).max() < 1e-11


def ricci(frame, inv, scale=1.0):
    """`ricci_residual` on kappa's normal 2-jet divided by `scale`."""
    jet = kappa_jet(frame, inv)
    return ricci_residual(inv, jet.Dzbar_Dz_kappa / scale, jet.Dz_Dzbar_kappa / scale)


def test_ricci_residual_clifford(clifford_inv):
    frame, inv = clifford_inv
    assert ricci(frame, inv)[frame.mask].max() < 1e-8


def test_ricci_residual_veronese(veronese_inv):
    frame, inv = veronese_inv
    assert ricci(frame, inv)[frame.mask].max() < 1e-4


def _cp2_chart(nu, nv):
    return build_surface("homogeneous_cp2_hopf", nu, nv, {"lambdas": [-1.0, 0.5, 2.0]})


def _frame_inv(chart):
    frame = build_frame(chart)
    return frame, hopf_schwarzian(frame)


def dense_ricci_residual(frame, inv, kappa_rhs=None):
    """Reference: the dense operator F = -(i/2) P [P_u, P_v] P, the normal
    curvature taken from the differentiated projector, applied to kappa."""
    p = frame.P_perp
    pu = diff_u(p, frame.spec)
    pv = diff_v(p, frame.spec)
    comm = np.einsum("uvab,uvbc->uvac", pu, pv) - np.einsum("uvab,uvbc->uvac", pv, pu)
    f_op = -0.5j * np.einsum("uvab,uvbc,uvcd->uvad", p, comm, p)
    kap = inv.kappa if kappa_rhs is None else kappa_rhs
    kap_c = np.conj(kap)
    lhs = np.einsum("uvab,uvb->uva", f_op, inv.kappa)
    rhs = 2 * mink_inner(inv.kappa, kap)[..., None] * kap_c \
        - 2 * mink_inner(inv.kappa, kap_c)[..., None] * kap
    return np.sqrt(np.maximum(herm_norm_sq(lhs - rhs), 0))


def ricci_residual_2kappa_rhs(frame, inv):
    """`ricci_residual` with 2 kappa on the right-hand side only.  The right
    side is quadratic in kappa, so this is 4 |J/4 - RHS(kappa)| for the
    jet J; scaling by a power of two is exact."""
    return 4 * ricci(frame, inv, scale=4.0)


def ricci_pairs(frame, inv):
    """(kappa_rhs of the dense oracle, the matching residual) for the
    plain and the 2 kappa right-hand side."""
    return ((None, ricci(frame, inv)), (2.0 * inv.kappa, ricci_residual_2kappa_rhs(frame, inv)))


# the oracle differentiates P, ricci_residual the sections D_z kappa and
# D_zbar kappa: on spectral charts they agree to roundoff, which the two
# extra derivatives lift to about 4e-12; on the FD chart to truncation only,
# and the refinement test pins its order
@pytest.mark.parametrize("build, tol", [
    (lambda: include_in_higher_sphere(clifford(64, 64), 7), 1e-11),
    (lambda: _cp2_chart(96, 48), 1e-11),
    (lambda: veronese(96, 48), 1e-5),
], ids=["clifford_s7", "cp2_torus", "veronese"])
def test_ricci_matches_dense_operator(build, tol):
    frame, inv = _frame_inv(build())
    for kappa_rhs, res in ricci_pairs(frame, inv):
        ref = dense_ricci_residual(frame, inv, kappa_rhs)
        assert np.abs(res - ref).max() < tol


def test_ricci_dense_operator_gap_falls_under_fd_refinement():
    def gaps(nu):
        frame, inv = _frame_inv(veronese(nu, 48))
        return [
            np.abs(res - dense_ricci_residual(frame, inv, k)).max()
            for k, res in ricci_pairs(frame, inv)
        ]

    for coarse, fine in zip(gaps(96), gaps(192)):
        assert fine * 32 <= coarse


def test_ricci_flags_an_under_resolved_fd_chart():
    # the defect is the grid's own truncation, which the differentiated
    # left side carries and the kappa expression does not
    coarse = analyze(veronese(24, 12)).entry("ricci")
    assert coarse.verdict == "fail" and coarse.L_inf > 1.2 * coarse.tolerance
    sizes = [32, 64, 128]
    linfs = [
        convergence_L_inf(analyze(veronese(n, 24)), "res_ricci")
        for n in sizes
    ]
    slope = convergence_order(sizes, linfs)
    label = classify_order(slope, linfs, coarse.tolerance)
    assert label.startswith("order") and slope <= -5.0, linfs


def test_ricci_without_normal_directions_is_zero():
    frame, inv = _frame_inv(round_sphere(32, 16, ambient_n=2))
    assert frame.dim == 4
    res = ricci(frame, inv)
    assert res.shape == frame.mask.shape and not res.any()


def _assert_controlled_violation(frame, inv, rel, tol):
    # RHS is quadratic in kappa: replacing kappa by 2 kappa on the RHS only
    # makes the curvature defect 3 |RHS(kappa)|
    broken = ricci_residual_2kappa_rhs(frame, inv)
    kap, kap_c = inv.kappa, np.conj(inv.kappa)
    rhs = 2 * mink_inner(kap, kap)[..., None] * kap_c \
        - 2 * mink_inner(kap, kap_c)[..., None] * kap
    rhs_norm = np.sqrt(np.maximum(herm_norm_sq(rhs), 0))
    m = frame.mask
    assert rhs_norm[m].max() > 1e-3
    assert np.abs(broken - 3.0 * rhs_norm)[m].max() < rel * rhs_norm[m].max() + tol


def test_ricci_controlled_violation(veronese_inv):
    _assert_controlled_violation(*veronese_inv, rel=1e-2, tol=1e-4)


@pytest.fixture(scope="module")
def cp2_s7_inv():
    return _frame_inv(include_in_higher_sphere(_cp2_chart(64, 32), 7))


def test_ricci_controlled_violation_spectral_s7(cp2_s7_inv):
    # Clifford in S^7 has a flat normal bundle, so RHS = 0 and 2 kappa would
    # violate nothing; the CP^2 torus in S^7 is spectral and non-flat
    _assert_controlled_violation(*cp2_s7_inv, rel=0.0, tol=1e-10)


def test_analyze_builds_no_normal_basis(cp2_s7_inv, monkeypatch):
    # every criterion pairs kappa and its normal derivatives, so no report
    # byte may depend on a choice of normal frame
    chart = cp2_s7_inv[0].chart
    want = report_json(analyze(chart), 0)

    def refuse(frame):
        raise AssertionError("analyze built a normal basis")

    monkeypatch.setattr(wlab.frame, "normal_basis", refuse)
    assert report_json(analyze(chart), 0) == want


def test_ricci_peak_memory_stays_near_projector_size():
    # the complex (nu, nv, d) defect and its conjugate peak near 0.5x P_perp;
    # one real (nu, nv, d, d) field more costs 1x, so the bound catches it
    frame, inv = _frame_inv(include_in_higher_sphere(clifford(128, 128), 7))
    jet = kappa_jet(frame, inv)
    tracemalloc.start()
    try:
        ricci_residual(inv, jet.Dzbar_Dz_kappa, jet.Dz_Dzbar_kappa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < frame.P_perp.nbytes


def test_projection_pole_search_memory_stays_near_chart_size():
    # a (candidates, points) matrix of dot products would be 66x the chart here
    chart = clifford(256, 256)
    tracemalloc.start()
    try:
        select_projection_pole(chart)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * chart.points.nbytes


def test_willmore_energy_clifford(clifford_inv):
    frame, inv = clifford_inv
    w = willmore_energy_conformal(inv)
    assert w == pytest.approx(2 * np.pi**2, abs=1e-6)
    w_e = willmore_energy_euclidean(frame.chart)
    assert w_e == pytest.approx(2 * np.pi**2, abs=1e-4)


def test_willmore_energy_round_sphere():
    ch = round_sphere(96, 32)
    frame = build_frame(ch)
    inv = hopf_schwarzian(frame)
    assert abs(willmore_energy_conformal(inv)) < 1e-8
    assert abs(willmore_energy_euclidean(ch)) < 1e-8


def test_two_pipeline_agreement_veronese(veronese_inv):
    frame, inv = veronese_inv
    w_c = willmore_energy_conformal(inv)
    w_e = willmore_energy_euclidean(frame.chart)
    assert abs(w_c - w_e) / w_c < 0.01


def test_veronese_kkbar_profile(veronese_inv):
    # minimal in S^4 with K = 1/3 and induced metric 3 sech^2(u) |dz|^2:
    # the invariant density is (1 - K) dA / 4 = sech^2(u) / 2
    frame, inv = veronese_inv
    u = frame.spec.u
    predicted = 0.5 / np.cosh(u) ** 2
    err = np.abs(inv.kk_bar - predicted[:, None])[frame.mask].max()
    assert err < 1e-6


def test_structure_equations_close_spectral(clifford_inv):
    frame, inv = clifford_inv
    res = structure_closure_residuals(frame, inv, kappa_jet(frame, inv))
    for name, val in res.items():
        assert val < 1e-8, (name, val)


def test_structure_equations_close_fd(veronese_inv):
    frame, inv = veronese_inv
    res = structure_closure_residuals(frame, inv, kappa_jet(frame, inv))
    for name, val in res.items():
        assert val < 1e-3, (name, val)


def test_structure_equations_close_pinkall():
    frame = build_frame(pinkall_hopf_torus(1.5, 80, 48).chart)
    inv = hopf_schwarzian(frame)
    res = structure_closure_residuals(frame, inv, kappa_jet(frame, inv))
    for name, val in res.items():
        assert val < 1e-8, (name, val)


def rescaled(chart, factor):
    """Relabel the grid coordinates by z -> z/factor (same sample points)."""
    s = chart.spec
    spec = replace(s, Lu=s.Lu / factor, Lv=s.Lv / factor, u0=s.u0 / factor, v0=s.v0 / factor)
    return Chart(spec, chart.points.copy(), cover_count=chart.cover_count, name=chart.name)


def test_coordinate_rescaling_preserves_energy():
    base = analyze(clifford(48, 48))
    for lam in (2.0, 0.5):
        rep = analyze(rescaled(clifford(48, 48), lam))
        assert abs(rep.energies["W_conformal"] - base.energies["W_conformal"]) < 1e-8
        # pointwise invariant density carries the |dz|^2 weight
        assert np.abs(
            rep.fields["kkbar"] - base.fields["kkbar"] * lam**2
        ).max() < 1e-8 * lam**2


def test_theta_unwrapping_mask_clean_on_gallery(clifford_inv):
    frame, inv = clifford_inv
    assert inv.theta_mask.all()
    assert np.abs(inv.theta).max() < 1e-6  # <kappa,kappa> is real positive
