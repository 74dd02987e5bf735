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
    apply_mobius,
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
    unwrap_half_phase,
    willmore_energy_conformal,
    willmore_energy_euclidean,
)
from wlab.lorentz import herm_norm_sq, mink_inner, random_mobius

from frame_oracles import (
    constant_section,
    einsum_perp_projector,
    frame_N,
    kappa_jet,
    structure_closure_residuals,
)


@pytest.fixture(scope="module")
def clifford_frame():
    return _frame(clifford(48, 48))


@pytest.fixture(scope="module")
def veronese_frame():
    return _frame(veronese(96, 48))


def test_round_sphere_is_totally_umbilic():
    frame = _frame(include_in_higher_sphere(round_sphere(96, 32), 4))
    kappa_norm = np.sqrt(np.maximum(herm_norm_sq(frame.kappa), 0))
    assert kappa_norm[frame.mask].max() < 1e-9
    assert frame.umbilic_mask[frame.mask].all()


def test_hopf_schwarzian_reads_no_lift_derivative():
    frame = build_frame(pinkall_hopf_torus(1.5, 32, 16).chart)
    bare = replace(frame, Y_z=None, Y_zz=None, Y_zzbar=None)
    want, got = hopf_schwarzian(frame), hopf_schwarzian(bare)
    formed = ("kk", "umbilic_mask", "kappa", "s", "kk_bar",
              "decomposition_defect", "tangential_defect")
    for key in formed:
        assert getattr(want, key) is not None, key
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    # the lift, the mask and the V basis are the input's own objects
    for key in vars(want).keys() - set(formed):
        assert getattr(want, key) is getattr(frame, key), key
        assert getattr(got, key) is getattr(bare, key), key


def test_kappa_is_normal(clifford_frame):
    frame = clifford_frame
    for vec in (frame.Y, frame.Y_z, np.conj(frame.Y_z), frame_N(frame)):
        pair = np.abs(mink_inner(frame.kappa, vec.astype(complex)))
        assert pair[frame.mask].max() < 1e-8


def test_cauchy_schwarz_between_kk_and_kkbar(clifford_frame, veronese_frame):
    for frame in (clifford_frame, veronese_frame):
        assert frame.kk_bar.min() >= 0
        assert (np.abs(frame.kk) <= frame.kk_bar + 1e-12).all()


def test_clifford_normal_derivatives_vanish(clifford_frame):
    jet = kappa_jet(clifford_frame)
    # kappa_zbar is purely tangential: n_zbar = -x_z, so D_zbar kappa = 0
    assert np.sqrt(herm_norm_sq(jet.Dzbar_kappa)).max() < 1e-10
    assert np.sqrt(herm_norm_sq(jet.Dz_kappa)).max() < 1e-10


def test_normal_D_of_constant_ambient_vector_projection():
    frame = build_frame(clifford(24, 24))
    const = np.zeros(frame.mask.shape + (5,), dtype=complex)
    const[..., 0] = 2.0  # constant field: derivative is exactly zero
    assert np.abs(normal_D(frame.V_basis, const, frame.spec)).max() < 1e-12


def test_normal_D_linearity():
    frame = build_frame(clifford(24, 24))
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    w2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    s1 = constant_section(frame, w1)
    s2 = constant_section(frame, w2)
    a, b = 1.3 - 0.7j, -0.4 + 2.1j
    halves = zip(*(normal_D(frame.V_basis, s, frame.spec) for s in (a * s1 + b * s2, s1, s2)))
    for lhs, d1, d2 in halves:  # D_z, then D_zbar
        assert np.abs(lhs - (a * d1 + b * d2)).max() < 1e-11


def ricci(frame, scale=1.0):
    """`ricci_residual` on kappa's normal 2-jet divided by `scale`."""
    jet = kappa_jet(frame)
    return ricci_residual(frame, jet.Dzbar_Dz_kappa / scale, jet.Dz_Dzbar_kappa / scale)


def test_ricci_residual_clifford(clifford_frame):
    frame = clifford_frame
    assert ricci(frame)[frame.mask].max() < 1e-8


def test_ricci_residual_veronese(veronese_frame):
    frame = veronese_frame
    assert ricci(frame)[frame.mask].max() < 1e-4


def _cp2_chart(nu, nv):
    return build_surface("homogeneous_cp2_hopf", nu, nv, {"lambdas": [-1.0, 0.5, 2.0]})


def _frame(chart):
    """The one frame record `analyze` holds: the lift, its split and the invariants."""
    return hopf_schwarzian(build_frame(chart))


def dense_ricci_residual(frame, kappa_rhs=None):
    """Reference: the dense operator F = -(i/2) P [P_u, P_v] P, the normal
    curvature taken from the differentiated projector, applied to kappa."""
    p = einsum_perp_projector(frame)
    pu = diff_u(p, frame.spec)
    pv = diff_v(p, frame.spec)
    comm = np.einsum("uvab,uvbc->uvac", pu, pv) - np.einsum("uvab,uvbc->uvac", pv, pu)
    f_op = -0.5j * np.einsum("uvab,uvbc,uvcd->uvad", p, comm, p)
    kap = frame.kappa if kappa_rhs is None else kappa_rhs
    kap_c = np.conj(kap)
    lhs = np.einsum("uvab,uvb->uva", f_op, frame.kappa)
    rhs = 2 * mink_inner(frame.kappa, kap)[..., None] * kap_c \
        - 2 * mink_inner(frame.kappa, kap_c)[..., None] * kap
    return np.sqrt(np.maximum(herm_norm_sq(lhs - rhs), 0))


def ricci_residual_2kappa_rhs(frame):
    """`ricci_residual` with 2 kappa on the right-hand side only.  The right
    side is quadratic in kappa, so this is 4 |J/4 - RHS(kappa)| for the
    jet J; scaling by a power of two is exact."""
    return 4 * ricci(frame, scale=4.0)


def ricci_pairs(frame):
    """(kappa_rhs of the dense oracle, the matching residual) for the
    plain and the 2 kappa right-hand side."""
    return ((None, ricci(frame)), (2.0 * frame.kappa, ricci_residual_2kappa_rhs(frame)))


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
    frame = _frame(build())
    for kappa_rhs, res in ricci_pairs(frame):
        ref = dense_ricci_residual(frame, kappa_rhs)
        assert np.abs(res - ref).max() < tol


def test_ricci_dense_operator_gap_falls_under_fd_refinement():
    def gaps(nu):
        frame = _frame(veronese(nu, 48))
        return [
            np.abs(res - dense_ricci_residual(frame, k)).max()
            for k, res in ricci_pairs(frame)
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
    # V^perp = 0: kappa is projector roundoff, and its Ricci defect is zero to
    # roundoff (1.5e-41 at 32x16)
    frame = _frame(round_sphere(32, 16))
    assert frame.dim == 4
    res = ricci(frame)
    assert res.shape == frame.mask.shape and res.max() <= 1e-30


def _assert_controlled_violation(frame, rel, tol):
    # RHS is quadratic in kappa: replacing kappa by 2 kappa on the RHS only
    # makes the curvature defect 3 |RHS(kappa)|
    broken = ricci_residual_2kappa_rhs(frame)
    kap, kap_c = frame.kappa, np.conj(frame.kappa)
    rhs = 2 * mink_inner(kap, kap)[..., None] * kap_c \
        - 2 * mink_inner(kap, kap_c)[..., None] * kap
    rhs_norm = np.sqrt(np.maximum(herm_norm_sq(rhs), 0))
    m = frame.mask
    assert rhs_norm[m].max() > 1e-3
    assert np.abs(broken - 3.0 * rhs_norm)[m].max() < rel * rhs_norm[m].max() + tol


def test_ricci_controlled_violation(veronese_frame):
    _assert_controlled_violation(veronese_frame, rel=1e-2, tol=1e-4)


@pytest.fixture(scope="module")
def cp2_s7_frame():
    return _frame(include_in_higher_sphere(_cp2_chart(64, 32), 7))


def test_ricci_controlled_violation_spectral_s7(cp2_s7_frame):
    # Clifford in S^7 has a flat normal bundle, so RHS = 0 and 2 kappa would
    # violate nothing; the CP^2 torus in S^7 is spectral and non-flat
    _assert_controlled_violation(cp2_s7_frame, rel=0.0, tol=1e-10)


def test_analyze_builds_no_normal_basis(cp2_s7_frame, monkeypatch):
    # every criterion pairs kappa and its normal derivatives, so no report
    # byte may depend on a choice of normal frame
    chart = cp2_s7_frame.chart
    want = report_json(analyze(chart), 0, [])

    def refuse(frame):
        raise AssertionError("analyze built a normal basis")

    monkeypatch.setattr(wlab.frame, "normal_basis", refuse)
    assert report_json(analyze(chart), 0, []) == want


def test_ricci_peak_memory_stays_near_projector_size():
    # the complex (nu, nv, d) defect and its conjugate peak near 0.5x the
    # d x Y of a (d, d) projector field; one such field costs 1x, so the
    # bound catches it
    frame = _frame(include_in_higher_sphere(clifford(128, 128), 7))
    jet = kappa_jet(frame)
    tracemalloc.start()
    try:
        ricci_residual(frame, jet.Dzbar_Dz_kappa, jet.Dz_Dzbar_kappa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < frame.dim * frame.Y.nbytes


def test_projection_pole_search_memory_stays_near_chart_size():
    # a (candidates, points) matrix of dot products would be 66x the chart here
    chart = clifford(256, 256)
    tracemalloc.start()
    try:
        select_projection_pole(chart)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * chart.points.nbytes


def whole_matrix_pole(chart: Chart) -> np.ndarray:
    """`select_projection_pole` with its (candidates, points) matrix of dot
    products formed at once: the reference for the blocked maximum."""
    pts = chart.points.reshape(-1, chart.ambient_n + 1)
    rng = np.random.default_rng(12345)
    cand = rng.normal(size=(256, pts.shape[1]))
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    axes = np.concatenate([np.eye(pts.shape[1]), -np.eye(pts.shape[1])])
    cand = np.concatenate([axes, cand])
    min_d = np.sqrt(np.maximum(2.0 - 2.0 * (cand @ pts.T).max(axis=1), 0.0))
    return cand[int(np.argmax(min_d))]


@pytest.mark.parametrize("make_chart", [
    lambda: clifford(128, 128),
    lambda: veronese(256, 64),
    lambda: apply_mobius(include_in_higher_sphere(clifford(192, 192), 7),
                         random_mobius(7, 5, 1.0)),
], ids=["clifford", "veronese", "mobius_clifford_s7"])
def test_projection_pole_is_the_whole_matrix_choice(make_chart):
    chart = make_chart()
    assert np.array_equal(select_projection_pole(chart), whole_matrix_pole(chart))


def test_willmore_energy_clifford(clifford_frame):
    frame = clifford_frame
    w = willmore_energy_conformal(frame)
    assert w == pytest.approx(2 * np.pi**2, rel=1e-12)
    w_e = willmore_energy_euclidean(frame.chart)
    assert w_e == pytest.approx(2 * np.pi**2, abs=1e-4)


def test_willmore_energy_round_sphere():
    ch = include_in_higher_sphere(round_sphere(96, 32), 4)
    frame = _frame(ch)
    assert abs(willmore_energy_conformal(frame)) < 1e-8
    assert abs(willmore_energy_euclidean(ch)) < 1e-8


def test_two_pipeline_agreement_veronese(veronese_frame):
    frame = veronese_frame
    w_c = willmore_energy_conformal(frame)
    w_e = willmore_energy_euclidean(frame.chart)
    assert abs(w_c - w_e) / w_c < 0.01


def test_veronese_kkbar_profile(veronese_frame):
    # minimal in S^4 with K = 1/3 and induced metric 3 sech^2(u) |dz|^2:
    # the invariant density is (1 - K) dA / 4 = sech^2(u) / 2
    frame = veronese_frame
    u = frame.spec.u
    predicted = 0.5 / np.cosh(u) ** 2
    err = np.abs(frame.kk_bar - predicted[:, None])[frame.mask].max()
    assert err < 1e-6


def test_structure_equations_close_spectral(clifford_frame):
    frame = clifford_frame
    res = structure_closure_residuals(frame, kappa_jet(frame))
    for name, val in res.items():
        assert val < 1e-8, (name, val)


def test_structure_equations_close_fd(veronese_frame):
    frame = veronese_frame
    res = structure_closure_residuals(frame, kappa_jet(frame))
    for name, val in res.items():
        assert val < 1e-3, (name, val)


def test_structure_equations_close_pinkall():
    frame = _frame(pinkall_hopf_torus(1.5, 80, 48).chart)
    res = structure_closure_residuals(frame, kappa_jet(frame))
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


def test_theta_unwrapping_mask_clean_on_gallery(clifford_frame):
    frame = clifford_frame
    theta, theta_mask = unwrap_half_phase(frame.kk, frame.spec)
    assert theta_mask.all()
    assert np.abs(theta).max() < 1e-6  # <kappa,kappa> is real positive
