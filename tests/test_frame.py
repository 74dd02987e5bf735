import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wlab.frame
from wlab.diagnostics import analyze
from wlab.calculus import GridSpec
from wlab.frame import (
    Chart,
    ChartError,
    build_frame,
    canonical_lift,
    light_cone_lift,
    normal_basis,
    perp_projector,
    validate_chart,
)
from wlab.gallery import (
    apply_mobius,
    build_surface,
    clifford,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    round_sphere,
    veronese,
)
from wlab.lorentz import herm_norm_sq, mink_inner, random_mobius, signature
from wlab.parallel import BLOCK_POINTS

from frame_oracles import frame_N, frame_residuals, oracle_kappa


def clifford_normal(chart):
    u, v = chart.spec.meshgrid()
    r = 1 / np.sqrt(2)
    return np.stack([-r * np.cos(u), -r * np.sin(u), r * np.cos(v), r * np.sin(v)], axis=-1)


def test_light_cone_lift_basic():
    ch = clifford(16, 16)
    y0 = light_cone_lift(ch)
    assert np.all(y0[..., 0] == 1.0)
    assert np.abs(mink_inner(y0, y0)).max() < 1e-15


def test_light_cone_lift_rejects_non_unit():
    ch = clifford(16, 16)
    ch.points = 1.01 * ch.points
    with pytest.raises(ChartError):
        light_cone_lift(ch)


def test_nan_point_is_a_chart_error_in_lift_and_mobius_map():
    # a NaN norm compares False against the unit tolerance, so the check
    # must reject it rather than let NaN into Y or the moved chart
    ch = clifford(16, 16)
    ch.points[3, 5, 1] = np.nan
    with pytest.raises(ChartError, match="finite unit"):
        light_cone_lift(ch)
    with pytest.raises(ChartError, match="finite unit"):
        canonical_lift(ch)
    with pytest.raises(ChartError, match="finite unit"):
        apply_mobius(ch, random_mobius(3, 1, 0.3))


def test_validate_chart_returns_the_lift_and_the_mask_the_frame_uses(monkeypatch):
    # canonical_lift runs validate_chart once and takes its scale and mask from it
    ch = veronese(48, 24)
    calls = []
    monkeypatch.setattr(wlab.frame, "validate_chart",
                        lambda chart: calls.append(chart) or validate_chart(chart))
    frame = canonical_lift(ch)
    assert calls == [ch]
    y0, rho, live, conformality = validate_chart(ch)
    assert np.array_equal(y0, light_cone_lift(ch))
    assert np.array_equal(frame.Y, y0 / np.sqrt(2.0 * np.where(live, rho, 1.0))[..., None])
    assert np.array_equal(frame.mask, ch.spec.interior_mask() & live)
    assert 0.0 < conformality < wlab.frame.CONFORMAL_TOL_FD


def test_canonical_lift_clifford_closed_form():
    ch = clifford(32, 32)
    fr = canonical_lift(ch)
    expected = np.sqrt(2.0) * light_cone_lift(ch)
    assert np.abs(fr.Y - expected).max() < 1e-11
    pairing = mink_inner(fr.Y_z, np.conj(fr.Y_z))
    assert np.abs(pairing - 0.5).max() < 1e-10


def test_canonical_lift_mercator_sphere():
    fr = canonical_lift(include_in_higher_sphere(round_sphere(192, 32), 4))
    defect = np.abs(mink_inner(fr.Y_z, np.conj(fr.Y_z)) - 0.5)[fr.mask].max()
    assert defect < 1e-8


def test_canonical_lift_is_scale_fixing(monkeypatch):
    ch = clifford(32, 32)
    u, v = ch.spec.meshgrid()
    prescale = np.exp(0.3 * np.sin(u) - 0.2 * np.cos(2 * v))
    a = canonical_lift(ch)
    monkeypatch.setattr(wlab.frame, "light_cone_lift",
                        lambda chart: light_cone_lift(chart) * prescale[..., None])
    b = canonical_lift(ch)
    assert np.abs(a.Y - b.Y).max() < 1e-9


def test_non_conformal_chart_rejected():
    # latitude/longitude coordinates on the sphere are not conformal
    spec = GridSpec(32, 32, 2.0, 2 * np.pi, False, True, u0=0.6)
    u, v = spec.meshgrid()
    pts = np.stack([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)], axis=-1)
    ch = Chart(spec, pts, name="spherical")
    with pytest.raises(ChartError, match="not conformal"):
        validate_chart(ch)


def _nan_point():
    ch = clifford(16, 16)
    ch.points[3, 5, 1] = np.nan
    return ch


def _non_unit_point():
    ch = clifford(16, 16)
    ch.points[3, 5] *= 1.01
    return ch


def _constant():
    spec = GridSpec(16, 16, 2 * np.pi, 2 * np.pi, True, True)
    pts = np.zeros((16, 16, 4))
    pts[..., 0] = 1.0
    return Chart(spec, pts)


def _stretched_spectral():
    ch = clifford(16, 16)  # the v extent halved: |<x_z,x_z>|/<x_z,x_zbar> = 0.6
    return Chart(replace(ch.spec, Lv=ch.spec.Lv / 2), ch.points)


def _latitude_longitude_fd():
    spec = GridSpec(32, 32, 2.0, 2 * np.pi, False, True, u0=0.6)
    u, v = spec.meshgrid()
    pts = np.stack([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u),
                    np.zeros_like(u)], axis=-1)
    return Chart(spec, pts)


ENTRY_POINTS = {
    "validate_chart": validate_chart,
    "canonical_lift": canonical_lift,
    "build_frame": build_frame,
    "analyze": analyze,
}


@pytest.mark.parametrize("make_chart, message", [
    (_nan_point, "non-finite"),
    (_non_unit_point, "finite unit"),
    (_constant, "degenerate everywhere"),
    (_stretched_spectral, "not conformal"),
    (_latitude_longitude_fd, "not conformal"),
], ids=["nan_point", "non_unit_point", "constant", "stretched_spectral", "non_conformal_fd"])
def test_every_entry_point_rejects_a_chart_alike(monkeypatch, make_chart, message):
    # the lift is the one place a chart is checked, so every entry point
    # raises the same ChartError, and analyze raises it before the
    # Euclidean energy runs
    errors = {}
    for name, entry in ENTRY_POINTS.items():
        with pytest.raises(ChartError, match=message) as info:
            entry(make_chart())
        errors[name] = str(info.value)
    assert len(set(errors.values())) == 1, errors

    def euclidean(chart):
        raise RuntimeError("the Euclidean energy ran on a rejected chart")

    monkeypatch.setattr("wlab.diagnostics.willmore_energy_euclidean", euclidean)
    with pytest.raises(ChartError, match=message) as info:
        analyze(make_chart())
    assert str(info.value) == errors["analyze"]


def test_chart_takes_no_mask_argument():
    ch = include_in_higher_sphere(round_sphere(32, 16), 4)
    with pytest.raises(TypeError):
        Chart(ch.spec, ch.points, mask=ch.spec.interior_mask())


def test_chart_reads_its_sphere_from_its_points():
    ch = include_in_higher_sphere(round_sphere(32, 16), 6)
    assert (ch.ambient_n, ch.dim) == (6, 8)
    with pytest.raises(TypeError):
        Chart(ch.spec, ch.points, ambient_n=6)


@pytest.mark.parametrize("points", [
    np.zeros((32, 16)),     # no vector axis
    np.zeros((16, 32, 3)),  # the grid transposed
    np.zeros((32, 15, 3)),
], ids=["2d", "transposed", "short_v"])
def test_chart_rejects_points_off_its_grid(points):
    spec = round_sphere(32, 16).spec
    with pytest.raises(ChartError, match=r"is not \(32, 16, n\+1\)"):
        Chart(spec, points)


def test_non_finite_chart_rejected():
    ch = clifford(32, 32)
    ch.points[5, 7, 2] = np.nan
    with pytest.raises(ChartError, match="non-finite"):
        validate_chart(ch)


def test_frame_N_clifford_closed_form():
    ch = clifford(32, 32)
    fr = build_frame(ch)
    y0 = light_cone_lift(ch)
    expected = (np.sqrt(2) / 4) * np.concatenate(
        [np.ones(y0.shape[:2] + (1,)), -ch.points], axis=-1
    )
    assert np.abs(frame_N(fr) - expected).max() < 1e-10


def test_frame_relations_spectral():
    fr = build_frame(clifford(32, 32))
    res = frame_residuals(fr)
    for name, val in res.items():
        assert val < 1e-8, (name, val)


def test_frame_relations_fd():
    fr = build_frame(include_in_higher_sphere(round_sphere(128, 32), 4))
    res = frame_residuals(fr)
    for name, val in res.items():
        assert val < 1e-4, (name, val)
    fr = build_frame(veronese(96, 32))
    res = frame_residuals(fr)
    for name, val in res.items():
        assert val < 1e-4, (name, val)


def test_frame_relations_hopf_charts():
    from wlab.gallery import pinkall_hopf_torus, homogeneous_cp2_hopf

    lam = [2.0, -1.0, 0.25]
    for chart in (
        pinkall_hopf_torus(1.5, 80, 32).chart,
        homogeneous_cp2_hopf(lam, 96, 24).chart,
    ):
        res = frame_residuals(build_frame(chart))
        for name, val in res.items():
            assert val < 1e-8, (chart.name, name, val)


def test_normal_basis_clifford_is_surface_normal():
    ch = clifford(32, 32)
    psi, ok = normal_basis(build_frame(ch))
    assert psi.shape[2] == 1 and ok.all()
    n = clifford_normal(ch)
    lifted = np.concatenate([np.zeros(n.shape[:2] + (1,)), n], axis=-1)
    # psi is +-(0, n); compare up to the sign of the eigenvector
    dot = np.einsum("uvk,uvk->uv", psi[:, :, 0, 1:], n)
    diff = np.abs(psi[:, :, 0, :] - np.sign(dot)[..., None] * lifted).max()
    assert diff < 1e-10


@pytest.mark.parametrize("make_chart", [
    lambda: include_in_higher_sphere(clifford(128, 128), 7),
    lambda: include_in_higher_sphere(clifford(24, 24), 10),
    lambda: veronese(64, 32),
    lambda: build_surface("homogeneous_cp2_hopf", 96, 48, {"lambdas": [-1.0, 0.5, 2.0]}),
    lambda: apply_mobius(pinkall_hopf_torus(1.5, 96, 48).chart, random_mobius(3, 3, 0.4)),
], ids=["clifford_s7_d9", "clifford_s10_d12", "veronese_fd_d6", "cp2_d7", "mobius_pinkall_d5"])
def test_normal_basis_is_an_orthonormal_basis_of_v_perp(make_chart):
    # n-2 Minkowski-orthonormal vectors orthogonal to the V basis span V^perp,
    # so kappa, a section of V^perp_C, is sum_a <kappa, psi_a> psi_a
    frame = build_frame(make_chart())
    psi, ok = normal_basis(frame)
    d, m = frame.dim, frame.mask
    assert psi.shape == frame.Y.shape[:2] + (d - 4, d) and ok[m].all()
    q = signature(d)
    gram = np.einsum("uvak,uvbk,k->uvab", psi, psi, q)
    assert np.abs(gram - np.eye(d - 4))[m].max() < 1e-12
    assert np.abs(np.einsum("uvak,uvbk,k->uvab", psi, frame.V_basis, q))[m].max() < 1e-12
    coef = np.einsum("uvak,uvk,k->uva", psi, frame.kappa, q)
    rebuilt = np.einsum("uva,uvak->uvk", coef, psi)
    gap, size = (np.linalg.norm(f, axis=-1) for f in (frame.kappa - rebuilt, frame.kappa))
    assert (gap <= 1e-12 * size)[m].all()


def test_normal_basis_of_a_surface_in_s2_is_empty():
    # d = 4: V is everything, so psi has no vectors and no point is flagged
    frame = build_frame(round_sphere(32, 16))
    psi, ok = normal_basis(frame)
    assert psi.shape == (32, 16, 0, 4)
    assert ok.shape == (32, 16) and ok.all()


def test_normal_basis_veronese_orthogonal_to_frame():
    fr = build_frame(veronese(64, 32))
    assert normal_basis(fr)[0].shape[2] == 2
    res = frame_residuals(fr)
    assert res["psi_gram-id"] < 1e-10
    assert res["<psi.Y>"] < 1e-8 and res["<psi.Y_z>"] < 1e-8


def traced_peak(monkeypatch, threads, job):
    """tracemalloc peak of job() under WLAB_THREADS=threads."""
    monkeypatch.setenv("WLAB_THREADS", threads)
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normal_basis_peak_memory_stays_near_projector_size(monkeypatch):
    # psi alone is (n-2)/d of a (d, d) projector field, d x Y; a (d, d) field
    # of the Gram matrices QP would be 1x more
    frame = build_frame(include_in_higher_sphere(clifford(128, 128), 7))
    for threads in ("1", "2"):
        peak = traced_peak(monkeypatch, threads, lambda: normal_basis(frame))
        assert peak < 1.5 * frame.dim * frame.Y.nbytes, threads


@pytest.mark.parametrize(
    "make_chart, dim",
    [
        (lambda: pinkall_hopf_torus(1.5, 48, 24).chart, 5),
        (lambda: veronese(48, 24), 6),
        (lambda: build_surface("homogeneous_cp2_hopf", 48, 24, {"lambdas": [-1.0, 0.5, 2.0]}), 7),
        (lambda: include_in_higher_sphere(clifford(32, 32), 7), 9),
        (lambda: include_in_higher_sphere(clifford(24, 24), 10), 12),
        # 2 BLOCK_POINTS + 32 points: two full blocks of 32 lines and a partial one
        (lambda: include_in_higher_sphere(clifford(BLOCK_POINTS // 16 + 1, 32), 7), 9),
    ],
    ids=["pinkall_d5", "veronese_fd_d6", "cp2_d7", "clifford_s7_d9", "clifford_s10_d12",
         "partial_block_d9"],
)
def test_perp_projector_is_bit_identical_to_einsum(make_chart, dim):
    # kappa, the one vector a dense block of P projects, is the oracle's P Y_zz
    frame = canonical_lift(make_chart())
    assert frame.dim == dim
    assert np.array_equal(perp_projector(frame).kappa, oracle_kappa(frame))


def test_perp_projector_peak_memory_stays_near_its_output(monkeypatch):
    # kappa and the V basis are 6x Y, s and kk_bar 0.3x at d = 9, and each
    # part's block buffers (a block of P among them) add the rest (8.0x and
    # 9.6x in all at 1 and 2 threads); one (nu, nv, d, d) field would add 9x
    frame = canonical_lift(include_in_higher_sphere(clifford(128, 128), 7))
    y_bytes = frame.Y.nbytes
    for threads in ("1", "2"):
        peak = traced_peak(monkeypatch, threads, lambda: perp_projector(frame))
        assert peak < 12 * y_bytes, threads


def test_the_frame_holds_no_dense_projector():
    frame = build_frame(include_in_higher_sphere(clifford(16, 16), 7))
    fields = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
    assert all(f.shape[-2:] != (frame.dim, frame.dim) for f in fields)
    assert frame.V_basis.shape == (16, 16, 4, frame.dim)


@pytest.mark.parametrize("make_chart", [
    lambda: clifford(16, 16),
    lambda: include_in_higher_sphere(build_surface("homogeneous_cp2_hopf", 16, 16,
                                                   {"lambdas": [-1.0, 0.5, 2.0]}), 7),
], ids=["clifford_d5", "cp2_in_S7_d9"])
def test_the_v_basis_is_finite_where_y_z_y_zzbar_and_kappa_vanish(make_chart):
    # a point with Y_z = 0, Y_zzbar = 0 and kappa = 0, so N = 0: each Gram-Schmidt
    # divisor there is 0 but for its floor, and one NaN would spread along an FFT line
    frame = build_frame(make_chart())
    d, dead = frame.dim, 37
    y, y_z, y_zzbar, kappa = (f.reshape(-1, d).copy() for f in
                              (frame.Y, frame.Y_z, frame.Y_zzbar, frame.kappa))
    y_z[dead], y_zzbar[dead], kappa[dead] = 0.0, 0.0, 0.0
    b = np.stack([y, y_z.real, y_z.imag, y_zzbar]).transpose(0, 2, 1).copy()  # (4, d, points)
    n = 2.0 * b[3] + 2.0 * herm_norm_sq(kappa) * b[0]  # frame_N's N, as (d, points)
    assert not n[:, dead].any()
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        basis = wlab.frame._v_basis(b, n).transpose(2, 0, 1)
    assert np.isfinite(basis).all()
    gram = mink_inner(basis[:, :, None], basis[:, None])
    live = np.arange(len(y)) != dead
    assert np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0]))[live].max() < 1e-12
    # the live points keep the basis `perp_projector` stores
    assert np.abs(basis[live] - frame.V_basis.reshape(-1, 4, d)[live]).max() < 1e-12


def full_frame_gram_det(frame):
    """det of the Gram matrix of {Y, Re Y_z, Im Y_z, N, psi_3..psi_n};
    nonvanishing detects a genuine rank-(n+2) frame at each point."""
    vecs = np.concatenate(
        [np.stack([frame.Y, frame.Y_z.real, frame.Y_z.imag, frame_N(frame)], axis=2),
         normal_basis(frame)[0]],
        axis=2,
    )
    gram = np.einsum("uvik,uvjk,k->uvij", vecs, vecs, signature(frame.dim))
    return np.linalg.det(gram)


def test_full_frame_spans_everything():
    fr = build_frame(clifford(24, 24))
    det = full_frame_gram_det(fr)
    assert np.abs(det)[fr.mask].min() > 0.01


def test_clifford_kappa_closed_form():
    ch = clifford(32, 32)
    fr = build_frame(ch)
    n = clifford_normal(ch)
    expected = (np.sqrt(2) / 4) * np.concatenate(
        [np.zeros(n.shape[:2] + (1,)), n], axis=-1
    )
    assert np.abs(fr.kappa - expected).max() < 1e-10
    assert np.abs(fr.kk_bar - 0.125).max() < 1e-10
    assert np.abs(fr.s).max() < 1e-10
    assert fr.decomposition_defect < 1e-8
    assert fr.tangential_defect < 1e-8


@pytest.mark.parametrize("make_chart, s_min", [
    (lambda: pinkall_hopf_torus(1.5, 64, 32).chart, 0.9),
    (lambda: build_surface("homogeneous_cp2_hopf", 64, 32, {"lambdas": [-1.0, 0.5, 2.0]}), 0.35),
], ids=["pinkall", "cp2"])
def test_the_split_of_y_zz_closes_where_s_is_not_zero(make_chart, s_min):
    # Clifford's s vanishes, so only charts like these see the s term of the closure
    frame = build_frame(make_chart())
    assert np.abs(frame.s[frame.mask]).max() > s_min
    assert frame.decomposition_defect < 1e-12
    assert frame.tangential_defect < 1e-12


def test_degenerate_metric_masked():
    # collapse the v-circle: x depends on u only, so <x_z, x_zbar> has rank 1
    spec = GridSpec(16, 16, 2 * np.pi, 2 * np.pi, True, True)
    u, v = spec.meshgrid()
    pts = np.stack([np.cos(u), np.sin(u), np.zeros_like(u), np.zeros_like(u)], axis=-1)
    ch = Chart(spec, pts, name="degenerate")
    with pytest.raises(ChartError):
        validate_chart(ch)


def test_rank_threshold_marks_normal_basis_points_not_the_frame_mask(monkeypatch):
    # no candidate clears the rank threshold: normal_basis flags every point,
    # and the frame, which builds no basis, keeps the lift's mask
    monkeypatch.setattr("wlab.frame.PSI_RANK_TOL", 1e9)
    chart = clifford(16, 16)
    frame = build_frame(chart)
    _, ok = normal_basis(frame)
    assert not ok.any()
    assert np.array_equal(frame.mask, canonical_lift(chart).mask)
