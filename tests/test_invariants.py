from dataclasses import replace

import numpy as np
import pytest

from wlab.diagnostics import analyze
from wlab.frame import Chart, build_frame
from wlab.gallery import clifford, pinkall_hopf_torus, round_sphere, veronese
from wlab.invariants import (
    hopf_schwarzian,
    normal_D,
    ricci_residual,
    structure_closure_residuals,
    willmore_energy_conformal,
    willmore_energy_euclidean,
)
from wlab.lorentz import cmink_inner, herm_norm_sq


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
    for vec in (frame.Y, frame.Y_z, frame.Y_zbar, frame.N):
        pair = np.abs(cmink_inner(inv.kappa, vec.astype(complex)))
        assert pair[frame.mask].max() < 1e-8


def test_cauchy_schwarz_between_kk_and_kkbar(clifford_inv, veronese_inv):
    for frame, inv in (clifford_inv, veronese_inv):
        assert inv.kk_bar.min() >= 0
        assert (np.abs(inv.kk) <= inv.kk_bar + 1e-12).all()


def test_clifford_normal_derivatives_vanish(clifford_inv):
    frame, inv = clifford_inv
    # kappa_zbar is purely tangential: n_zbar = -x_z, so D_zbar kappa = 0
    assert np.sqrt(herm_norm_sq(inv.Dzbar_kappa)).max() < 1e-10
    assert np.sqrt(herm_norm_sq(inv.Dz_kappa)).max() < 1e-10


def test_normal_D_of_constant_ambient_vector_projection():
    frame = build_frame(clifford(24, 24))
    const = np.zeros(frame.mask.shape + (5,), dtype=complex)
    const[..., 0] = 2.0  # constant field: derivative is exactly zero
    assert np.abs(normal_D(frame, const)).max() < 1e-12


def test_normal_D_linearity():
    frame = build_frame(clifford(24, 24))
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=5) + 1j * rng.normal(size=5)
    w2 = rng.normal(size=5) + 1j * rng.normal(size=5)
    s1 = np.einsum("uvab,b->uva", frame.P_perp, w1)
    s2 = np.einsum("uvab,b->uva", frame.P_perp, w2)
    a, b = 1.3 - 0.7j, -0.4 + 2.1j
    lhs = normal_D(frame, a * s1 + b * s2)
    rhs = a * normal_D(frame, s1) + b * normal_D(frame, s2)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_ricci_residual_clifford(clifford_inv):
    frame, inv = clifford_inv
    assert ricci_residual(frame, inv)[frame.mask].max() < 1e-8


def test_ricci_residual_veronese(veronese_inv):
    frame, inv = veronese_inv
    assert ricci_residual(frame, inv)[frame.mask].max() < 1e-4


def test_ricci_controlled_violation(veronese_inv):
    # RHS is quadratic in kappa: replacing kappa by 2 kappa on the RHS only
    # makes the commutator defect 3 |RHS(kappa)|
    frame, inv = veronese_inv
    broken = ricci_residual(frame, inv, kappa_rhs=2.0 * inv.kappa)
    rhs_norm = np.zeros(frame.mask.shape)
    kap, kap_c = inv.kappa, np.conj(inv.kappa)
    for a in range(frame.psi.shape[2]):
        psi_a = frame.psi[:, :, a, :].astype(complex)
        rhs = 2 * cmink_inner(psi_a, kap)[..., None] * kap_c \
            - 2 * cmink_inner(psi_a, kap_c)[..., None] * kap
        rhs_norm = np.maximum(rhs_norm, np.sqrt(np.maximum(herm_norm_sq(rhs), 0)))
    m = frame.mask
    assert rhs_norm[m].max() > 1e-3
    assert np.abs(broken - 3.0 * rhs_norm)[m].max() < 1e-2 * rhs_norm[m].max() + 1e-4


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
    res = structure_closure_residuals(frame, inv)
    for name, val in res.items():
        assert val < 1e-8, (name, val)


def test_structure_equations_close_fd(veronese_inv):
    frame, inv = veronese_inv
    res = structure_closure_residuals(frame, inv)
    for name, val in res.items():
        assert val < 1e-3, (name, val)


def test_structure_equations_close_pinkall():
    frame = build_frame(pinkall_hopf_torus(1.5, 80, 48).chart)
    inv = hopf_schwarzian(frame)
    res = structure_closure_residuals(frame, inv)
    for name, val in res.items():
        assert val < 1e-8, (name, val)


def rescaled(chart, factor):
    """Relabel the grid coordinates by z -> z/factor (same sample points)."""
    s = chart.spec
    spec = replace(s, Lu=s.Lu / factor, Lv=s.Lv / factor, u0=s.u0 / factor, v0=s.v0 / factor)
    return Chart(spec, chart.points.copy(), ambient_n=chart.ambient_n,
                 mask=chart.mask.copy(), cover_count=chart.cover_count, name=chart.name)


def test_coordinate_rescaling_preserves_energy():
    base = analyze(clifford(48, 48), euclidean=False)
    for lam in (2.0, 0.5):
        rep = analyze(rescaled(clifford(48, 48), lam), euclidean=False)
        assert abs(rep.energies["W_conformal"] - base.energies["W_conformal"]) < 1e-8
        # pointwise invariant density carries the |dz|^2 weight
        assert np.abs(
            rep.fields["kkbar"] - base.fields["kkbar"] * lam**2
        ).max() < 1e-8 * lam**2


def test_theta_unwrapping_mask_clean_on_gallery(clifford_inv):
    frame, inv = clifford_inv
    assert inv.theta_mask.all()
    assert np.abs(inv.theta).max() < 1e-6  # <kappa,kappa> is real positive
