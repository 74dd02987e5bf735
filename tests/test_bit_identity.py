"""Bit identity of the staged `analyze`, as properties over random charts.

`analyze` forms kappa's normal jet one field at a time and drops each
after its last reader.  Over random grids (many of them not a whole
number of blocks of grid lines), ambient spheres and thread counts, its
fields must equal, bit for bit, those of the public evaluators applied
to the whole jet at once, and its report bytes must not depend on the
thread count.  kappa must be the dense einsum oracle's P Y_zz, bit for
bit, and the rank-4 `normal_project` must be that oracle's projector to
roundoff: on S^3 to S^20 charts, finite-difference charts and Mobius
images, for any thread count.  The one walk of `perp_projector` that
splits Y_zz must give every bit the two walks that preceded it gave.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wlab.cli import report_json
from wlab.diagnostics import (
    analyze,
    codazzi_residual,
    gauss_residual,
    reduction_span_check,
    s_willmore_residual,
    six_form,
    willmore_residual,
)
from wlab.frame import build_frame, canonical_lift, normal_project, perp_projector
from wlab.gallery import (
    apply_mobius,
    build_surface,
    clifford,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    veronese,
)
from wlab.invariants import hopf_schwarzian, ricci_residual
from wlab.lorentz import mink_inner, random_mobius

from frame_oracles import einsum_perp_projector, kappa_jet, oracle_kappa, two_walk_split


SURFACES = {
    # name: (base chart from the grid and a seed, its ambient n)
    "clifford_mobius": (lambda nu, nv, seed: apply_mobius(
        clifford(nu, nv), random_mobius(3, seed, 0.02)), 3),
    "pinkall_fd": (lambda nu, nv, seed: pinkall_hopf_torus(0.7, nu, nv).chart, 3),
    "cp2": (lambda nu, nv, seed: build_surface(
        "homogeneous_cp2_hopf", nu, nv, {"lambdas": [-1.0, 0.5, 2.0]}), 5),
    "veronese_fd": (lambda nu, nv, seed: veronese(nu, nv), 4),
}


def make_chart(surface, nu, nv, n, seed):
    """A gallery chart (spectral or finite-difference) included into S^n."""
    build, base_n = SURFACES[surface]
    assume(n >= base_n)
    chart = build(nu, nv, seed)
    return include_in_higher_sphere(chart, n) if n > base_n else chart


charts = dict(
    surface=st.sampled_from(sorted(SURFACES)),
    nu=st.integers(24, 40),  # Veronese rows below 24 miss the FD conformality tolerance
    nv=st.integers(16, 40),
    n=st.sampled_from([3, 5, 7]),
    seed=st.integers(0, 2**16),
)
threads = st.sampled_from(["1", "2", "3"])


def whole_jet_fields(chart):
    """The jet-dependent report fields from the whole jet at once."""
    frame = hopf_schwarzian(build_frame(chart))
    jet = kappa_jet(frame)
    omega, holo = six_form(frame, jet.Dzbar_kappa)
    fields = {
        "res_willmore": willmore_residual(jet.willmore_vector),
        "res_swillmore": s_willmore_residual(frame, jet.Dzbar_kappa),
        "res_gauss": gauss_residual(frame, jet.Dz_kappa, jet.Dzbar_kappa),
        "res_codazzi": codazzi_residual(jet.willmore_vector),
        "res_ricci": ricci_residual(frame, jet.Dzbar_Dz_kappa, jet.Dz_Dzbar_kappa),
        "omega_abs": np.abs(omega),
        "omega_holomorphy": holo,
    }
    ranks = {
        "lift_rank": reduction_span_check(frame.mask, [frame.Y]),
        "kappa_jet_rank": reduction_span_check(
            frame.mask, [frame.kappa, jet.Dz_kappa, jet.Dzbar_Dz_kappa]),
    }
    return fields, ranks


@given(threads=threads, **charts)
@example(threads="3", surface="clifford_mobius", nu=24, nv=30, n=7, seed=1)  # 720 points
@example(threads="2", surface="veronese_fd", nu=40, nv=39, n=5, seed=0)
def test_staged_analyze_is_the_whole_jet_bit_for_bit(threads, surface, nu, nv, n, seed):
    chart = make_chart(surface, nu, nv, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("WLAB_THREADS", "1")
        want_fields, want_ranks = whole_jet_fields(chart)
        serial = analyze(chart)
        mp.setenv("WLAB_THREADS", threads)
        report = analyze(chart)
    assert report_json(report, 0, []) == report_json(serial, 0, [])
    assert report.fields.keys() == serial.fields.keys()
    for key, value in report.fields.items():
        assert np.array_equal(value, serial.fields[key], equal_nan=True), key
    for key, value in want_fields.items():
        assert np.array_equal(report.fields[key], value, equal_nan=True), key
    assert report.ranks == want_ranks


@given(threads=threads, **charts)
@example(threads="2", surface="cp2", nu=35, nv=30, n=7, seed=0)  # blocks of 34 lines and 1
@example(threads="3", surface="clifford_mobius", nu=40, nv=39, n=3, seed=2)  # 1560 points
def test_perp_projector_is_the_einsum_bit_for_bit(threads, surface, nu, nv, n, seed):
    # kappa, the one vector a dense block of P projects, is the oracle's P Y_zz
    frame = canonical_lift(make_chart(surface, nu, nv, n, seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("WLAB_THREADS", threads)
        split = perp_projector(frame)
    assert np.array_equal(split.kappa, oracle_kappa(frame))
    assert split.V_basis.shape == frame.Y.shape[:2] + (4, frame.dim)


@given(**charts)
@example(surface="cp2", nu=35, nv=30, n=7, seed=0)  # blocks of 34 lines and 1
@example(surface="veronese_fd", nu=40, nv=39, n=5, seed=0)
def test_the_one_walk_splits_y_zz_as_the_two_walks_did(surface, nu, nv, n, seed):
    lift = canonical_lift(make_chart(surface, nu, nv, n, seed))
    want = two_walk_split(lift)
    for threads in ("1", "2", "3"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("WLAB_THREADS", threads)
            got = vars(hopf_schwarzian(perp_projector(lift)))
        for key, value in want.items():
            assert np.array_equal(got[key], value), (threads, key)


projection_charts = dict(charts, n=st.sampled_from([3, 5, 7, 10, 20]))


@given(**projection_charts)
@example(surface="veronese_fd", nu=24, nv=16, n=20, seed=0)
@example(surface="clifford_mobius", nu=40, nv=40, n=3, seed=7)
def test_rank4_projection_is_the_oracle_projector(surface, nu, nv, n, seed):
    frame = build_frame(make_chart(surface, nu, nv, n, seed))
    rng = np.random.default_rng(seed)
    w = rng.normal(size=frame.Y_z.shape) + 1j * rng.normal(size=frame.Y_z.shape)
    want = np.einsum("uvab,uvb->uva", einsum_perp_projector(frame), w)
    runs = {}
    for threads in ("1", "2", "3"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("WLAB_THREADS", threads)
            runs[threads] = normal_project(frame.V_basis, w.copy())
    got = runs["1"]
    assert np.array_equal(runs["2"], got) and np.array_equal(runs["3"], got)
    scale = np.abs(w).max() * max(1.0, np.abs(frame.V_basis).max() ** 2)
    assert np.abs(got - want).max() < 1e-13 * scale
    # P is idempotent and annihilates V, each e_k in particular
    assert np.abs(normal_project(frame.V_basis, got.copy()) - got).max() < 1e-13 * scale
    for k in range(4):
        e_k = frame.V_basis[:, :, k].astype(complex)
        assert np.abs(normal_project(frame.V_basis, e_k.copy())).max() < 1e-13 * scale
    # the basis is Q-orthonormal, e_0 timelike, where the frame is live
    gram = mink_inner(frame.V_basis[:, :, :, None], frame.V_basis[:, :, None])
    assert np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0]))[frame.mask].max() < 1e-12
