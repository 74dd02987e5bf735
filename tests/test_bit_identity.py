"""Bit identity of the staged `analyze`, as properties over random charts.

`analyze` forms kappa's normal jet one field at a time and drops each
after its last reader.  Over random grids (many of them not a multiple
of PROJECTOR_BLOCK points), ambient spheres and thread counts, its
fields must equal, bit for bit, those of the public evaluators applied
to the whole jet at once, and its report bytes must not depend on the
thread count.  `perp_projector` must equal its 4-operand einsum oracle.
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
from wlab.frame import build_frame, canonical_lift, perp_projector
from wlab.gallery import (
    apply_mobius,
    build_surface,
    clifford,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    veronese,
)
from wlab.invariants import hopf_schwarzian, ricci_residual
from wlab.lorentz import random_mobius

from frame_oracles import einsum_perp_projector, kappa_jet


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
    frame = build_frame(chart)
    inv = hopf_schwarzian(frame)
    jet = kappa_jet(frame, inv)
    omega, holo = six_form(inv, jet.Dzbar_kappa)
    fields = {
        "res_willmore": willmore_residual(jet.willmore_vector),
        "res_swillmore": s_willmore_residual(inv, jet.Dzbar_kappa),
        "res_gauss": gauss_residual(inv, jet.Dz_kappa, jet.Dzbar_kappa),
        "res_codazzi": codazzi_residual(jet.willmore_vector),
        "res_ricci": ricci_residual(inv, jet.Dzbar_Dz_kappa, jet.Dz_Dzbar_kappa),
        "omega_abs": np.abs(omega),
        "omega_holomorphy": holo,
    }
    ranks = {
        "lift_rank": reduction_span_check(frame.mask, [frame.Y]),
        "kappa_jet_rank": reduction_span_check(
            frame.mask, [inv.kappa, jet.Dz_kappa, jet.Dzbar_Dz_kappa]),
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
    assert report_json(report, 0) == report_json(serial, 0)
    assert report.fields.keys() == serial.fields.keys()
    for key, value in report.fields.items():
        assert np.array_equal(value, serial.fields[key], equal_nan=True), key
    for key, value in want_fields.items():
        assert np.array_equal(report.fields[key], value, equal_nan=True), key
    assert report.ranks == want_ranks


@given(threads=threads, **charts)
@example(threads="2", surface="cp2", nu=17, nv=31, n=7, seed=0)  # 527 = 512 + 15 points
def test_perp_projector_is_the_einsum_bit_for_bit(threads, surface, nu, nv, n, seed):
    frame = canonical_lift(make_chart(surface, nu, nv, n, seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("WLAB_THREADS", threads)
        p = perp_projector(frame)
    assert np.array_equal(p, einsum_perp_projector(frame))
