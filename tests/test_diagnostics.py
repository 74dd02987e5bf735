import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wlab.calculus import GridSpec
import wlab.calculus as calculus
import wlab.diagnostics as diagnostics
import wlab.invariants as invariants
from wlab.diagnostics import (
    RESIDUALS,
    analyze,
    codazzi_gauss_residuals,
    codazzi_residual,
    default_tolerances,
    field_norms,
    flat_normal_residual,
    gauss_residual,
    isothermic_residual,
    phase_laplacian_residual,
    reduction_span_check,
    remark62_residual,
    s_willmore_residual,
    six_form,
    six_form_scalar,
    willmore_residual,
)
from wlab.frame import Chart, ChartError, build_frame, light_cone_lift, validate_chart
from wlab.gallery import (
    apply_mobius,
    clifford,
    homogeneous_cp2_hopf,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    round_sphere,
    veronese,
)
from wlab.invariants import hopf_schwarzian, unwrap_half_phase
from wlab.lorentz import random_mobius, span_rank
from wlab.parallel import BLOCK_POINTS

from flatness_oracles import flat_normal_scalar, ricci_rhs_max
from frame_oracles import kappa_jet

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def clifford_frame():
    return hopf_schwarzian(build_frame(clifford(48, 48)))


@pytest.fixture(scope="module")
def clifford_jet(clifford_frame):
    return kappa_jet(clifford_frame)


def synthetic_field(vecs):
    """Broadcast a single complex vector to a tiny (8, 8) grid field."""
    vecs = np.asarray(vecs, dtype=complex)
    return np.broadcast_to(vecs, (8, 8) + vecs.shape).copy()


def e(i, dim=4):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


# --- willmore -------------------------------------------------------------

def test_willmore_residual_clifford(clifford_frame, clifford_jet):
    frame = clifford_frame
    assert willmore_residual(clifford_jet.willmore_vector)[frame.mask].max() < 1e-8


def test_willmore_residual_round_sphere():
    frame = build_frame(include_in_higher_sphere(round_sphere(64, 24), 4))
    jet = kappa_jet(frame)
    assert willmore_residual(jet.willmore_vector)[frame.mask].max() < 1e-10


def test_willmore_residual_perturbed_control(monkeypatch):
    # the bump makes the chart non-conformal, which the lift rejects; lift
    # the conformality gate to build its frame anyway
    monkeypatch.setattr("wlab.frame.CONFORMAL_TOL_SPECTRAL", math.inf)
    ch = clifford(48, 48)
    u, v = ch.spec.meshgrid()
    bump = 1e-2 * np.stack(
        [np.sin(u + 2 * v), np.cos(2 * u - v), np.sin(u) * np.sin(v), np.cos(u + v)],
        axis=-1,
    )
    pts = ch.points + bump
    pts /= np.linalg.norm(pts, axis=-1)[..., None]
    pert = Chart(ch.spec, pts, name="perturbed_clifford")
    frame = hopf_schwarzian(build_frame(pert))
    jet = kappa_jet(frame)
    assert willmore_residual(jet.willmore_vector)[frame.mask].max() > 1e-3
    gauss = gauss_residual(frame, jet.Dz_kappa, jet.Dzbar_kappa)
    assert gauss[frame.mask].max() > 1e-3


# --- S-Willmore -----------------------------------------------------------

def _synthetic_frame(kappa, dzbar_kappa):
    """(frame, D_zbar kappa) of one kappa and D_zbar kappa at every point."""
    kap = synthetic_field(kappa)
    kk = np.einsum("...k,...k->...", kap, kap)
    kk_bar = np.einsum("...k,...k->...", kap, np.conj(kap)).real
    frame = SimpleNamespace(
        kappa=kap, kk=kk, kk_bar=kk_bar,
        umbilic_mask=np.zeros((8, 8), dtype=bool),
        mask=np.ones((8, 8), dtype=bool),
    )
    return frame, synthetic_field(dzbar_kappa)


def test_s_willmore_parallel_is_zero():
    frame, dzb = _synthetic_frame(e(0), 5.0 * e(0))
    assert np.abs(s_willmore_residual(frame, dzb)).max() < 1e-14


def test_s_willmore_orthogonal_is_one():
    frame, dzb = _synthetic_frame(e(0), e(1))
    assert np.abs(s_willmore_residual(frame, dzb) - 1.0).max() < 1e-14


def test_s_willmore_clifford(clifford_frame, clifford_jet):
    frame = clifford_frame
    live = frame.mask & ~frame.umbilic_mask
    assert s_willmore_residual(frame, clifford_jet.Dzbar_kappa)[live].max() < 1e-9


# --- flat normal bundle ---------------------------------------------------

def test_flat_residual_common_phase_vanishes():
    kappa = (1 + 1j) * e(0) + (2 + 2j) * e(1)
    assert abs(flat_normal_scalar(kappa)) < 1e-14


def test_flat_residual_quarter_phase():
    kappa = e(0) + 1j * e(1)
    assert flat_normal_scalar(kappa) == pytest.approx(2.0)


def test_flat_residual_clifford(clifford_frame):
    frame = clifford_frame
    live = frame.mask & ~frame.umbilic_mask
    assert flat_normal_residual(frame)[live].max() < 1e-10


def test_flat_residual_veronese_bounded_below():
    frame = hopf_schwarzian(build_frame(veronese(64, 32)))
    live = frame.mask & ~frame.umbilic_mask
    assert flat_normal_residual(frame)[live].min() > 1e-2


# --- isothermic -----------------------------------------------------------

def test_isothermic_clifford(clifford_frame):
    frame = clifford_frame
    res = phase_laplacian_residual(unwrap_half_phase(frame.kk, frame.spec)[0], frame.spec)
    assert res[frame.mask].max() < 1e-9


def test_isothermic_linear_phase_is_harmonic():
    spec = GridSpec(48, 16, 1.0, TWO_PI, False, True)
    u, _ = spec.meshgrid()
    assert np.abs(phase_laplacian_residual(u, spec)).max() < 1e-10


def test_isothermic_quadratic_phase():
    spec = GridSpec(48, 16, 1.0, TWO_PI, False, True)
    u, _ = spec.meshgrid()
    res = phase_laplacian_residual(u * u, spec)
    assert np.abs(res - 0.5).max() < 1e-10


def test_isothermic_log_form_reads_the_phase_not_the_modulus():
    # k = |k| e^{2i theta} with theta = u^2 / 2: |theta_z zbar| = 1/4 whatever
    # |k|; the FD truncation of k's derivatives reads 8.7e-7 at the edge u = 1
    spec = GridSpec(48, 16, 1.0, TWO_PI, False, True)
    u, v = spec.meshgrid()
    res = isothermic_residual((2.0 + np.cos(v)) * np.exp(1j * u * u), spec)
    assert np.abs(res - 0.25).max() < 1e-6


def resolved_mobius_image(base, n, magnitude, seed):
    """The image of Clifford n x n or Pinkall c=1.5 2n x n under
    random_mobius(3, seed, magnitude), on the first of the grids n, 2n, 4n
    that passes the chart check; None when none does."""
    for m in (n, 2 * n, 4 * n):
        chart = clifford(m, m) if base == "clifford" else pinkall_hopf_torus(1.5, 2 * m, m).chart
        try:
            image = apply_mobius(chart, random_mobius(3, seed, magnitude))
            validate_chart(image)
            return image
        except ValueError:  # a ChartError, or a map across the projection pole
            continue
    return None


# Most images at 16..32 points a side fail the chart check, so they are
# refined first.  On the images that analyze would reject, the unwrapping
# drops up to 139 non-umbilic points and the two discrete forms differ at
# O(1) and above
@settings(max_examples=16)
@given(base=st.sampled_from(["clifford", "pinkall"]), n=st.integers(16, 32),
       magnitude=st.floats(0.5, 3.0), seed=st.integers(0, 2**16))
def test_the_log_form_is_the_laplacian_of_the_unwrapped_phase(base, n, magnitude, seed):
    image = resolved_mobius_image(base, n, magnitude, seed)
    assume(image is not None)
    frame = hopf_schwarzian(build_frame(image))
    theta, theta_mask = unwrap_half_phase(frame.kk, frame.spec)
    non_umbilic = frame.mask & ~frame.umbilic_mask
    # the phase unwraps cleanly at every point the isothermic verdict reads
    assert ((non_umbilic & theta_mask) == non_umbilic).all()
    diff = isothermic_residual(frame.kk, frame.spec) - phase_laplacian_residual(theta, frame.spec)
    assert np.abs(diff[non_umbilic & theta_mask]).max() <= 1e-9


def test_isothermic_skipped_on_non_flat():
    # theta is undefined off flat normal bundles: the failed flat_normal
    # verdict empties the isothermic mask
    rep = analyze(veronese(64, 32))
    assert rep.entry("flat_normal").verdict == "fail"
    iso = rep.entry("isothermic")
    assert iso.verdict == "skipped" and iso.masked_fraction == 1.0
    assert math.isnan(iso.L_inf) and math.isnan(iso.L2)


# --- six form ---------------------------------------------------------------

def test_six_form_parallel_derivative_identity():
    rng = np.random.default_rng(0)
    kappa = rng.normal(size=5) + 1j * rng.normal(size=5)
    mu = 0.7 - 1.9j
    assert abs(six_form_scalar(kappa, mu * kappa)) < 1e-12


def test_six_form_orthonormal_pair():
    assert six_form_scalar(e(0) + 0j, e(1) + 0j) == pytest.approx(-1.0)


def test_six_form_clifford(clifford_frame, clifford_jet):
    frame = clifford_frame
    omega, holo = six_form(frame, clifford_jet.Dzbar_kappa)
    assert np.abs(omega)[frame.mask].max() < 1e-12
    assert holo[frame.mask].max() < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="six_form pairs kappa and D_zbar kappa with the "
                   "Euclidean dot, not the Minkowski pairing, so |Omega| moves under "
                   "Mobius maps")
def test_six_form_is_mobius_invariant():
    # the CP^2 lift is full in S^5; W_conformal holds to 1e-11 under this map
    lam = [-1.0, 0.5, 2.0]
    chart = homogeneous_cp2_hopf(lam, 96, 48).chart
    moved = apply_mobius(chart, random_mobius(5, 1, 0.3))
    base = analyze(chart)
    image = analyze(moved)
    m = base.masks["omega_abs"] & image.masks["omega_abs"]
    assert np.abs(image.fields["omega_abs"] - base.fields["omega_abs"])[m].max() < 1e-9


# --- Gauss / Codazzi --------------------------------------------------------

def test_codazzi_gauss_clifford(clifford_frame, clifford_jet):
    frame = clifford_frame
    gauss, codazzi = codazzi_gauss_residuals(
        frame, clifford_jet.Dz_kappa, clifford_jet.Dzbar_kappa, clifford_jet.willmore_vector)
    assert gauss[frame.mask].max() < 1e-8
    assert codazzi[frame.mask].max() < 1e-8


def test_codazzi_below_willmore(clifford_frame, clifford_jet):
    # the Codazzi row is the imaginary part of the Willmore expression
    frame = clifford_frame
    codazzi = codazzi_residual(clifford_jet.willmore_vector)
    will = willmore_residual(clifford_jet.willmore_vector)
    assert codazzi[frame.mask].max() <= will[frame.mask].max() + 1e-12


# --- rank witnesses --------------------------------------------------------

def test_reduction_span_clifford(clifford_frame, clifford_jet):
    frame = clifford_frame
    assert reduction_span_check(frame.mask, [frame.Y]) == 5
    jet = [frame.kappa, clifford_jet.Dz_kappa, clifford_jet.Dzbar_Dz_kappa]
    assert reduction_span_check(frame.mask, jet) == 4


def test_reduction_span_round_sphere():
    frame = build_frame(include_in_higher_sphere(round_sphere(64, 24), 4))
    assert reduction_span_check(frame.mask, [frame.Y]) == 4


def test_reduction_span_copies_no_masked_field():
    # three (256, 64, 6) complex fields in a common 3-dimensional span under
    # the Veronese mask: the masked rows are gathered one leaf at a time,
    # where masked copies of a field were 2.1x one field's bytes
    rng = np.random.default_rng(3)
    mask = veronese(256, 64).spec.interior_mask()
    span = rng.normal(size=(3, 6))
    fields = [(rng.normal(size=(256, 64, 2)) + 1j * rng.normal(size=(256, 64, 2)))
              @ rng.normal(size=(2, 3)) @ span for _ in range(3)]
    want = span_rank([p for f in fields for p in (f[mask].real, f[mask].imag)])
    tracemalloc.start()
    try:
        rank = reduction_span_check(mask, fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == want == 3
    assert peak <= 0.5 * fields[0].nbytes


def test_reduction_span_counts_a_short_last_leaf():
    # 2 BLOCK_POINTS + 3 masked points: two full leaves and a last one of 3
    # rows, fewer than the dimension 9
    rng = np.random.default_rng(12)
    n, dim = 2 * BLOCK_POINTS + 3, 9
    pts = rng.normal(size=(n, 4)) @ rng.normal(size=(4, dim))
    pts[-3:] = rng.normal(size=(3, dim))
    # the last leaf adds 3 directions to the 4 before it
    assert reduction_span_check(np.ones((n, 1), bool), [pts[:, None, :]]) == 7


def test_reduction_span_needs_samples(monkeypatch):
    # 8 x 8 misses the FD conformality tolerance, which the lift checks
    monkeypatch.setattr("wlab.frame.CONFORMAL_TOL_FD", math.inf)
    frame = build_frame(include_in_higher_sphere(round_sphere(8, 8), 4))
    with pytest.raises(ValueError):
        reduction_span_check(frame.mask, [frame.Y])


# --- flatness-criterion equivalence (pointwise brute force) ----------------

def test_flatness_equivalence_spot():
    rng = np.random.default_rng(2)
    generic = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
    flat = np.exp(1j * rng.uniform(0, np.pi, size=(100, 1))) * rng.normal(size=(100, 4))
    for batch in (generic, flat):
        batch /= np.sqrt(np.einsum("sk,sk->s", batch, np.conj(batch)).real)[:, None]
        a = flat_normal_scalar(batch) < 1e-10
        b = ricci_rhs_max(batch) < 1e-10
        assert np.array_equal(a, b)


# --- Remark-style integrability evaluator ----------------------------------

def test_remark62_zero_fixture():
    spec = GridSpec(16, 16, TWO_PI, TWO_PI, True, True)
    zero = np.zeros((16, 16))
    r1, r2 = remark62_residual([zero] * 4, zero, zero + 0j, spec)
    assert np.abs(r1).max() == 0.0
    assert np.abs(r2).max() == 0.0


def test_remark62_constant_fixture():
    spec = GridSpec(16, 16, TWO_PI, TWO_PI, True, True)
    zero = np.zeros((16, 16))
    k3 = np.full((16, 16), np.sqrt(2) / 4)
    r1, r2 = remark62_residual([k3, zero, zero, zero], zero, zero + 0j, spec)
    assert np.abs(r1).max() < 1e-12
    assert np.abs(r2).max() < 1e-12


def test_remark62_linear_k3_fixture():
    # k3 = u, theta = s = 0: first row vanishes, second is |2 (u^2)_z| = 2|u|
    spec = GridSpec(48, 16, 1.0, TWO_PI, False, True)
    u, _ = spec.meshgrid()
    zero = np.zeros((48, 16))
    r1, r2 = remark62_residual([u, zero, zero, zero], zero, zero + 0j, spec)
    assert np.abs(r1).max() < 1e-10
    assert np.abs(r2 - 2.0 * np.abs(u)).max() < 1e-10


def test_remark62_shape_mismatch():
    spec = GridSpec(16, 16, TWO_PI, TWO_PI, True, True)
    with pytest.raises(ValueError):
        remark62_residual([np.zeros((8, 8))] * 4, np.zeros((16, 16)),
                          np.zeros((16, 16)), spec)


def test_grid_origin_shift_invariance():
    # spectral operators are shift-equivariant, so rolling a periodic chart
    # moves every field without changing norms or energies
    base_chart = clifford(32, 32)
    base = analyze(base_chart)
    shifted = Chart(
        base_chart.spec, np.roll(base_chart.points, (5, 11), axis=(0, 1)), name="clifford",
    )
    rep = analyze(shifted)
    assert abs(rep.energies["W_conformal"] - base.energies["W_conformal"]) < 1e-10
    for e in base.entries:
        if not np.isnan(e.L_inf):
            assert abs(rep.entry(e.name).L_inf - e.L_inf) < 1e-7, e.name


# --- report assembly --------------------------------------------------------

def test_report_norm_inequality(clifford_frame):
    frame = clifford_frame
    rep = analyze(frame.chart)
    area = math.sqrt(4 * np.pi**2)
    for entry in rep.entries:
        if not math.isnan(entry.L2):
            assert entry.L2 <= entry.L_inf * area * (1 + 1e-12)


def test_the_json_dict_shares_no_container_with_the_report():
    report = analyze(homogeneous_cp2_hopf([-1.0, 0.5, 2.0], 32, 16).chart)
    before = json.dumps(report.to_json_dict(), sort_keys=True)
    out = report.to_json_dict()
    out["energies"].pop("W_euclidean")
    out["ranks"].clear()
    out["chart"]["params"]["lambdas"].append(3.0)
    out["chart"]["params"]["t_window"] = 6.0
    assert "W_euclidean" in report.energies and report.ranks
    assert report.chart["params"] == {"lambdas": [-1.0, 0.5, 2.0], "t_window": None}
    assert json.dumps(report.to_json_dict(), sort_keys=True) == before


def test_field_norms_empty_mask():
    spec = GridSpec(8, 8, 1.0, 1.0, True, True)
    linf, l2, frac = field_norms(np.ones((8, 8)), spec, np.zeros((8, 8), bool))
    assert math.isnan(linf) and math.isnan(l2) and frac == 1.0


def test_axis_derivative_count_does_not_depend_on_codimension(monkeypatch):
    counts = []

    def counting(primitive, kind):
        def counted(*args, **kwargs):
            counts[-1][kind] += 1
            return primitive(*args, **kwargs)
        return counted

    monkeypatch.setattr(calculus, "_diff_axis", counting(calculus._diff_axis, "complex"))
    for module in (invariants, diagnostics):  # every module that binds diff_real
        monkeypatch.setattr(module, "diff_real", counting(calculus.diff_real, "real"))
    for n in (3, 7, 10):
        counts.append({"complex": 0, "real": 0})
        analyze(include_in_higher_sphere(clifford(128, 128), n))
    # complex: each field's Wirtinger pair costs one diff_u and one diff_v, the
    # normal 2-jet of kappa is differentiated once, the chart check reads the
    # lift's own y0_z, and isothermic takes the Wirtinger pair of <kappa, kappa>
    # and d_z of its d_zbar.  real: the Euclidean check takes X along u and v
    # and X_u along v
    assert counts == [{"complex": 20, "real": 3}] * 3, counts


def analyze_peak_over_y(monkeypatch, threads, ambient_n):
    """tracemalloc peak of analyze over Y.nbytes, Clifford 128^2 in S^n."""
    monkeypatch.setenv("WLAB_THREADS", threads)
    chart = include_in_higher_sphere(clifford(128, 128), ambient_n)
    y_bytes = light_cone_lift(chart).nbytes
    tracemalloc.start()
    try:
        analyze(chart)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / y_bytes


# Each field lives only until its last reader, and no (nu, nv, d, d) field
# exists.  The peak (14.4x in S^7, 14.8x in S^10, 16.6x in S^20 at one
# thread; 16.7x, 17.6x and 21.2x at two) sits where kappa's normal jet is
# widest (the V basis, 4x Y, with kappa, D_z kappa, D_zbar kappa and D_zbar
# D_z kappa alive at the jet rank) or in `perp_projector`, whose parts each
# hold a block of P, d^2 numbers a point of a block of grid lines.  A lift
# or jet field held past its last reader adds 1x to 2x; a stored dense
# projector (d x Y), the (6m, d) kappa-jet matrix (46.8x in S^7) or a stored
# normal basis would add far more.
def test_analyze_peak_memory_in_s7(monkeypatch):
    for threads in ("1", "2"):
        assert analyze_peak_over_y(monkeypatch, threads, 7) < 17.5, threads


def test_analyze_peak_memory_in_s10(monkeypatch):
    for threads in ("1", "2"):
        assert analyze_peak_over_y(monkeypatch, threads, 10) < 18.5, threads


def test_analyze_peak_memory_in_s20(monkeypatch):
    # d = 22: a dense projector field alone would be 22x Y
    for threads in ("1", "2"):
        assert analyze_peak_over_y(monkeypatch, threads, 20) < 22, threads


def test_analyze_rejects_a_constant_chart_as_a_chart_error():
    # conformality alone passes it (0/0); the lift rejects the metric before
    # anything else runs, so the Euclidean energy, which runs last and would
    # fail its metric solve with a LinAlgError, never sees it
    spec = GridSpec(16, 16, TWO_PI, TWO_PI, True, True)
    pts = np.zeros((16, 16, 4))
    pts[..., 0] = 1.0
    with pytest.raises(ChartError, match="degenerate everywhere"):
        analyze(Chart(spec, pts))


def test_nan_at_live_point_fails(clifford_frame, monkeypatch):
    # a NaN among passing values must not read as `skipped`, which counts
    # as success
    frame = clifford_frame
    holo = np.zeros(frame.mask.shape)
    holo[tuple(np.argwhere(frame.mask)[0])] = np.nan
    monkeypatch.setattr(diagnostics, "six_form",
                        lambda frame, dzbar_kappa: (np.zeros_like(holo), holo))
    rep = analyze(frame.chart)
    assert rep.entry("omega_abs").verdict == "pass"
    assert rep.entry("omega_holomorphy").verdict == "fail"
    assert rep.passed is False


def test_residual_table_drives_every_name_list(tmp_path):
    # report entries, tolerances, verdict masks, the convergence table and
    # the CSV header all come from RESIDUALS
    from wlab.cli import main

    names = [row.name for row in RESIDUALS]
    chart = clifford(16, 16)
    rep = analyze(chart)
    assert [e.name for e in rep.entries] == names
    assert list(default_tolerances(chart)) == names
    assert list(rep.masks) == [row.field for row in RESIDUALS]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"name": "clifford"}, "grid": {"nu": 16, "nv": 16}}))
    table, csv = tmp_path / "table.json", tmp_path / "fields.csv"
    assert main(["convergence", str(cfg), "--sizes", "16,20,24", "--out", str(table)]) == 0
    data = json.loads(table.read_text())
    assert sorted(data["residual_L_inf"]) == sorted(data["fitted_order"]) == sorted(names)

    assert main(["fields", str(cfg), "--out", str(csv)]) == 0
    header = csv.read_text().split("\n", 1)[0].split(",")
    assert header == ["u", "v", "kkbar", "abs_kk", "theta"] + [
        row.field for row in RESIDUALS if row.csv
    ]


def test_report_entry_of_an_unknown_name_is_a_key_error():
    with pytest.raises(KeyError, match="nope"):
        analyze(clifford(16, 16), witnesses=False).entry("nope")


def test_a_surface_close_to_every_pole_candidate_fails_the_euclidean_energy():
    # a Mercator sphere out to |u| = 6 comes within 0.1 of every candidate pole
    with pytest.raises(ValueError, match=r"no stereographic pole at distance >= 0\.1"):
        analyze(round_sphere(128, 64, 6.0))
