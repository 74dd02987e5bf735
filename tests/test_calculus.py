import numpy as np
import pytest

from wlab.calculus import (
    GridSpec,
    classify_order,
    convergence_order,
    diff_z,
    diff_zbar,
    integrate,
    wirtinger,
)

TWO_PI = 2 * np.pi


@pytest.fixture
def torus_spec():
    return GridSpec(32, 32, TWO_PI, TWO_PI, True, True)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 32, 1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(32, 32, -1.0, 1.0)


def test_spectral_mode_is_exact(torus_spec):
    u, v = torus_spec.meshgrid()
    f = np.exp(1j * u)
    df = diff_z(f, torus_spec)
    # d/dz e^{iu} = (i/2) e^{iu}
    assert np.abs(df - 0.5j * f).max() < 1e-12


def test_constant_derivative_vanishes(torus_spec):
    f = np.full((32, 32), 3.7)
    assert np.abs(diff_z(f, torus_spec)).max() < 1e-14


def test_mixed_derivative_identity(torus_spec):
    u, v = torus_spec.meshgrid()
    f = np.sin(u) * np.cos(v)
    lap = diff_z(diff_zbar(f, torus_spec), torus_spec)
    analytic = 0.25 * (-np.sin(u) * np.cos(v) - np.sin(u) * np.cos(v))
    assert np.abs(lap - analytic).max() < 1e-10


def test_fd_axis_order_six():
    err = []
    for n in (32, 64):
        spec = GridSpec(n, 8, 2.0, TWO_PI, False, True, u0=-1.0)
        u, _ = spec.meshgrid()
        f = np.sin(3 * u)
        df = diff_z(f, spec)
        err.append(np.abs(df - 1.5 * np.cos(3 * u)))
    assert err[1].max() < err[0].max() / 40  # at least ~order 5 per doubling
    assert err[1][4:-4].max() < 1e-8  # centered-stencil interior


@pytest.mark.parametrize("periodic", [(True, True), (False, True), (False, False)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_wirtinger_halves_are_bit_identical_to_diff_z_and_diff_zbar(monkeypatch, periodic, dtype):
    spec = GridSpec(40, 24, TWO_PI, 2.0, *periodic)
    rng = np.random.default_rng(1)
    f = rng.normal(size=(40, 24, 3)).astype(dtype)
    if dtype is complex:
        f += 1j * rng.normal(size=f.shape)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("WLAB_THREADS", threads)
        f_z, f_zbar = wirtinger(f, spec)
        assert np.array_equal(f_z, diff_z(f, spec)), threads
        assert np.array_equal(f_zbar, diff_zbar(f, spec)), threads


def test_operators_commute(torus_spec):
    u, v = torus_spec.meshgrid()
    f = np.exp(np.sin(u) + np.cos(2 * v))
    a = diff_z(diff_zbar(f, torus_spec), torus_spec)
    b = diff_zbar(diff_z(f, torus_spec), torus_spec)
    assert np.abs(a - b).max() < 1e-10


def test_conjugation_operator_identity(torus_spec):
    rng = np.random.default_rng(0)
    f = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    lhs = np.conj(diff_z(f, torus_spec))
    rhs = diff_zbar(np.conj(f), torus_spec)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_integrate_constants(torus_spec):
    assert integrate(np.ones((32, 32)), torus_spec) == pytest.approx(4 * np.pi**2)


def test_integrate_trig(torus_spec):
    u, v = torus_spec.meshgrid()
    assert abs(integrate(np.sin(u), torus_spec)) < 1e-14
    assert integrate(np.sin(u) ** 2, torus_spec) == pytest.approx(2 * np.pi**2, abs=1e-12)


def test_integral_of_derivative_vanishes(torus_spec):
    u, v = torus_spec.meshgrid()
    f = np.exp(np.cos(u) * np.sin(v))
    assert abs(integrate(diff_z(f, torus_spec), torus_spec)) < 1e-12


def test_integrate_shape_mismatch(torus_spec):
    with pytest.raises(ValueError):
        integrate(np.ones((8, 8)), torus_spec)


def test_convergence_order_algebraic():
    sizes = [16, 32, 64, 128]
    slope = convergence_order(sizes, [n**-4.0 for n in sizes])
    assert slope == pytest.approx(-4.0, abs=0.01)


def test_convergence_order_superalgebraic():
    sizes = [16, 32, 64]
    res = [np.exp(-n) for n in sizes]
    assert classify_order(convergence_order(sizes, res), res, 1e-6) == "superalgebraic"


def test_convergence_order_constant_warns():
    with pytest.warns(UserWarning):
        slope = convergence_order([16, 32, 64], [1.0, 1.0, 1.0])
    assert slope == pytest.approx(0.0, abs=0.01)


def test_rising_roundoff_reads_as_its_floor_not_a_divergence():
    # the CP^2 t_window=6 sweep: gauss sits at roundoff and rises with n,
    # codazzi converges, both against the FD tolerance 1e-3
    sizes = [48, 64, 96, 128]
    gauss = [5.625e-12, 1.388e-11, 7.792e-11, 1.878e-10]
    codazzi = [1.945e-07, 3.373e-08, 2.900e-09, 9.210e-10]
    with pytest.warns(UserWarning):
        slope = convergence_order(sizes, gauss)
    assert slope > 0 and classify_order(slope, gauss, 1e-3) == "roundoff floor"
    assert classify_order(convergence_order(sizes, codazzi), codazzi, 1e-3) == "order 5.54"
    # the same rise above 1e-2 x tolerance is a divergence
    rising = [1e-5 * x / gauss[0] for x in gauss]
    assert classify_order(slope, rising, 1e-3) == f"order {-slope:.2f}"


def test_a_row_constant_at_a_geometric_value_reads_order_zero():
    # Pinkall c=1.5 is not Willmore, and every grid resolves its 0.293
    willmore = [0.293, 0.293 * (1 + 1e-9), 0.293 * (1 + 2e-9)]
    with pytest.warns(UserWarning):
        slope = convergence_order([40, 80, 120], willmore)
    assert slope > 0 and classify_order(slope, willmore, 1e-6) == "order 0.00"
    assert classify_order(0.0, [0.293] * 3, 1e-6) == "order 0.00"


def test_convergence_floor_counts_as_converged():
    assert classify_order(-0.1, [1e-13, 1e-12, 1e-12], 1e-6) == "roundoff floor"


def test_convergence_needs_three_sizes():
    with pytest.raises(ValueError):
        convergence_order([16, 32], [1.0 / 16, 1.0 / 32])
