import numpy as np
import pytest

from wlab.calculus import (
    FD_ORDER,
    GridSpec,
    _diff_axis,
    _fd_matrix,
    _fornberg_weights,
    classify_order,
    convergence_order,
    diff_real,
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


@pytest.mark.parametrize("kwargs, message", [
    ({"Lu": np.nan}, "extents must be positive and finite"),
    ({"Lv": np.nan}, "extents must be positive and finite"),
    ({"Lu": np.inf}, "extents must be positive and finite"),
    ({"Lv": -np.inf}, "extents must be positive and finite"),
    ({"u0": np.nan}, "origins must be finite"),
    ({"v0": np.inf}, "origins must be finite"),
    ({"u0": -np.inf, "periodic_u": False}, "origins must be finite"),
])
def test_non_finite_extents_and_origins_are_rejected(kwargs, message):
    # a NaN extent compares False with 0, so only an explicit check stops it
    # before every coordinate of the grid is NaN
    args = {"nu": 8, "nv": 8, "Lu": 1.0, "Lv": 1.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        GridSpec(**args)


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


@pytest.mark.parametrize("nu, nv, periodic", [
    (40, 24, (True, True)),    # spectral, even n
    (41, 27, (True, True)),    # spectral, odd n
    (40, 24, (False, False)),  # finite differences
    (41, 24, (False, True)),   # mixed
    (40, 27, (True, False)),
])
def test_diff_real_matches_the_complex_axis_derivative(monkeypatch, nu, nv, periodic):
    spec = GridSpec(nu, nv, TWO_PI, 2.0, *periodic)
    f = np.random.default_rng(2).normal(size=(nu, nv, 3))
    for axis, (n, length) in enumerate(((nu, TWO_PI), (nv, 2.0))):
        f1 = _diff_axis(f, axis, n, length, periodic[axis]).real
        f2 = _diff_axis(f1, axis, n, length, periodic[axis]).real
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("WLAB_THREADS", threads)
            results.append(diff_real(f, spec, axis))
        d1, d2 = results[0]
        assert d1.dtype == d2.dtype == np.float64
        assert np.abs(d1 - f1).max() <= 1e-13 * np.abs(f1).max()
        assert np.abs(d2 - f2).max() <= 1e-13 * np.abs(f2).max()
        for other in results[1:]:  # bit-identical for any thread count
            assert all(np.array_equal(a, b) for a, b in zip(other, results[0]))
        (first,) = diff_real(f, spec, axis, order=1)
        assert np.array_equal(first, d1)


def test_diff_real_shape_mismatch(torus_spec):
    with pytest.raises(ValueError):
        diff_real(np.ones((32, 30)), torus_spec, 1)


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


def test_integrate_is_exact_for_linear_functions_on_open_axes():
    # the trapezoid rule, end weights h/2, is exact for linear functions: a
    # bilinear f integrates to its value at the centre times the area, and
    # a periodic v factor 2 + cos v to 4 pi
    open_spec = GridSpec(9, 13, 2.0, 3.0, False, False, u0=-0.5, v0=1.0)
    u, v = open_spec.meshgrid()
    f = 1.0 + 2.0 * u - 3.0 * v + u * v
    assert integrate(f, open_spec) == pytest.approx(6.0 * -4.25, rel=1e-14)
    mixed_spec = GridSpec(9, 16, 2.0, TWO_PI, False, True, u0=-0.5)
    u, v = mixed_spec.meshgrid()
    assert integrate((1.0 + 2.0 * u) * (2.0 + np.cos(v)), mixed_spec) == pytest.approx(
        4.0 * 4.0 * np.pi, rel=1e-14)


def test_integral_of_derivative_vanishes(torus_spec):
    u, v = torus_spec.meshgrid()
    f = np.exp(np.cos(u) * np.sin(v))
    assert abs(integrate(diff_z(f, torus_spec), torus_spec)) < 1e-12


def test_integrate_does_not_depend_on_the_layout_of_f():
    # a strided `.real` view, its C copy and a Fortran copy: einsum alone
    # rounds the first differently on this field
    spec = GridSpec(128, 128, TWO_PI, TWO_PI)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    values = {integrate(f, spec) for f in (z.real, np.ascontiguousarray(z.real),
                                           np.asfortranarray(z.real))}
    assert len(values) == 1, values


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


def per_row_fd_matrix(n: int, h: float) -> np.ndarray:
    """The FD matrix with each row's stencil solved on its own: the
    reference for the seven stencils `_fd_matrix` solves once."""
    width, half = FD_ORDER + 1, FD_ORDER // 2
    d = np.zeros((n, n))
    nodes = np.arange(width) * h
    for i in range(n):
        lo = min(max(0, i - half), n - width)
        d[i, lo : lo + width] = _fornberg_weights(nodes, (i - lo) * h, 1)
    return d


@pytest.mark.parametrize("n", [8, 9, 64, 256, 257])
def test_fd_matrix_is_the_per_row_construction(n):
    h = 5.0 / (n - 1)
    assert np.array_equal(_fd_matrix.__wrapped__(n, h), per_row_fd_matrix(n, h))
