import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from wlab.lorentz import (
    RANK_TOL,
    herm_norm,
    herm_norm_sq,
    mink_inner,
    random_mobius,
    signature,
    span_rank,
)

from wlab.gallery import clifford, include_in_higher_sphere
from wlab.parallel import BLOCK_POINTS

from frame_oracles import mobius_form_defect, mobius_inverse


def basis(i, dim=5):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


def test_signature_pairings():
    assert mink_inner(basis(0), basis(0)) == -1.0
    assert mink_inner(basis(1), basis(1)) == 1.0
    assert mink_inner(basis(0), basis(1)) == 0.0


def test_light_cone_membership():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    lift = np.concatenate([[1.0], x])
    assert abs(mink_inner(lift, lift)) < 1e-15


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mink_inner(np.zeros(4), np.zeros(5))


def test_complex_bilinear():
    e1, e2 = basis(1) + 0j, basis(2) + 0j
    assert mink_inner(1j * e1, e1) == 1j
    assert mink_inner(e1 + 1j * e2, e1 + 1j * e2) == 0
    assert mink_inner(e1 + 1j * e2, e1 - 1j * e2) == 2


def test_conjugation_symmetry():
    rng = np.random.default_rng(1)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    w = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.conj(mink_inner(v, w)) == pytest.approx(mink_inner(np.conj(v), np.conj(w)))


def test_real_agreement_is_exact():
    rng = np.random.default_rng(2)
    v = rng.normal(size=7)
    w = rng.normal(size=7)
    assert mink_inner(v + 0j, w + 0j) == mink_inner(v, w)


def test_herm_norm_nonnegative_on_spacelike():
    rng = np.random.default_rng(3)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v[0] = 0.0  # spacelike slot only
    assert herm_norm_sq(v) >= 0


def test_herm_norm_is_the_clipped_root_of_herm_norm_sq():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    v[:3, 0] = 0.0  # spacelike rows: <v, conj v> > 0
    v[3:, 0] = 10.0  # timelike rows: the negative values clip to 0
    sq = herm_norm_sq(v)
    assert (sq[:3] > 0).all() and (sq[3:] < 0).all()
    assert np.array_equal(herm_norm(v), np.sqrt(np.maximum(sq, 0.0)))
    assert (herm_norm(v)[3:] == 0.0).all()


def test_span_rank_dependent_vectors():
    pts = np.stack([basis(0), basis(1), basis(0) + basis(1)])
    assert span_rank([pts]) == 2


def test_span_rank_empty():
    with pytest.raises(ValueError):
        span_rank([])
    with pytest.raises(ValueError):
        span_rank([np.zeros((0, 5))])


def test_span_rank_of_blocks_matches_the_single_matrix_call():
    # singular values 1, then 2 RANK_TOL just above the threshold or
    # RANK_TOL / 2 just below it: every rank must count the same from the
    # blocks as from the whole
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(90, 7)))
    v, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    for rank in range(1, 8):
        sigma = np.where(np.arange(7) < rank, 2.0 * RANK_TOL, RANK_TOL / 2.0)
        sigma[0] = 1.0
        pts = u @ np.diag(sigma) @ v
        # uneven blocks, one shorter than the dimension and one empty
        blocks = [pts[:3], pts[3:3], pts[3:50], pts[50:]]
        assert span_rank([pts]) == rank
        assert span_rank(blocks) == rank
        assert span_rank(iter(blocks)) == rank
    with pytest.raises(ValueError):
        span_rank([pts[:0], pts[3:3]])


def test_span_rank_counts_every_leaf():
    # 2 BLOCK_POINTS + 3 rows in leaves of BLOCK_POINTS: two full leaves and
    # a last one of 3 rows, fewer than the dimension 9
    rng = np.random.default_rng(12)
    n, dim = 2 * BLOCK_POINTS + 3, 9
    u, _ = np.linalg.qr(rng.normal(size=(n, dim)))
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    for rank in range(1, dim + 1):
        sigma = np.where(np.arange(dim) < rank, 2.0 * RANK_TOL, RANK_TOL / 2.0)
        sigma[0] = 1.0
        pts = u @ np.diag(sigma) @ v
        assert span_rank(pts[lo:lo + BLOCK_POINTS] for lo in range(0, n, BLOCK_POINTS)) == rank


def test_span_rank_copies_one_leaf_at_a_time():
    chart = include_in_higher_sphere(clifford(256, 256), 7)
    lift = np.concatenate([np.ones(chart.points.shape[:-1] + (1,)), chart.points], axis=-1)
    f = lift * np.exp(1j * chart.spec.meshgrid()[0])[..., None]
    rows = [p.reshape(-1, p.shape[-1]) for p in (f.real, f.imag)]  # strided views
    tracemalloc.start()
    try:
        assert span_rank(r[lo:lo + BLOCK_POINTS] for r in rows
                         for lo in range(0, len(r), BLOCK_POINTS)) == 5
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a copy of the strided block f.real would be 1.0x
    assert peak < 0.25 * f.real.nbytes


def test_clifford_lifts_span_five_dimensions():
    # lifts sqrt2 (1, x) of the product torus involve the five functions
    # {1, cos u, sin u, cos v, sin v}, so their span is exactly 5-dimensional
    u = np.linspace(0, 2 * np.pi, 17)[:-1]
    v = np.linspace(0, 2 * np.pi, 13)[:-1]
    uu, vv = np.meshgrid(u, v, indexing="ij")
    r = 1 / np.sqrt(2)
    lifts = np.stack(
        [np.ones_like(uu), r * np.cos(uu), r * np.sin(uu), r * np.cos(vv), r * np.sin(vv)],
        axis=-1,
    ) * np.sqrt(2)
    assert span_rank([lifts.reshape(-1, 5)]) == 5


def test_veronese_lifts_span_six_dimensions():
    rng = np.random.default_rng(4)
    xyz = rng.normal(size=(200, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    x, y, z = xyz.T
    s3 = np.sqrt(3.0)
    pts = np.stack(
        [np.ones_like(x), s3 * x * y, s3 * x * z, s3 * y * z,
         0.5 * s3 * (x * x - y * y), 0.5 * (x * x + y * y - 2 * z * z)],
        axis=-1,
    )
    assert span_rank([pts]) == 6


def test_random_mobius_identity_at_zero_magnitude():
    m = random_mobius(4, seed=7, magnitude=0.0)
    assert np.allclose(m, np.eye(6), atol=1e-15)


def test_random_mobius_rejects_a_map_that_overflows():
    with pytest.raises(ValueError, match=r"the Mobius map of magnitude 1e\+300 is not finite"):
        random_mobius(3, 0, 1e300)


def test_random_mobius_preserves_form():
    rng = np.random.default_rng(5)
    m = random_mobius(5, seed=11, magnitude=1.5)
    assert m.shape == (7, 7)
    assert mobius_form_defect(m) < 1e-10
    v = rng.normal(size=(20, 7))
    w = rng.normal(size=(20, 7))
    before = mink_inner(v, w)
    after = mink_inner(v @ m.T, w @ m.T)
    assert np.abs(after - before).max() < 1e-10


def mobius_generator(n, seed, magnitude):
    """The o(n+1,1) matrix that `random_mobius(n, seed, magnitude)` exponentiates."""
    dim = n + 2
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(dim, dim))
    return magnitude * (signature(dim)[:, None] * (0.5 * (m - m.T)))


@pytest.mark.parametrize("magnitude", [0.02, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 20])
def test_random_mobius_matches_scipy_expm(n, magnitude):
    for seed in range(5):
        want = expm(mobius_generator(n, seed, magnitude))
        got = random_mobius(n, seed, magnitude)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), seed


def test_random_mobius_form_defect_is_roundoff_in_high_dimension():
    for seed in range(5):
        m = random_mobius(20, seed, 3.0)
        scale = np.linalg.norm(m, 2) ** 2
        assert mobius_form_defect(m) <= 1e-12 * scale, seed


def test_random_mobius_deterministic():
    a = random_mobius(4, seed=3, magnitude=0.8)
    b = random_mobius(4, seed=3, magnitude=0.8)
    assert np.array_equal(a, b)


def test_mobius_inverse_roundtrip():
    rng = np.random.default_rng(6)
    m = random_mobius(4, seed=9, magnitude=1.0)
    v = rng.normal(size=(10, 6))
    back = v @ m.T @ mobius_inverse(m).T
    assert np.abs(back - v).max() < 1e-10


def test_span_rank_mobius_invariant():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 6))
    pts[:, 3:] = pts[:, :3] @ rng.normal(size=(3, 3))  # rank <= 3 content mixed in
    m = random_mobius(4, seed=13, magnitude=2.0)
    assert span_rank([pts]) == span_rank([pts @ m.T])
