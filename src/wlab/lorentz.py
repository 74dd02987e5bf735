"""Minkowski linear algebra for the light-cone model of the conformal n-sphere.

Points of S^n are rays of the forward light cone in R^{n+2}_1, the real
vector space with the Lorentzian pairing

    <x, y> = -x_0 y_0 + x_1 y_1 + ... + x_{n+1} y_{n+1},

so index 0 is the timelike slot.  Complexified vectors use the *bilinear*
extension of the same pairing (no conjugation); conjugate-linear norms are
built explicitly as <v, conj(v)> where needed.  Conformal transformations
of S^n act as the linear group O(n+1, 1) on the cone.
"""

from __future__ import annotations

import numpy as np


def signature(dim: int) -> np.ndarray:
    """Diagonal of the Lorentzian form: (-1, +1, ..., +1) with `dim` entries."""
    q = np.ones(dim)
    q[0] = -1.0
    return q


def mink_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski pairing along the last axis; broadcasts over leading axes.

    Complex inputs get the bilinear extension, with no conjugation:
    <i e1, e1> = i and conj(<v, w>) = <conj v, conj w>.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    q = signature(a.shape[-1])
    return np.einsum("...k,...k,k->...", a, b, q)


# kept only because perfbench/spans.py binds this name; it goes with that binding
cmink_inner = mink_inner


def herm_norm_sq(v: np.ndarray) -> np.ndarray:
    """<v, conj v>, real and >= 0 for vectors in a spacelike subspace.

    This is the natural squared norm of complexified normal vectors:
    for v = a + ib with a, b spacelike it equals |a|^2 + |b|^2.
    """
    return mink_inner(v, np.conj(v)).real


def herm_norm(v: np.ndarray) -> np.ndarray:
    """sqrt <v, conj v>, with the roundoff-negative values of null and
    near-null vectors clipped to 0."""
    return np.sqrt(np.maximum(herm_norm_sq(v), 0.0))


def span_rank(blocks, tol: float = 1e-8) -> int:
    """Rank of the linear span of a set of vectors.

    Parameters
    ----------
    blocks : array (m, dim), or an iterable of such arrays
        Stacked vectors (rows); each array may be anything reshapeable to
        (m_k, dim).  The set is the rows of all blocks together.
    tol : float
        Relative singular-value threshold: singular values above
        tol * sigma_max count toward the rank.

    The singular values are those of the stacked R factors of the blocks'
    QR decompositions, which equal those of the stacked rows (the R step of
    TSQR, Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34,
    2012); only one block is copied at a time.
    """
    if isinstance(blocks, np.ndarray):
        blocks = [blocks]
    factors = []
    for block in blocks:
        block = np.asarray(block, dtype=float)
        block = block.reshape(-1, block.shape[-1])
        if len(block):
            factors.append(np.linalg.qr(block, mode="r"))
    if not factors:
        raise ValueError("span_rank needs at least one vector")
    s = np.linalg.svd(np.concatenate(factors), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def random_mobius(n: int, seed: int, magnitude: float) -> np.ndarray:
    """Random conformal transformation of S^n, deterministic per seed.

    Returns the (n+2, n+2) matrix M of O(n+1,1), acting linearly on the
    light cone: <Mv, Mw> = <v, w> for all v, w, up to roundoff.

    Draws a matrix with entries uniform in [-1, 1], projects it onto the
    Lie algebra o(n+1,1) (A = G S with S antisymmetric, G the signature
    matrix), scales by `magnitude` and exponentiates by scaling and
    squaring (Moler and Van Loan, SIAM Review 45, 2003): A is halved s
    times until its 1-norm is at most 1/2, where the degree-18 Taylor
    polynomial, summed by Horner's rule, is exact to roundoff, and the
    result is squared s times.  magnitude = 0 gives the identity exactly.
    Raises ValueError when the magnitude is not finite or the exponential
    overflows.
    """
    if n < 3:
        raise ValueError("ambient sphere dimension must be >= 3")
    dim = n + 2
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(dim, dim))
    s = 0.5 * (m - m.T)
    eye = np.eye(dim)
    exp_a = eye
    with np.errstate(over="ignore", invalid="ignore"):
        a = magnitude * (signature(dim)[:, None] * s)
        squarings = max(0, int(np.frexp(2.0 * np.abs(a).sum(axis=0).max())[1]))
        a /= 2.0**squarings
        for k in range(18, 0, -1):
            exp_a = eye + a @ exp_a / k
        for _ in range(squarings):
            exp_a = exp_a @ exp_a
    if not np.isfinite(exp_a).all():
        raise ValueError(f"the Mobius map of magnitude {magnitude} is not finite")
    return exp_a
