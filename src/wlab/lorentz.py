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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


def signature(dim: int) -> np.ndarray:
    """Diagonal of the Lorentzian form: (-1, +1, ..., +1) with `dim` entries."""
    q = np.ones(dim)
    q[0] = -1.0
    return q


def mink_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski pairing of real vectors; broadcasts over leading axes.

    The last axis is the vector axis.  For complex inputs this is the
    bilinear extension (see :func:`cmink_inner`, which is an alias).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    q = signature(a.shape[-1])
    return np.einsum("...k,...k,k->...", a, b, q)


def cmink_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex-bilinear extension of the Minkowski pairing.

    <i e1, e1> = i, and conj(<v, w>) = <conj v, conj w>.  Agrees with
    `mink_inner` exactly on real inputs (it is the same contraction).
    """
    return mink_inner(a, b)


def herm_norm_sq(v: np.ndarray) -> np.ndarray:
    """<v, conj v>, real and >= 0 for vectors in a spacelike subspace.

    This is the natural squared norm of complexified normal vectors:
    for v = a + ib with a, b spacelike it equals |a|^2 + |b|^2.
    """
    return cmink_inner(v, np.conj(v)).real


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


@dataclass(frozen=True)
class MobiusMap:
    """An element of O(n+1, 1) acting on the projective light cone.

    `matrix` is (dim, dim) and preserves the Minkowski form:
    <Mv, Mw> = <v, w> for all v, w (up to roundoff).
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Apply to vectors stored along the last axis."""
        return np.einsum("ij,...j->...i", self.matrix, vectors)

    def inverse(self) -> "MobiusMap":
        # For M in O(n+1,1): M^{-1} = G M^T G with G the signature matrix.
        q = signature(self.dim)
        return MobiusMap(q[:, None] * self.matrix.T * q[None, :])

    def form_defect(self) -> float:
        """max |M^T G M - G|, the violation of the group constraint."""
        g = np.diag(signature(self.dim))
        return float(np.abs(self.matrix.T @ g @ self.matrix - g).max())


def random_mobius(n: int, seed: int, magnitude: float) -> MobiusMap:
    """Random conformal transformation of S^n, deterministic per seed.

    Draws a matrix with entries uniform in [-1, 1], projects it onto the
    Lie algebra o(n+1,1) (A = G S with S antisymmetric, G the signature
    matrix), scales by `magnitude` and exponentiates.  magnitude = 0 gives
    the identity.
    """
    if n < 3:
        raise ValueError("ambient sphere dimension must be >= 3")
    dim = n + 2
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(dim, dim))
    s = 0.5 * (m - m.T)
    a = signature(dim)[:, None] * s
    return MobiusMap(expm(magnitude * a))
