"""Brute-force flatness criteria on bare complex vectors (Euclidean pairing).

Independent oracles for the synthetic normal-bundle fixtures: they share
no code with the Minkowski evaluators in `wlab.diagnostics`.
"""

import numpy as np


def flat_normal_scalar(kappa: np.ndarray) -> np.ndarray:
    """<k, conj k> - |<k, k>|: zero iff kappa is a common phase times a
    real vector."""
    kk_bar = np.einsum("...k,...k->...", kappa, np.conj(kappa)).real
    kk = np.einsum("...k,...k->...", kappa, kappa)
    return kk_bar - np.abs(kk)


def ricci_rhs_max(kappa: np.ndarray) -> np.ndarray:
    """max over basis vectors e_a of |2<e_a,k> conj k - 2<e_a, conj k> k|;
    the flatness criterion from the normal curvature."""
    kap = np.asarray(kappa)
    out = np.zeros(kap.shape[:-1])
    for a in range(kap.shape[-1]):
        rhs = 2.0 * kap[..., a, None] * np.conj(kap) - 2.0 * np.conj(kap)[..., a, None] * kap
        nrm = np.sqrt(np.einsum("...k,...k->...", rhs, np.conj(rhs)).real)
        out = np.maximum(out, nrm)
    return out
