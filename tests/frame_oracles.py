"""Consistency checks of the frame pipeline that only the tests run.

Each one recomputes a defining relation of the canonical frame, the
structure equations or the Mobius group from the stored fields and
reports its worst violation.  The pipeline itself never reads them.
"""

from typing import NamedTuple

import numpy as np

from wlab.calculus import diff_z, diff_zbar
from wlab.frame import normal_basis, normal_project
from wlab.invariants import normal_D, willmore_vector
from wlab.lorentz import herm_norm, mink_inner, signature


class KappaJet(NamedTuple):
    """The normal 2-jet of kappa, every field alive at once."""

    Dz_kappa: np.ndarray
    Dzbar_kappa: np.ndarray
    Dzbar_Dz_kappa: np.ndarray
    Dz_Dzbar_kappa: np.ndarray
    willmore_vector: np.ndarray  # D_zbar D_zbar kappa + (conj s / 2) kappa


def kappa_jet(frame, inv) -> KappaJet:
    """kappa's normal 2-jet from the steps `analyze` takes, which holds
    each field only until its last reader."""
    p, spec = frame.P_perp, frame.spec
    dz, dzbar = normal_D(p, inv.kappa, spec)
    dzbar_dz = normal_project(p, diff_zbar(dz, spec))
    dz_dzbar, dzbar_dzbar = normal_D(p, dzbar, spec)
    return KappaJet(dz, dzbar, dzbar_dz, dz_dzbar, willmore_vector(inv, dzbar_dzbar))


def frame_residuals(frame) -> dict:
    """Max violations of the defining frame relations over the mask.

    On spectral charts every entry sits at roundoff; on finite-difference
    charts they scale with the truncation error of the grid derivatives.
    """
    m = frame.mask

    def worst(x):
        return float(np.abs(np.asarray(x))[m].max())

    res = {
        "<Y,Y>": worst(mink_inner(frame.Y, frame.Y)),
        "<Y_z,Y_z>": worst(mink_inner(frame.Y_z, frame.Y_z)),
        "<Y_z,Y_zbar>-1/2": worst(mink_inner(frame.Y_z, np.conj(frame.Y_z)) - 0.5),
    }
    if frame.kappa is not None:
        res.update(
            {
                "<N,Y>+1": worst(mink_inner(frame.N, frame.Y) + 1.0),
                "<N,N>": worst(mink_inner(frame.N, frame.N)),
                "<N,Y_z>": worst(mink_inner(frame.N.astype(complex), frame.Y_z)),
            }
        )
    if frame.kappa is not None and frame.dim > 4:
        psi, _ = normal_basis(frame)
        q = signature(frame.dim)
        gram = np.einsum("uvik,uvjk,k->uvij", psi, psi, q)
        res["psi_gram-id"] = worst(gram - np.eye(frame.dim - 4))
        for label, vec in (
            ("psi.Y", frame.Y.astype(complex)),
            ("psi.Y_z", frame.Y_z),
            ("psi.N", frame.N.astype(complex)),
        ):
            pair = np.einsum("uvik,uvk,k->uvi", psi.astype(complex), vec, q)
            res[f"<{label}>"] = worst(np.abs(pair).max(axis=-1))
    return res


def einsum_perp_projector(frame):
    """I - sum_ij b_i g^ij (Q b_j)^T as one 4-operand einsum: the oracle
    whose rounding `perp_projector` reproduces block by block."""
    b = np.stack([frame.Y, frame.Y_z.real, frame.Y_z.imag, frame.Y_zzbar], axis=2)
    q = signature(frame.dim)
    ginv = np.linalg.inv(np.einsum("uvik,uvjk,k->uvij", b, b, q))
    p = -np.einsum("uvia,uvij,uvjb,b->uvab", b, ginv, b, q)
    idx = np.arange(frame.dim)
    p[..., idx, idx] += 1.0
    return p


def structure_closure_residuals(frame, inv, jet: KappaJet) -> dict:
    """L_inf defects of the structure equations, reconstructed vs. direct.

    Checks d_z of Y_z, of N, and of a smooth normal section (the V^perp
    projection of a constant ambient vector; a pivoted normal basis is not
    smooth across grid points, so it cannot be differentiated directly).
    """
    m = frame.mask
    spec = frame.spec

    def worst(vec):
        return float(herm_norm(vec)[m].max())

    out = {}
    rhs_yzz = -0.5 * inv.s[..., None] * frame.Y + inv.kappa
    out["Y_zz"] = worst(frame.Y_zz - rhs_yzz)

    nz = diff_z(frame.N, spec)
    rhs_n = (
        -2.0 * inv.kk_bar[..., None] * frame.Y_z
        - inv.s[..., None] * np.conj(frame.Y_z)
        + 2.0 * jet.Dzbar_kappa
    )
    out["N_z"] = worst(nz - rhs_n)

    w = np.zeros(frame.dim)
    w[-1] = 1.0
    section = np.einsum("uvab,b->uva", frame.P_perp, w).astype(complex)
    sz = diff_z(section, spec)
    rhs_psi = (
        normal_project(frame.P_perp, sz.copy())
        + 2.0 * mink_inner(section, jet.Dzbar_kappa)[..., None] * frame.Y
        - 2.0 * mink_inner(section, inv.kappa)[..., None] * np.conj(frame.Y_z)
    )
    out["psi_z"] = worst(sz - rhs_psi)
    return out


def mobius_form_defect(m: np.ndarray) -> float:
    """max |M^T G M - G|, the violation of the group constraint."""
    g = np.diag(signature(len(m)))
    return float(np.abs(m.T @ g @ m - g).max())


def mobius_inverse(m: np.ndarray) -> np.ndarray:
    """M^{-1} = G M^T G for M in O(n+1, 1), G the signature matrix."""
    q = signature(len(m))
    return q[:, None] * m.T * q[None, :]
