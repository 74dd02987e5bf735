"""Consistency checks of the frame pipeline that only the tests run.

Each one recomputes a defining relation of the canonical frame, the
structure equations or the Mobius group from the stored fields and
reports its worst violation.  The pipeline itself never reads them.
"""

import numpy as np

from wlab.calculus import diff_z
from wlab.frame import normal_basis, normal_project
from wlab.lorentz import MobiusMap, herm_norm, mink_inner, signature


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
    if frame.N is not None:
        res.update(
            {
                "<N,Y>+1": worst(mink_inner(frame.N, frame.Y) + 1.0),
                "<N,N>": worst(mink_inner(frame.N, frame.N)),
                "<N,Y_z>": worst(mink_inner(frame.N.astype(complex), frame.Y_z)),
            }
        )
    if frame.N is not None and frame.dim > 4:
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


def structure_closure_residuals(frame, inv) -> dict:
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
        + 2.0 * inv.Dzbar_kappa
    )
    out["N_z"] = worst(nz - rhs_n)

    w = np.zeros(frame.dim)
    w[-1] = 1.0
    section = np.einsum("uvab,b->uva", frame.P_perp, w).astype(complex)
    sz = diff_z(section, spec)
    rhs_psi = (
        normal_project(frame, sz)
        + 2.0 * mink_inner(section, inv.Dzbar_kappa)[..., None] * frame.Y
        - 2.0 * mink_inner(section, inv.kappa)[..., None] * np.conj(frame.Y_z)
    )
    out["psi_z"] = worst(sz - rhs_psi)
    return out


def mobius_form_defect(mob: MobiusMap) -> float:
    """max |M^T G M - G|, the violation of the group constraint."""
    g = np.diag(signature(mob.dim))
    return float(np.abs(mob.matrix.T @ g @ mob.matrix - g).max())


def mobius_inverse(mob: MobiusMap) -> MobiusMap:
    """M^{-1} = G M^T G for M in O(n+1, 1), G the signature matrix."""
    q = signature(mob.dim)
    return MobiusMap(q[:, None] * mob.matrix.T * q[None, :])
