"""Consistency checks of the frame pipeline that only the tests run.

Each one recomputes a defining relation of the canonical frame, the
structure equations or the Mobius group from the stored fields and
reports its worst violation.  The pipeline itself never reads them.
"""

from typing import NamedTuple

import numpy as np

from wlab.calculus import diff_z, diff_zbar
from wlab.frame import _v_basis, normal_basis, normal_project
from wlab.invariants import UMBILIC_ABS_TOL, UMBILIC_REL_TOL, normal_D, willmore_vector
from wlab.lorentz import herm_norm, herm_norm_sq, mink_inner, signature
from wlab.parallel import lines


class KappaJet(NamedTuple):
    """The normal 2-jet of kappa, every field alive at once."""

    Dz_kappa: np.ndarray
    Dzbar_kappa: np.ndarray
    Dzbar_Dz_kappa: np.ndarray
    Dz_Dzbar_kappa: np.ndarray
    willmore_vector: np.ndarray  # D_zbar D_zbar kappa + (conj s / 2) kappa


def frame_N(frame) -> np.ndarray:
    """The frame vector N = 2 Y_zzbar + 2 <kappa, conj kappa> Y."""
    return 2.0 * frame.Y_zzbar + 2.0 * herm_norm_sq(frame.kappa)[..., None] * frame.Y


def kappa_jet(frame) -> KappaJet:
    """kappa's normal 2-jet from the steps `analyze` takes, which holds
    each field only until its last reader."""
    basis, spec = frame.V_basis, frame.spec
    dz, dzbar = normal_D(basis, frame.kappa, spec)
    dzbar_dz = normal_project(basis, diff_zbar(dz, spec))
    dz_dzbar, dzbar_dzbar = normal_D(basis, dzbar, spec)
    return KappaJet(dz, dzbar, dzbar_dz, dz_dzbar, willmore_vector(frame, dzbar_dzbar))


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
        n = frame_N(frame)
        res.update(
            {
                "<N,Y>+1": worst(mink_inner(n, frame.Y) + 1.0),
                "<N,N>": worst(mink_inner(n, n)),
                "<N,Y_z>": worst(mink_inner(n.astype(complex), frame.Y_z)),
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
            ("psi.N", frame_N(frame).astype(complex)),
        ):
            pair = np.einsum("uvik,uvk,k->uvi", psi.astype(complex), vec, q)
            res[f"<{label}>"] = worst(np.abs(pair).max(axis=-1))
    return res


def einsum_perp_projector(frame):
    """I - sum_ij b_i g^ij (Q b_j)^T as one 4-operand einsum: the dense
    (nu, nv, d, d) projector whose rounding `perp_projector` reproduces
    block by block for kappa, and the oracle of the rank-4 projection."""
    b = np.stack([frame.Y, frame.Y_z.real, frame.Y_z.imag, frame.Y_zzbar], axis=2)
    q = signature(frame.dim)
    ginv = np.linalg.inv(np.einsum("uvik,uvjk,k->uvij", b, b, q))
    p = -np.einsum("uvia,uvij,uvjb,b->uvab", b, ginv, b, q)
    idx = np.arange(frame.dim)
    p[..., idx, idx] += 1.0
    return p


def oracle_kappa(frame):
    """The dense oracle P applied to Y_zz: kappa, bit for bit."""
    return np.einsum("uvab,uvb->uva", einsum_perp_projector(frame), frame.Y_zz)


def two_walk_split(frame) -> dict:
    """The split Y_zz = -(s/2) Y + kappa in two walks over the lift, each
    in its own layout, which the one walk of `perp_projector` reproduces bit
    for bit.  Each walks blocks of `lines(nv)` grid lines.  First, the V
    basis from N in the (d, points) layout (kappa is the dense oracle's,
    which the blocked kappa equals); then <kappa, conj kappa>, N again in
    the (rows, nv, d) layout, s and the split's defects.
    Returns the split, the V basis and what `hopf_schwarzian` adds, keyed
    by their `FrameField` names."""
    nu, nv, d = frame.Y.shape
    kappa = oracle_kappa(frame)
    y, y_z, y_zzbar, kap = (f.reshape(-1, d) for f in (frame.Y, frame.Y_z, frame.Y_zzbar, kappa))
    basis = np.empty((nu * nv, 4, d))
    step = lines(nv)
    for lo in range(0, nu, step):
        rows = slice(lo * nv, (lo + step) * nv)
        b = np.stack([y[rows], y_z[rows].real, y_z[rows].imag, y_zzbar[rows]])
        b = b.transpose(0, 2, 1).copy()  # (4, d, points)
        n = 2.0 * b[3] + 2.0 * herm_norm_sq(kap[rows]) * b[0]
        basis[rows] = _v_basis(b, n).transpose(2, 0, 1)

    kk_bar, s = np.empty((nu, nv)), np.empty((nu, nv), dtype=complex)
    decomp, tang = np.empty((nu, nv)), np.empty((nu, nv))
    for lo in range(0, nu, step):
        r = slice(lo, lo + step)
        kap, y_zz, y_z, y = kappa[r], frame.Y_zz[r], frame.Y_z[r], frame.Y[r]
        kk_bar[r] = herm_norm_sq(kap)
        n = 2.0 * frame.Y_zzbar[r] + 2.0 * kk_bar[r][..., None] * y
        s[r] = 2.0 * mink_inner(y_zz, n)
        decomp[r] = herm_norm(y_zz - (-0.5 * s[r][..., None] * y + kap))
        tang[r] = np.maximum(np.abs(2.0 * mink_inner(y_zz, y_z)),
                             np.abs(2.0 * mink_inner(y_zz, np.conj(y_z))))
    m = frame.mask
    return {
        "kappa": kappa,
        "s": s,
        "kk": mink_inner(kappa, kappa),
        "kk_bar": kk_bar,
        "umbilic_mask": kk_bar < np.maximum(UMBILIC_REL_TOL * kk_bar[m].max(), UMBILIC_ABS_TOL),
        "decomposition_defect": float(decomp[m].max()),
        "tangential_defect": float(tang[m].max()),
        "V_basis": basis.reshape(nu, nv, 4, d),
    }


def constant_section(frame, w):
    """P w for a constant ambient vector w: a smooth section of V^perp_C."""
    return normal_project(frame.V_basis, np.broadcast_to(np.asarray(w, complex), frame.Y_z.shape).copy())


def structure_closure_residuals(frame, jet: KappaJet) -> dict:
    """L_inf defects of the structure equations, reconstructed vs. direct.

    Checks d_z of Y_z, of N, and of a smooth normal section (the V^perp
    projection of a constant ambient vector; the on-demand normal basis is
    not smooth across grid points, so it cannot be differentiated directly).
    """
    m = frame.mask
    spec = frame.spec

    def worst(vec):
        return float(herm_norm(vec)[m].max())

    out = {}
    rhs_yzz = -0.5 * frame.s[..., None] * frame.Y + frame.kappa
    out["Y_zz"] = worst(frame.Y_zz - rhs_yzz)

    nz = diff_z(frame_N(frame), spec)
    rhs_n = (
        -2.0 * frame.kk_bar[..., None] * frame.Y_z
        - frame.s[..., None] * np.conj(frame.Y_z)
        + 2.0 * jet.Dzbar_kappa
    )
    out["N_z"] = worst(nz - rhs_n)

    w = np.zeros(frame.dim)
    w[-1] = 1.0
    section = constant_section(frame, w)
    sz = diff_z(section, spec)
    rhs_psi = (
        normal_project(frame.V_basis, sz.copy())
        + 2.0 * mink_inner(section, jet.Dzbar_kappa)[..., None] * frame.Y
        - 2.0 * mink_inner(section, frame.kappa)[..., None] * np.conj(frame.Y_z)
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
