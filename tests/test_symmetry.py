"""Conformal symmetries as properties: rotations, inclusion and Möbius maps.

An O(n+1) rotation (or reflection) of R^{n+1} is an isometry of S^n, and
zero-padding a chart into S^m, m > n, changes neither its intrinsic nor its
conformal geometry.  Neither moves the surface, so every verdict and rank
is equal and the conformal Willmore energy agrees to roundoff.  A
reflection that negates ambient coordinates keeps every field, entry and
rank bit-identical.  The Euclidean cross-check is not yet invariant: its
stereographic pole is searched in fixed coordinates (ROADMAP item 13).

A Möbius map of S^n moves the surface but not its conformal geometry: at
magnitudes the grid resolves, every verdict, both ranks and W_conformal
are those of the untransformed chart.  On the CP^2 torus the
`omega_holomorphy` verdict is not yet invariant: `six_form_scalar` pairs
kappa and D_zbar kappa with the Euclidean dot.
"""

import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlab.diagnostics import analyze
from wlab.gallery import (apply_mobius, build_surface, clifford, include_in_higher_sphere,
                          pinkall_hopf_torus, veronese)
from wlab.lorentz import random_mobius

CHARTS = {
    "clifford_48": lambda: clifford(48, 48),
    "pinkall_48x24": lambda: pinkall_hopf_torus(1.5, 48, 24).chart,
    "cp2_48x24": lambda: build_surface("homogeneous_cp2_hopf", 48, 24,
                                       {"lambdas": [-1.0, 0.5, 2.0]}),
    "veronese_fd_48x24": lambda: veronese(48, 24),
    "clifford_32_S7": lambda: include_in_higher_sphere(clifford(32, 32), 7),
}


@lru_cache(maxsize=None)
def reference(name):
    return analyze(CHARTS[name]())


def rotation(dim, seed):
    """A Haar-random element of O(dim): the Q of a seeded Gaussian matrix,
    its column signs fixed by the diagonal of R."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def moved(name, seed, extra):
    """The chart included `extra` spheres up, then rotated unless seed is None."""
    chart = CHARTS[name]()
    if extra:
        chart = include_in_higher_sphere(chart, chart.ambient_n + extra)
    if seed is None:
        return chart
    rotated = chart.points @ rotation(chart.ambient_n + 1, seed).T
    return dataclasses.replace(chart, points=rotated)


@settings(max_examples=20)
@given(name=st.sampled_from(sorted(CHARTS)), seed=st.none() | st.integers(0, 2**32 - 1),
       extra=st.integers(0, 2))
@example(name="clifford_48", seed=0, extra=0)
@example(name="pinkall_48x24", seed=1, extra=1)
@example(name="cp2_48x24", seed=2, extra=0)
@example(name="veronese_fd_48x24", seed=3, extra=2)
@example(name="clifford_32_S7", seed=None, extra=1)
def test_rotation_and_inclusion_keep_verdicts_ranks_and_the_conformal_energy(name, seed, extra):
    ref = reference(name)
    rep = analyze(moved(name, seed, extra))
    assert [(e.name, e.verdict) for e in rep.entries] == [(e.name, e.verdict) for e in ref.entries]
    assert rep.ranks == ref.ranks
    assert rep.energies["W_conformal"] == pytest.approx(ref.energies["W_conformal"],
                                                        rel=1e-13, abs=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the Euclidean check's stereographic pole is "
                   "chosen in fixed coordinates, so at 48x24 a rotation or an inclusion "
                   "moves W_euclidean by up to 2.9e-3 relative")
def test_rotation_and_inclusion_keep_the_euclidean_energy():
    moves = {}
    for name, seed, extra in [("veronese_fd_48x24", 7, 0), ("pinkall_48x24", 4, 0),
                              ("cp2_48x24", 6, 0), ("pinkall_48x24", None, 2)]:
        got = analyze(moved(name, seed, extra)).energies["W_euclidean"]
        moves[name, seed, extra] = abs(got / reference(name).energies["W_euclidean"] - 1.0)
    assert max(moves.values()) <= 1e-12, moves


# chart -> the largest Möbius magnitude its grid resolves: smaller grids reject
# some images as not conformal, and Clifford 64^2 at magnitude 1 flips verdicts
MOBIUS_CHARTS = {
    "clifford_64": (lambda: clifford(64, 64), 0.5),
    "cp2_96x48": (lambda: build_surface("homogeneous_cp2_hopf", 96, 48,
                                        {"lambdas": [-1.0, 0.5, 2.0]}), 0.3),
}


@lru_cache(maxsize=None)
def mobius_report(name, seed=None, magnitude=0.0):
    """The report of the chart, or of its image under random_mobius(n, seed, magnitude)."""
    chart = MOBIUS_CHARTS[name][0]()
    if seed is not None:
        chart = apply_mobius(chart, random_mobius(chart.ambient_n, seed, magnitude))
    return analyze(chart)


def verdicts(report, skip=()):
    return [(e.name, e.verdict) for e in report.entries if e.name not in skip]


@settings(max_examples=8)
@given(name=st.sampled_from(sorted(MOBIUS_CHARTS)), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.0, 1.0))
@example(name="clifford_64", seed=0, fraction=1.0)
@example(name="cp2_96x48", seed=1, fraction=1.0)
def test_mobius_maps_keep_verdicts_ranks_and_the_conformal_energy(name, seed, fraction):
    ref = mobius_report(name)
    rep = mobius_report(name, seed, fraction * MOBIUS_CHARTS[name][1])
    # the CP^2 omega_holomorphy verdict is the strict xfail below
    skip = {"omega_holomorphy"} if name == "cp2_96x48" else set()
    assert verdicts(rep, skip) == verdicts(ref, skip)
    assert rep.ranks == ref.ranks
    # over 120 random draws it moved at most 4.0e-15 on Clifford and 3.3e-14 on CP^2
    assert rep.energies["W_conformal"] == pytest.approx(ref.energies["W_conformal"],
                                                        rel=1e-13, abs=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="six_form_scalar pairs kappa and D_zbar kappa with the Euclidean "
                   "dot, so a Möbius map moves the omega_holomorphy L_inf from 1e-12 to "
                   "above 6e-4 and its verdict from pass to fail")
def test_mobius_maps_keep_the_cp2_omega_holomorphy_verdict():
    ref = mobius_report("cp2_96x48").entry("omega_holomorphy")
    rep = mobius_report("cp2_96x48", 1, 0.3).entry("omega_holomorphy")
    assert ref.verdict == "pass"
    assert rep.verdict == ref.verdict, (ref.L_inf, rep.L_inf)



def reflected(chart, flips):
    """The chart with the ambient coordinates whose bits are set in `flips` negated."""
    signs = np.where((flips >> np.arange(chart.ambient_n + 1)) & 1, -1.0, 1.0)
    return dataclasses.replace(chart, points=chart.points * signs)


def unreflected(name, seed):
    """A chart of CHARTS, or a MOBIUS_CHARTS chart moved by random_mobius at
    its largest resolved magnitude, and its report."""
    if name in CHARTS:
        return CHARTS[name](), reference(name)
    build, magnitude = MOBIUS_CHARTS[name]
    chart = build()
    chart = apply_mobius(chart, random_mobius(chart.ambient_n, seed, magnitude))
    return chart, mobius_report(name, seed, magnitude)


def without_euclidean(report):
    out = report.to_json_dict()
    return json.dumps({**out, "energies": {k: v for k, v in out["energies"].items()
                                           if k != "W_euclidean"}})


@settings(max_examples=8)
@given(name=st.sampled_from(sorted(CHARTS) + sorted(MOBIUS_CHARTS)),
       seed=st.integers(0, 2**32 - 1), flips=st.integers(1, 2**8 - 1))
@example(name="cp2_48x24", seed=0, flips=0b100101)
@example(name="veronese_fd_48x24", seed=0, flips=0b11010)
@example(name="cp2_96x48", seed=1, flips=0b010011)
def test_reflections_keep_every_field_entry_rank_and_the_conformal_energy(name, seed, flips):
    # a reflection negates coordinates of the lift, kappa and its jet, and
    # every pairing multiplies them in pairs, so no bit moves
    chart, ref = unreflected(name, seed)
    rep = analyze(reflected(chart, flips))
    assert without_euclidean(rep) == without_euclidean(ref)
    assert rep.fields.keys() == ref.fields.keys() and rep.masks.keys() == ref.masks.keys()
    for key in ref.fields:
        assert np.array_equal(rep.fields[key], ref.fields[key], equal_nan=True), key
    for key in ref.masks:
        assert np.array_equal(rep.masks[key], ref.masks[key]), key


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the stereographic pole candidates are not "
                   "reflection-symmetric, so a reflection can pick another pole and move "
                   "W_euclidean by 4.0e-15 (Clifford 48^2) to 4.8e-13 (a CP^2 Möbius image) "
                   "relative")
def test_reflections_keep_the_euclidean_energy():
    moves = {}
    for name, seed, flips in [("clifford_48", 0, 0b1), ("cp2_96x48", 1, 0xff)]:
        chart, ref = unreflected(name, seed)
        got = analyze(reflected(chart, flips)).energies["W_euclidean"]
        moves[name, seed, flips] = abs(got / ref.energies["W_euclidean"] - 1.0)
    assert max(moves.values()) <= 1e-15, moves
