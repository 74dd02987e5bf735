"""Ambient symmetries as properties: rotations of R^{n+1} and inclusion.

An O(n+1) rotation (or reflection) of R^{n+1} is an isometry of S^n, and
zero-padding a chart into S^m, m > n, changes neither its intrinsic nor its
conformal geometry.  Neither moves the surface, so every verdict and rank
is equal and the conformal Willmore energy agrees to roundoff.  The
Euclidean cross-check is not yet invariant: its stereographic pole is
searched in fixed coordinates (ROADMAP item 13).
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlab.diagnostics import analyze
from wlab.gallery import (build_surface, clifford, include_in_higher_sphere, pinkall_hopf_torus,
                          veronese)

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
