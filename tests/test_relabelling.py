"""Coordinate relabelling as a property: the u <-> v swap and reflections.

Swapping the grid axes (transposed points, with the GridSpec's sizes,
extents, origins and periodic flags swapped) reparametrizes the same
surface with its orientation reversed; reversing the samples of an axis
on the same grid reflects that coordinate.  Neither moves the surface, so
both Willmore energies agree to roundoff, and every verdict and rank is
equal.  The swap makes the Euclidean check's mixed derivative X_uv
differentiate along the other axis first.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wlab.calculus import GridSpec
from wlab.diagnostics import analyze
from wlab.gallery import clifford, pinkall_hopf_torus, veronese

CHARTS = {
    "clifford_64": lambda: clifford(64, 64),
    "pinkall_96x48": lambda: pinkall_hopf_torus(1.5, 96, 48).chart,
    "veronese_fd_64x24": lambda: veronese(64, 24),
}


@lru_cache(maxsize=None)
def reference(name):
    return analyze(CHARTS[name]())


def relabelled(chart, flip_u, flip_v):
    """The chart with u <-> v swapped, after reversing the flagged axes."""
    s = chart.spec
    points = chart.points[::-1 if flip_u else 1, ::-1 if flip_v else 1].transpose(1, 0, 2)
    spec = GridSpec(s.nv, s.nu, s.Lv, s.Lu, s.periodic_v, s.periodic_u, s.v0, s.u0)
    return dataclasses.replace(chart, spec=spec, points=np.ascontiguousarray(points))


@given(name=st.sampled_from(sorted(CHARTS)), flip_u=st.booleans(), flip_v=st.booleans())
@example(name="clifford_64", flip_u=False, flip_v=False)
@example(name="pinkall_96x48", flip_u=False, flip_v=False)
@example(name="veronese_fd_64x24", flip_u=False, flip_v=False)
def test_relabelling_keeps_energies_verdicts_and_ranks(name, flip_u, flip_v):
    ref = reference(name)
    rep = analyze(relabelled(CHARTS[name](), flip_u, flip_v))
    for key in ("W_conformal", "W_euclidean"):
        assert rep.energies[key] == pytest.approx(ref.energies[key], rel=1e-12, abs=0), key
    assert [(e.name, e.verdict) for e in rep.entries] == [(e.name, e.verdict) for e in ref.entries]
    assert rep.ranks == ref.ranks
