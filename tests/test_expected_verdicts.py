"""Verdicts that a chart's geometry fixes before anything is computed.

Each expected verdict comes with the reason it holds, so a defect in a
criterion's formula shows as a verdict that contradicts geometry, not only
as a moved reference number.

The Veronese surface is the degree-2 minimal immersion of S^2 into S^4.
It is superminimal, and it is full in S^4.
"""

import pytest

from wlab.diagnostics import analyze
from wlab.gallery import veronese

VERONESE_VERDICTS = {
    "willmore": ("pass", "a minimal surface in S^n is Willmore"),
    "swillmore": ("pass", "a superminimal surface is S-Willmore: D_zbar kappa is on the line "
                  "of kappa"),
    "gauss": ("pass", "the Gauss row is an integrability condition of every immersion"),
    "codazzi": ("pass", "the Codazzi row is an integrability condition of every immersion"),
    "ricci": ("pass", "the Ricci equation is an integrability condition of every immersion"),
    "flat_normal": ("fail", "an S-Willmore surface with flat normal bundle lies in some S^3, "
                    "and the Veronese surface is S-Willmore and full in S^4"),
}


@pytest.fixture(scope="module")
def veronese_report():
    return analyze(veronese(48, 24))


@pytest.mark.parametrize("name", sorted(VERONESE_VERDICTS))
def test_veronese_verdicts_follow_from_its_geometry(veronese_report, name):
    verdict, reason = VERONESE_VERDICTS[name]
    entry = veronese_report.entry(name)
    assert entry.verdict == verdict, f"{name} L_inf={entry.L_inf:.3e}: {reason}"
