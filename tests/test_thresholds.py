"""The thresholds of the chart and umbilic checks, tested at their values.

- `CONFORMAL_TOL_FD` (1e-3) bounds |<x_z, x_z>| / <x_z, x_zbar> on
  finite-difference charts, whose own truncation reads about 1.3e-5 on
  Veronese 48x24.  Stretching that chart's u coordinate by a factor a adds
  (a^2 - 1) / (a^2 + 1) to the ratio: a = 1.002 puts it at 2.0e-3, twice
  the tolerance, which the chart check rejects and `wlab analyze` maps to
  exit 3 with one line; a = 1.0004 puts it at 4e-4, which it accepts.
- `UMBILIC_REL_TOL` (1e-10) is a free parameter, not tested at its value.
  A point is umbilic where <kappa, conj kappa> is below that fraction of
  its chart maximum (or below `UMBILIC_ABS_TOL`).  No gallery chart
  samples a point in between.  On the gallery tori <kappa, conj kappa>
  varies by less than 1e-8 relative, on Veronese it stays above 0.03 of
  its maximum (its conformal factor decays like sech u; 0.030 at 256x64,
  0.050 at 48x24), and Möbius maps and inclusions leave it unchanged.  On
  the totally umbilic round sphere it is roundoff, 6.5e-29, which the
  absolute floor decides.  So any fraction from about 1e-13 up to 0.03
  gives the same masks and verdicts; 1e-10 only keeps away from both ends.
"""

from dataclasses import replace

import pytest

from wlab.cli import main
from wlab.diagnostics import analyze
from wlab.frame import CONFORMAL_TOL_FD, ChartError, validate_chart
from wlab.gallery import veronese


def stretched_veronese(stretch: float):
    """Veronese 48x24 with its u extent, and so its u coordinate, scaled by `stretch`."""
    chart = veronese(48, 24)
    return replace(chart, spec=replace(chart.spec, Lu=chart.spec.Lu * stretch))


def test_the_fd_chart_check_accepts_less_than_half_its_tolerance():
    # validate_chart raises on a chart it rejects
    ratio = validate_chart(stretched_veronese(1.0004))["conformality"]
    assert ratio == pytest.approx(4.1e-4, rel=0.02) and ratio < CONFORMAL_TOL_FD / 2


def test_the_fd_chart_check_rejects_twice_its_tolerance():
    with pytest.raises(ChartError, match=r"not conformal: .* reaches 2\.0\d+e-03"):
        analyze(stretched_veronese(1.002))


def test_a_chart_past_the_fd_tolerance_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("wlab.cli.build_surface",
                        lambda name, nu, nv, params: stretched_veronese(1.002))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"surface": {"name": "veronese"}, "grid": {"nu": 48, "nv": 24}}')
    assert main(["analyze", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("chart rejected: chart is not conformal")
    assert captured.err.count("\n") == 1
