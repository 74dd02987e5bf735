"""Tests of the benchmark's own machinery: comparator, span self time,
repeatable counts.  Outside the tier-1 suite; run from the repository
root with

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import golden  # noqa: E402
import spans  # noqa: E402

GOLDEN = golden.load()


def _residual(report, name):
    return next(r for r in report["residuals"] if r["name"] == name)


@pytest.mark.parametrize("key", ["clifford_128", "clifford_256_S7", "cp2_hopf_192x96"])
def test_comparator_passes_identical_report(key):
    ref = GOLDEN[key]
    assert golden.compare_report(copy.deepcopy(ref), ref, key) == []


def test_comparator_flags_relative_perturbation_of_an_energy():
    ref = GOLDEN["clifford_128"]
    got = copy.deepcopy(ref)
    got["energies"]["W_conformal"] *= 1.0 + 1e-9
    assert golden.compare_report(got, ref, "x")
    got["energies"]["W_conformal"] = ref["energies"]["W_conformal"] * (1.0 + 1e-13)
    assert golden.compare_report(got, ref, "x") == []


def test_comparator_flags_residual_norm_beyond_its_floor():
    ref = GOLDEN["clifford_128"]
    got = copy.deepcopy(ref)
    res = _residual(got, "willmore")
    res["L_inf"] += golden.FLOOR_FRACTION * res["tolerance"] * 1.5
    assert any("willmore.L_inf" in m for m in golden.compare_report(got, ref, "x"))
    # a roundoff-level residual (3e-10 on Clifford 128^2) may move within the floor
    got = copy.deepcopy(ref)
    _residual(got, "willmore")["L_inf"] *= 1.5
    assert golden.compare_report(got, ref, "x") == []


def test_comparator_flags_flipped_verdict_and_exit_code():
    ref = GOLDEN["cli_analyze_veronese_256x64"]
    got = copy.deepcopy(ref)
    _residual(got["report"], "flat_normal")["verdict"] = "pass"
    assert any("verdict" in m for m in golden.compare_cli(got, ref, "x"))
    got = copy.deepcopy(ref)
    got["exit"] = 0
    assert golden.compare_cli(got, ref, "x") == ["x: exit code 0 != 1"]


def test_invariance_check():
    ref = GOLDEN["clifford_128"]
    got = copy.deepcopy(ref)
    got["energies"]["W_conformal"] += 1e-9
    assert golden.compare_invariant(got, ref, "x") == []
    got["energies"]["W_conformal"] += 1e-6
    assert golden.compare_invariant(got, ref, "x")
    got = copy.deepcopy(ref)
    _residual(got, "ricci")["verdict"] = "fail"
    assert golden.compare_invariant(got, ref, "x")


def test_self_time_of_nested_spans():
    def span(i, parent, start, end):
        return spans.Span(id=i, name=f"s{i}", parent=parent, thread=0, request=None,
                          start=start, end=end)

    tree = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 4.0, 8.0),
            span(4, 3, 5.0, 6.0)]
    assert spans.self_times(tree) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_tracer_links_parents_and_restores_functions():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(inner(x)), "outer")
    assert outer(0) == 2
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [root.id, root.id]
    selfs = spans.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(root.duration, abs=1e-12)


def test_counts_repeat_exactly_across_traced_runs():
    import wlab
    import wlab.diagnostics

    original = wlab.diagnostics.analyze
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            wlab.analyze(wlab.clifford(128, 128))
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, passes=1)
        counts.append({k: v for k, v in metrics.items() if k.endswith("_calls")})
    assert wlab.diagnostics.analyze is original and wlab.analyze is original
    assert counts[0] == counts[1]
    assert counts[0]["calculus.axis_diff_calls"] == 35
    assert counts[0]["calculus.fft_axis_calls"] == 35
    assert counts[0]["diagnostics.analyze_calls"] == 1
