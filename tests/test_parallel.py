import os
import signal
import sys
import threading

import numpy as np
import pytest

from wlab.cli import report_json
from wlab.diagnostics import analyze
from wlab.frame import BASIS_BLOCK, PROJECTOR_BLOCK, build_frame
from wlab.gallery import build_surface, clifford, include_in_higher_sphere, pinkall_hopf_torus, veronese
from wlab.parallel import split, thread_cap


def test_split_parts_are_contiguous_and_on_grain_boundaries(monkeypatch):
    monkeypatch.setenv("WLAB_THREADS", "3")
    seen = []
    split(lambda lo, hi: seen.append((lo, hi, threading.get_ident())), 10, grain=3)
    seen.sort()
    assert [(lo, hi) for lo, hi, _ in seen] == [(0, 3), (3, 6), (6, 10)]
    main = threading.get_ident()
    assert [t == main for _, _, t in seen] == [True, False, False]


def test_split_runs_as_one_part_off_the_main_thread(monkeypatch):
    monkeypatch.setenv("WLAB_THREADS", "3")
    seen = []
    worker = threading.Thread(target=split, args=(lambda lo, hi: seen.append((lo, hi)), 10))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen == [(0, 10)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_works_in_a_forked_child(monkeypatch):
    monkeypatch.setenv("WLAB_THREADS", "2")
    split(lambda lo, hi: None, 4)  # the helper pool exists before the fork
    pid = os.fork()
    if pid == 0:
        signal.alarm(30)  # a child waiting on its parent's helper threads hangs
        seen = []
        split(lambda lo, hi: seen.append((lo, hi)), 4)
        os._exit(0 if sorted(seen) == [(0, 2), (2, 4)] else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_split_reraises_a_helper_part_error(monkeypatch):
    monkeypatch.setenv("WLAB_THREADS", "2")

    def job(lo, hi):
        if lo:
            raise RuntimeError("helper part failed")

    with pytest.raises(RuntimeError, match="helper part failed"):
        split(job, 4)


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
def test_malformed_thread_cap_raises_from_the_library(monkeypatch, value):
    monkeypatch.setenv("WLAB_THREADS", value)
    with pytest.raises(ValueError, match="WLAB_THREADS"):
        thread_cap()
    with pytest.raises(ValueError, match="WLAB_THREADS"):
        analyze(clifford(16, 16))


def test_unset_thread_cap_means_all_cores(monkeypatch):
    monkeypatch.delenv("WLAB_THREADS", raising=False)
    assert thread_cap() >= 1
    monkeypatch.setenv("WLAB_THREADS", "3")
    assert thread_cap() == 3


def outputs(chart):
    frame = build_frame(chart)
    report = analyze(chart)
    arrays = {"P_perp": frame.P_perp, "kappa": frame.kappa, "psi": frame.psi,
              "N": frame.N, "mask": frame.mask}
    arrays.update({f"fields.{k}": np.asarray(v) for k, v in report.fields.items()})
    return arrays, report_json(report)


def assert_same_outputs(got, want):
    (arrays, text), (want_arrays, want_text) = got, want
    assert arrays.keys() == want_arrays.keys()
    for key, value in arrays.items():
        assert np.array_equal(value, want_arrays[key], equal_nan=True), key
    assert text == want_text


CHARTS = {
    "pinkall_d5": (lambda: pinkall_hopf_torus(1.5, 48, 24).chart, 5),
    "veronese_fd_d6": (lambda: veronese(48, 24), 6),
    "cp2_d7": (lambda: build_surface("homogeneous_cp2_hopf", 48, 24,
                                     {"lambdas": [-1.0, 0.5, 2.0]}), 7),
    "clifford_s10_d12": (lambda: include_in_higher_sphere(clifford(32, 32), 10), 12),
    # 8385 points: neither the parts nor PROJECTOR_BLOCK nor BASIS_BLOCK
    # divide the grid, and normal_basis takes three uneven blocks
    "odd_129x65_d9": (lambda: include_in_higher_sphere(clifford(129, 65), 7), 9),
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_outputs_are_bit_identical_for_every_thread_count(monkeypatch, name):
    make_chart, dim = CHARTS[name]
    chart = make_chart()
    assert chart.dim == dim
    assert chart.spec.nu * chart.spec.nv > PROJECTOR_BLOCK
    runs = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("WLAB_THREADS", threads)
        runs[threads] = outputs(chart)
    assert_same_outputs(runs["2"], runs["1"])
    assert_same_outputs(runs["3"], runs["1"])


def test_analyze_off_the_main_thread_gives_the_same_bytes(monkeypatch):
    monkeypatch.setenv("WLAB_THREADS", "2")
    chart = include_in_higher_sphere(clifford(97, 33), 7)
    want = outputs(chart)
    got = []
    worker = threading.Thread(target=lambda: got.append(outputs(chart)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert_same_outputs(got[0], want)


def test_more_parts_than_cores_under_rapid_switching(monkeypatch):
    # more parts than cores, switched every microsecond: each writes only its slice
    chart = CHARTS["odd_129x65_d9"][0]()
    assert chart.spec.nu * chart.spec.nv > 2 * BASIS_BLOCK
    monkeypatch.setenv("WLAB_THREADS", "1")
    want = outputs(chart)
    monkeypatch.setenv("WLAB_THREADS", "7")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = outputs(chart)
    finally:
        sys.setswitchinterval(interval)
    assert_same_outputs(got, want)
