import ast
import json
import os
import pathlib
import signal
import sys
import threading

import numpy as np
import pytest

import wlab.parallel
from wlab.cli import main, report_json
from wlab.diagnostics import analyze
from wlab.frame import build_frame, normal_basis
from wlab.gallery import build_surface, clifford, include_in_higher_sphere, pinkall_hopf_torus, veronese
from wlab.parallel import BLOCK_POINTS, lines, split, thread_cap

from frame_oracles import frame_N


@pytest.mark.parametrize("threads", [1, 2, 3, 7])
@pytest.mark.parametrize("n, block", [(0, 0), (0, 4), (1, 0), (2, 0), (2, 5), (10, 0),
                                      (10, 3), (10, 4), (12, 4), (97, 8), (97, 100)])
def test_split_walks_blocks_that_tile_the_range_in_contiguous_parts(monkeypatch, threads,
                                                                   n, block):
    monkeypatch.setenv("WLAB_THREADS", str(threads))
    parts = min(threads, n)
    # every part waits at its first block until all have started, so no two
    # parts can share a thread
    started, barrier, seen = set(), threading.Barrier(max(parts, 1)), []

    def job(lo, hi):
        if threading.get_ident() not in started:
            started.add(threading.get_ident())
            barrier.wait(timeout=30)
        seen.append((lo, hi, threading.get_ident()))

    split(job, n, block)
    seen.sort()
    # blocks tile range(n) exactly once, none empty, none longer than block
    his = [hi for _, hi, _ in seen]
    assert [(lo, hi) for lo, hi, _ in seen] == list(zip([0] + his, his))
    assert his[-1:] == ([n] if n else [])
    assert all(lo < hi and (not block or hi - lo <= block) for lo, hi, _ in seen)
    # one contiguous run of blocks per part and thread, the first on the
    # caller's; near-equal parts, each walked from its start
    runs = [(lo, t) for k, (lo, _, t) in enumerate(seen) if k == 0 or t != seen[k - 1][2]]
    threads_used = [t for _, t in runs]
    assert len(threads_used) == len(set(threads_used)) == parts
    assert threads_used[:1] == ([threading.get_ident()] if n else [])
    assert [lo for lo, _ in runs] == [n * k // parts for k in range(parts)]
    if not block:  # one piece per part
        assert len(seen) == parts


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


@pytest.mark.parametrize("block", [0, 2])
def test_split_reraises_the_first_failing_part_after_all_parts_finish(monkeypatch, block):
    monkeypatch.setenv("WLAB_THREADS", "3")
    done = []

    def job(lo, hi):
        if lo >= 4:  # the 2nd and 3rd parts of range(12) fail; the first is raised
            raise RuntimeError(f"part at {lo} failed")
        done.append(lo)

    with pytest.raises(RuntimeError, match="part at 4 failed"):
        split(job, 12, block)
    assert sorted(done) == ([0, 2] if block else [0])


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
    arrays = {"V_basis": frame.V_basis, "kappa": frame.kappa, "psi": normal_basis(frame)[0],
              "N": frame_N(frame), "mask": frame.mask}
    arrays.update({f"fields.{k}": np.asarray(v) for k, v in report.fields.items()})
    return arrays, report_json(report, 0, [])


def assert_same_outputs(got, want):
    (arrays, text), (want_arrays, want_text) = got, want
    assert arrays.keys() == want_arrays.keys()
    for key, value in arrays.items():
        want_value = want_arrays[key]
        assert value.dtype == want_value.dtype and value.shape == want_value.shape, key
        assert value.tobytes() == want_value.tobytes(), key
    assert text == want_text


CHARTS = {
    "pinkall_d5": (lambda: pinkall_hopf_torus(1.5, 48, 24).chart, 5),
    "veronese_fd_d6": (lambda: veronese(48, 24), 6),
    "cp2_d7": (lambda: build_surface("homogeneous_cp2_hopf", 48, 24,
                                     {"lambdas": [-1.0, 0.5, 2.0]}), 7),
    "clifford_s10_d12": (lambda: include_in_higher_sphere(clifford(40, 32), 10), 12),
    # 129 lines of 65 points: neither the parts nor blocks of lines(65) = 15
    # lines divide the grid
    "odd_129x65_d9": (lambda: include_in_higher_sphere(clifford(129, 65), 7), 9),
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_outputs_are_bit_identical_for_every_thread_count(monkeypatch, name):
    make_chart, dim = CHARTS[name]
    chart = make_chart()
    assert chart.dim == dim
    assert chart.spec.nu * chart.spec.nv > BLOCK_POINTS
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


BLOCK_CHARTS = {
    "clifford_48_s7": lambda: include_in_higher_sphere(clifford(48, 48), 7),
    "pinkall_64x32": lambda: pinkall_hopf_torus(1.5, 64, 32).chart,
    "cp2_window_48_fd": lambda: build_surface("homogeneous_cp2_hopf", 48, 48, {
        "lambdas": [-1.0, 0.5, 2.0], "t_window": 6.0}),
    "veronese_64x32_fd": lambda: veronese(64, 32),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CHARTS))
def test_outputs_are_bit_identical_for_every_block_size(monkeypatch, name):
    # each block does per point or per line what the whole array would, so
    # no field, energy or entry moves with BLOCK_POINTS; the rank witnesses'
    # leaves move span_rank's singular values at roundoff, and no rank
    chart = BLOCK_CHARTS[name]()
    for threads in ("1", "2"):
        monkeypatch.setenv("WLAB_THREADS", threads)
        monkeypatch.setattr(wlab.parallel, "BLOCK_POINTS", BLOCK_POINTS)
        want = outputs(chart)
        for points in (37, 1000, 5000):
            monkeypatch.setattr(wlab.parallel, "BLOCK_POINTS", points)
            assert_same_outputs(outputs(chart), want)


def test_fields_csv_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path):
    # 64 lines of 32 points: blocks of 1, 31, 32 and all 64 lines
    cfg = tmp_path / "veronese.json"
    cfg.write_text(json.dumps({"surface": {"name": "veronese"}, "grid": {"nu": 64, "nv": 32}}))
    csv = {}
    for points in (37, 1000, BLOCK_POINTS, 5000):
        monkeypatch.setattr(wlab.parallel, "BLOCK_POINTS", points)
        out = tmp_path / f"fields{points}.csv"
        assert main(["fields", str(cfg), "--out", str(out)]) == 0
        csv[points] = out.read_bytes()
    assert len(set(csv.values())) == 1


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_parallel_sizes_blocks():
    # one constant and one line rule, read when a walk starts: no other
    # module names a block constant or reads BLOCK_POINTS, whose import
    # would also freeze its value
    assert lines(1) == BLOCK_POINTS and lines(BLOCK_POINTS + 1) == 1
    for path in sorted(pathlib.Path(wlab.parallel.__file__).parent.glob("*.py")):
        if path.name != "parallel.py":
            tree = ast.parse(path.read_text())
            assert [n for n in names_used(tree) if "BLOCK" in n] == [], path.name
