"""The benchmark's golden check, run as a test.

`perfbench/golden.json` holds the outputs that every benchmark run is
compared with: verdicts, ranks and exit codes exactly, floats to 1e-12
relative, and Mobius images by invariance.  Each workload call is run here
and checked by its own `check`, so a change that moves a compared value,
or breaks a wlab name or signature the workloads call, fails this suite
before it fails a benchmark run.  The two slowest calls, Clifford 256^2 in
S^7 and the Mobius image in S^7, are left out; every other call runs.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SLOW_CALLS = ("clifford_256_S7", "clifford_192_S7_mobius")
SEED = 1  # perfbench/report.py's default; the Mobius maps derive from it


def load_perfbench():
    """`workloads` and `golden`, imported from perfbench/ without writing
    bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import golden
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads, golden


workloads, golden = load_perfbench()
GOLDEN = golden.load()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_match_the_golden_reference(name, tmp_path):
    wl = workloads.build(name, SEED, str(tmp_path))
    calls = [c for c in wl.calls if not c.label.startswith(SLOW_CALLS)]
    assert calls
    mismatches = [m for call in calls for m in call.check(call.run(), GOLDEN)]
    assert not mismatches, mismatches
