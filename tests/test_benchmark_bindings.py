"""The benchmark's span tracer binds wlab names: each one must resolve.

`perfbench/spans.py` wraps wlab functions by (module, attribute).  A
rename or deletion in `src/` would crash a traced benchmark run; this
test makes it fail the suite first, and a traced `analyze` must record
a span for each stage it runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from wlab.diagnostics import analyze
from wlab.gallery import clifford

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves_in_wlab():
    spans = load_spans()
    for module in spans.WLAB_MODULES:
        importlib.import_module(module)
    missing = [
        name for name, (module, attr) in spans.WRAPPED.items()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing


# the stages one `analyze` runs, by the span names the per-layer metrics sum
ANALYZE_STAGES = (
    "frame.canonical_lift", "frame.perp_projector", "frame.build_frame", "frame.normal_project",
    "invariants.hopf_schwarzian", "invariants.ricci_residual",
    "invariants.willmore_energy_conformal", "invariants.willmore_energy_euclidean",
    "diagnostics.willmore_residual", "diagnostics.s_willmore_residual", "diagnostics.six_form",
    "diagnostics.reduction_span_check",
)


def test_a_traced_analyze_records_every_stage_it_runs():
    # a stage that `analyze` stops calling by its bound name reads 0 in its
    # per-layer metric, silently; this names the stage instead
    spans = load_spans()
    chart = clifford(32, 32)
    tracer = spans.Tracer()
    tracer.install()
    try:
        analyze(chart)
    finally:
        tracer.uninstall()
    calls = {name: 0 for name in ANALYZE_STAGES}
    for span in tracer.spans:
        if span.name in calls:
            calls[span.name] += 1
    assert all(calls.values()), calls
