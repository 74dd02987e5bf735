"""The benchmark's span tracer binds wlab names: each one must resolve.

`perfbench/spans.py` wraps wlab functions by (module, attribute).  A
rename or deletion in `src/` would crash a traced benchmark run; this
test makes it fail the suite first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
