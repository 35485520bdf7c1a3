"""The benchmark's span recorder (``perfbench/spans.py``) wraps the public
functions named in its ``LAYERS`` table; each must exist and be callable,
or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "spans.py")


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}"
               for module, names in spans.LAYERS.values() for name in names
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert spans.LAYERS and not missing
