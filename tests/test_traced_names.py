"""The benchmark's files that call into the library: the span recorder
(``perfbench/spans.py``) wraps the public functions named in its ``LAYERS``
table, each of which must exist and be callable, or
``perfbench/run.py --trace 1`` breaks; and the exact-oracles workload runs
``perfbench/oracles.py``, whose library imports must resolve."""

import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _load(name):
    """perfbench/<name>.py as a module, run as an import: a script's main
    stays behind its __name__ == "__main__" guard."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = _load("spans")
    missing = [f"{module}.{name}"
               for module, names in spans.LAYERS.values() for name in names
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert spans.LAYERS and not missing


def test_oracle_script_imports_resolve():
    # a name the script imports that the library no longer has raises
    # ImportError here
    assert callable(_load("oracles").main)
