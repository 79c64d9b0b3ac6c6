"""The benchmark's tracer wraps plumbcap functions by module and name.

``bench/tracing.py`` replaces module attributes with timing wrappers, so
removing or renaming one of them would only surface when a traced run
fails.  This keeps that list in step with the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, attribute, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)
