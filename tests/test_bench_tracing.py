"""The benchmark's tracer wraps plumbcap functions by module and name.

``bench/tracing.py`` replaces module attributes with timing wrappers, so
removing or renaming one of them, or changing how the pipeline calls them,
would only surface when a traced run fails or miscounts.  This keeps that
list in step with the package and checks the counts of one traced run.
"""

import importlib
import importlib.util
from pathlib import Path

from plumbcap.cli import cli_main
from plumbcap.plumbing import generate_gamma_n, serialize_plumbing

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists():
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for module_name, attribute, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


def test_traced_obstruct_counts_one_dual_and_one_witness(tmp_path, capsys):
    path = tmp_path / "gamma-2.txt"
    path.write_text(serialize_plumbing(generate_gamma_n(2)))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli_main(["obstruct", str(path), "--json", "--no-timings"])
    finally:
        tracer.remove()
    assert code == 0
    assert '"verdict": "inconclusive"' in capsys.readouterr().out
    metrics = tracing.layer_metrics(tracer.spans)
    assert (metrics["dualcap.duals"], metrics["embedder.calls"],
            metrics["embedder.witnesses"]) == (1, 1, 1)
    # The tracer reads GramMatrix.rank, a property, for each definiteness scan.
    assert metrics["intlin.sylvester_ops"] > 0
