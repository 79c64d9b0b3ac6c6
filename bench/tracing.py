"""Spans around the calls between plumbcap's modules on the obstruct path.

``Tracer.install`` replaces the module attributes through which ``cli``,
``pipeline``, ``plumbing``, ``intlin`` and ``embedder`` reach each public
function with wrappers that record a span (name, parent, start, end, the
graph it belongs to) and the counts a layer can report; ``remove`` puts the
original functions back.  Nothing in the package is edited.  Spans stay in
memory until ``layer_metrics`` folds them into self times and counts.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute, span name).  The intlin attributes are also what
# validate, is_negative_definite and mu_bar reach through module globals.
WRAPPED = (
    ("plumbcap.cli", "parse_plumbing", "plumbing.parse"),
    ("plumbcap.pipeline", "qhd_obstruction", "pipeline"),
    ("plumbcap.pipeline", "validate", "plumbing.validate"),
    ("plumbcap.pipeline", "gram_matrix", "plumbing.gram_matrix"),
    ("plumbcap.plumbing", "gram_matrix", "plumbing.gram_matrix"),
    ("plumbcap.intlin", "first_sylvester_violation", "intlin.sylvester"),
    ("plumbcap.pipeline", "determinant", "intlin.determinant"),
    ("plumbcap.pipeline", "wu_classes", "intlin.wu"),
    ("plumbcap.pipeline", "mu_bar", "intlin.wu"),
    ("plumbcap.intlin", "wu_classes", "intlin.wu"),
    ("plumbcap.pipeline", "choose_root", "dualcap.choose_root"),
    ("plumbcap.pipeline", "admissible_roots", "dualcap.choose_root"),
    ("plumbcap.pipeline", "build_dual", "dualcap.build_dual"),
    ("plumbcap.pipeline", "embed_diagonal", "embedder.search"),
    ("plumbcap.embedder", "verify_witness", "embedder.verify"),
)

# Span name -> per-layer metric holding that span's self time.
SELF_TIME = {
    "cli": "cli.self_s",
    "plumbing.parse": "plumbing.parse_s",
    "plumbing.validate": "plumbing.validate_s",
    "plumbing.gram_matrix": "plumbing.gram_matrix_s",
    "intlin.determinant": "intlin.determinant_s",
    "intlin.wu": "intlin.wu_s",
    "intlin.sylvester": "intlin.sylvester_s",
    "dualcap.choose_root": "dualcap.choose_root_s",
    "dualcap.build_dual": "dualcap.build_dual_s",
    "embedder.search": "embedder.search_s",
    "embedder.verify": "embedder.verify_s",
    "pipeline": "pipeline.self_s",
}


def _counts(name: str, args, result) -> dict:
    """What a span can count from its arguments and result."""
    if name == "intlin.sylvester":
        return {"rank": args[0].rank}
    if name == "dualcap.build_dual":
        return {"rank": result.gram.rank}
    if name == "embedder.search":
        return {"nodes": result.nodes, "completed": result.completed,
                "embeddable": bool(result.embeddable)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = None

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "request": self.request, "start": perf_counter()}
        self.spans.append(record)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = perf_counter()
            self._open.pop()
        record.update(_counts(name, args, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, attribute, name in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time per layer and the layers' counts, summed over ``spans``."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    metrics = dict.fromkeys(SELF_TIME.values(), 0.0)
    for span, inner in zip(spans, child_time):
        metrics[SELF_TIME[span["name"]]] += span["end"] - span["start"] - inner
    # A call that raised recorded no counts; the run counts it as failed.
    searches = [s for s in spans if s["name"] == "embedder.search" and "nodes" in s]
    nodes = sum(s["nodes"] for s in searches)
    duals = [s["rank"] for s in spans if s["name"] == "dualcap.build_dual" and "rank" in s]
    metrics.update({
        "intlin.sylvester_ops": sum(s.get("rank", 0) ** 3 for s in spans
                                    if s["name"] == "intlin.sylvester") / 3,
        "dualcap.duals": len(duals),
        "dualcap.rank_max": max(duals, default=0),
        "embedder.nodes": nodes,
        "embedder.nodes_per_s": nodes / metrics["embedder.search_s"],
        "embedder.calls": len(searches),
        "embedder.undecided": sum(not s["completed"] for s in searches),
        "embedder.witnesses": sum(s["embeddable"] for s in searches),
    })
    return metrics
