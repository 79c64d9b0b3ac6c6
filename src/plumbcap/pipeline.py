"""End-to-end obstruction pipeline.

Validates a plumbing graph, builds the dual configuration at one or more
roots, and runs the diagonal-lattice embedding search at the dual rank.
Every dual is negative definite with |det| equal to the tree form's (see
``dualcap``), so the tree's determinant serves every root and no dual is
eliminated.  No V x V form is built either: ``validate`` decides the
tree's definiteness and determinant, and ``tree_wu_class`` its Wu class
and mu-bar, by one leaves-first elimination each, in O(V).  A completed
search with no embedding, or a dual determinant that is not a perfect
square (which the search checks first), obstructs a rational homology
disk filling; an embedding found means the test is silent (it never
certifies existence); an exhausted budget leaves the question undecided.

When the intersection form has odd determinant the report also carries
the unique Wu class and the mu-bar invariant computed from it, which
gives the fastest way to cross-check a run against independently known
values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .dualcap import admissible_roots, build_dual, choose_root
from .embedder import EmbeddingOutcome, embed_diagonal
# determinant, gram_matrix, mu_bar and wu_classes are not called here
# (every graph is validated, and a tree eliminated, in O(V + E) with no
# V x V form), but bench/tracing.py wraps the pipeline's functions by
# name, these four included.
from .intlin import determinant, mu_bar, wu_classes
from .plumbing import (PlumbingGraph, ValidationFailure, ValidationReport, gram_matrix,
                       tree_wu_class, validate)

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class RootResult:
    """Embedding verdict for the dual configuration built at one root."""

    root: int
    outcome: EmbeddingOutcome

    @property
    def verdict(self) -> str:
        if not self.outcome.completed:
            return UNDECIDED
        return INCONCLUSIVE if self.outcome.embeddable else OBSTRUCTED

    def to_json_dict(self, include_timings: bool = True) -> dict:
        return {
            "root": self.root,
            "verdict": self.verdict,
            "outcome": self.outcome.to_json_dict(include_timings),
        }


@dataclass(frozen=True)
class ObstructionReport:
    """Everything the obstruction run established about one graph; the
    tree form's determinant is ``validation.determinant``."""

    graph: PlumbingGraph
    validation: ValidationReport
    dual_rank: int
    results: tuple[RootResult, ...]
    wu_support: tuple[int, ...] | None
    mu_bar: int | None
    total_millis: int

    @property
    def verdict(self) -> str:
        return _combine([r.verdict for r in self.results])

    def to_json_dict(self, include_timings: bool = True) -> dict:
        doc: dict = {
            "graph": {
                "vertices": len(self.graph.vertices),
                "edges": len(self.graph.edges),
                "framings": [[v, f] for v, f in self.graph.vertices],
            },
            "validation": self.validation.to_json_dict(),
            "gram_determinant": self.validation.determinant,
            "dual_rank": self.dual_rank,
            "roots": [r.to_json_dict(include_timings) for r in self.results],
            "verdict": self.verdict,
        }
        if self.wu_support is not None:
            doc["wu_support"] = list(self.wu_support)
        if self.mu_bar is not None:
            doc["mu_bar"] = self.mu_bar
        if include_timings:
            doc["total_millis"] = self.total_millis
        return doc


def _combine(verdicts: list[str]) -> str:
    if OBSTRUCTED in verdicts:
        return OBSTRUCTED
    if UNDECIDED in verdicts:
        return UNDECIDED
    return INCONCLUSIVE


def qhd_obstruction(
    graph: PlumbingGraph,
    root: int | None = None,
    all_roots: bool = False,
    budget: int | None = None,
) -> ObstructionReport:
    """Run the full obstruction test on a validated plumbing graph.

    By default only the canonical root (most strings, lowest id on ties)
    is tried; one failed embedding at any root already obstructs, so
    all_roots mostly serves cross-checking.  Raises ValidationFailure if
    the graph is not a negative definite tree with reduced fundamental
    cycle; the failure carries the validation report.
    """
    started = time.monotonic()
    report = validate(graph)
    if not report.all_ok:
        raise ValidationFailure(report)
    if root is not None:
        roots = [root]
    elif all_roots:
        roots = list(admissible_roots(graph))
    else:
        roots = [choose_root(graph)]

    det = report.determinant
    results = []
    dual_rank = 0
    for r in roots:
        dual = build_dual(graph, r)
        dual_rank = dual.gram.rank
        outcome = embed_diagonal(dual.gram, dual.gram.rank, budget, determinant=abs(det))
        results.append(RootResult(r, outcome))

    wu_support, mu = tree_wu_class(graph) if det % 2 else (None, None)
    total_millis = int((time.monotonic() - started) * 1000)
    return ObstructionReport(
        graph=graph,
        validation=report,
        dual_rank=dual_rank,
        results=tuple(results),
        wu_support=wu_support,
        mu_bar=mu,
        total_millis=total_millis,
    )


def render_report(report: ObstructionReport, include_timings: bool = True) -> str:
    """Plain-text rendering of an obstruction report."""
    lines = [
        "graph: %d vertices, %d edges" % (
            len(report.graph.vertices), len(report.graph.edges)),
        "validation: %s" % report.validation.describe(),
        "intersection form determinant: %d" % report.validation.determinant,
        "dual configuration rank: %d" % report.dual_rank,
    ]
    for result in report.results:
        timing = ""
        if include_timings:
            timing = ", %d ms" % result.outcome.millis
        if result.outcome.certificate == "determinant":
            text = "no embedding into <-1>^%d: determinant %d is not a square" % (
                report.dual_rank, result.outcome.determinant)
        elif result.verdict == OBSTRUCTED:
            text = "no embedding into <-1>^%d (%d nodes%s)" % (
                report.dual_rank, result.outcome.nodes, timing)
        elif result.verdict == INCONCLUSIVE:
            text = "embeds into <-1>^%d (%d nodes%s)" % (
                report.dual_rank, result.outcome.nodes, timing)
        else:
            text = "search budget exhausted (%d nodes%s)" % (
                result.outcome.nodes, timing)
        lines.append("root %d: %s" % (result.root, text))
    if report.verdict == OBSTRUCTED:
        lines.append("verdict: obstructed; no rational homology disk filling exists")
    elif report.verdict == INCONCLUSIVE:
        lines.append("verdict: inconclusive; the embedding test does not obstruct")
    else:
        lines.append("verdict: undecided; raise the search budget")
    if report.wu_support is not None:
        lines.append("wu class support: %s"
                     % (" ".join(str(v) for v in report.wu_support) or "(empty)"))
    if report.mu_bar is not None:
        lines.append("mu-bar: %d" % report.mu_bar)
    return "\n".join(lines)
