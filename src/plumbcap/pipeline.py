"""End-to-end obstruction pipeline.

Validates a plumbing graph, builds the dual configuration at one root,
and runs the diagonal-lattice embedding search at the dual rank, once.
The duals at any two admissible roots are isometric (``dualcap``), so
that one search's outcome is every root's.  Every dual is negative
definite with |det| equal to the tree form's (see ``dualcap``), so the
tree's determinant serves every root and no dual is eliminated.  No V x
V form is built either: ``validate`` decides the tree's definiteness and
determinant by one leaves-first elimination, in O(V), and
``tree_wu_class`` its Wu class and mu-bar by handing the tree's rows,
leaves first, to the GF(2) solver ``intlin.wu_solutions``.  A completed
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
from dataclasses import dataclass, replace

from . import embedder
from .dualcap import admissible_roots, build_dual, change_root, choose_root, string_counts
from .embedder import EmbeddingOutcome, embed_diagonal
# determinant, gram_matrix, mu_bar and wu_classes are not called here (no
# V x V form is built), but bench/tracing.py wraps them here by name.
from .intlin import determinant, mu_bar, wu_classes
from .plumbing import (PlumbingGraph, ValidationFailure, ValidationReport, gram_matrix,
                       tree_wu_class, validate)

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class RootResult:
    """Embedding verdict for the dual configuration built at one root;
    ``carried_from`` names the searched root when that is another root,
    and then ``outcome`` is the searched root's with 0 nodes."""

    root: int
    outcome: EmbeddingOutcome
    carried_from: int | None = None

    @property
    def verdict(self) -> str:
        if not self.outcome.completed:
            return UNDECIDED
        return INCONCLUSIVE if self.outcome.embeddable else OBSTRUCTED

    def to_json_dict(self, include_timings: bool = True) -> dict:
        doc = {
            "root": self.root,
            "verdict": self.verdict,
            "outcome": self.outcome.to_json_dict(include_timings),
        }
        if self.carried_from is not None:
            doc["carried_from"] = self.carried_from
        return doc


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
        return self.results[0].verdict

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


def qhd_obstruction(
    graph: PlumbingGraph,
    root: int | None = None,
    all_roots: bool = False,
    budget: int | None = None,
) -> ObstructionReport:
    """Run the full obstruction test on a validated plumbing graph.

    One root is searched, with the whole budget: ``root``, or else the
    canonical root (most strings, lowest id on ties).  all_roots reports
    every admissible root, each with the searched root's outcome, so it
    cannot change the verdict or the nodes spent; a witness is carried by
    ``dualcap.change_root`` and verified at its root.  Raises ValueError
    first if the dual rank exceeds ``dualcap.MAX_DUAL_RANK``, then
    ValidationFailure if the graph is not a negative definite tree with
    reduced fundamental cycle; the failure carries the validation report.
    """
    started = time.monotonic()
    string_counts(graph)
    report = validate(graph)
    if not report.all_ok:
        raise ValidationFailure(report)
    searched = choose_root(graph) if root is None else root
    roots = admissible_roots(graph) if all_roots else (searched,)

    det = report.determinant
    source = build_dual(graph, searched)
    outcome = embed_diagonal(source.gram, source.gram.rank, budget, determinant=abs(det))
    results = []
    for r in roots:
        if r == searched or outcome.certificate:
            # r's own search, or a certificate, which decides every root.
            results.append(RootResult(r, outcome))
            continue
        witness = None
        if outcome.witness is not None:
            dual = build_dual(graph, r)
            witness = change_root(source, dual, outcome.witness)
            # Through the module, so that a wrapper sees this check too.
            if not embedder.verify_witness(dual.gram, witness):
                raise RuntimeError("the witness carried from root %d does not verify "
                                   "at root %d" % (searched, r))
        results.append(RootResult(
            r, replace(outcome, witness=witness, nodes=0, millis=0), searched))

    wu_support, mu = tree_wu_class(graph) if det % 2 else (None, None)
    total_millis = int((time.monotonic() - started) * 1000)
    return ObstructionReport(
        graph=graph,
        validation=report,
        dual_rank=source.gram.rank,
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
        timing = ", %d ms" % result.outcome.millis if include_timings else ""
        detail = "(%d nodes%s)" % (result.outcome.nodes, timing)
        if result.carried_from is not None:
            detail = "(carried from root %d)" % result.carried_from
        if result.outcome.certificate == "determinant":
            text = "no embedding into <-1>^%d: determinant %d is not a square" % (
                report.dual_rank, result.outcome.determinant)
        elif result.verdict == OBSTRUCTED:
            text = "no embedding into <-1>^%d %s" % (report.dual_rank, detail)
        elif result.verdict == INCONCLUSIVE:
            text = "embeds into <-1>^%d %s" % (report.dual_rank, detail)
        else:
            text = "search budget exhausted %s" % detail
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
