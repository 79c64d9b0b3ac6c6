"""Planar open books supporting the canonical contact structure.

The page is a sphere with -e_v - d_v holes drilled near each vertex v, and
the monodromy is the product of right-handed Dehn twists along one parallel
circle per hole plus one curve per tree edge.  Each edge curve encircles
the holes of one side of the tree cut at that edge; we always store the
side *away* from the canonical dual root so the braid construction can read
the twist boxes straight off this data.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dualcap
from .plumbing import PlumbingGraph, ValidationFailure, validate


@dataclass(frozen=True)
class TwistCurve:
    kind: str  # "boundary" or "edge"
    holes: tuple[int, ...]
    edge: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.edge is not None:
            doc["edge"] = list(self.edge)
        doc["holes"] = list(self.holes)
        return doc


@dataclass(frozen=True)
class OpenBookDescription:
    holes: tuple[tuple[int, int], ...]  # (hole id, owner vertex id)
    boundary_curves: tuple[TwistCurve, ...]
    edge_curves: tuple[TwistCurve, ...]

    @property
    def curves(self) -> tuple[TwistCurve, ...]:
        return self.boundary_curves + self.edge_curves

    def to_json_dict(self) -> dict:
        return {
            "holes": [{"id": h, "vertex": owner} for h, owner in self.holes],
            "curves": [c.to_json_dict() for c in self.curves],
        }


def build_open_book(g: PlumbingGraph) -> OpenBookDescription:
    """Holes and twist curves of the planar open book for a valid graph.

    Hole ids are assigned by ascending owner id, then local index.  Raises
    ValidationFailure unless ``validate(g)`` is all-true, which also
    guarantees at least one hole in total.
    """
    report = validate(g)
    if not report.all_ok:
        raise ValidationFailure(report)

    counts = dualcap.string_counts(g)  # -e_v - d_v before any root removal
    holes: list[tuple[int, int]] = []
    for vid in g.ids():
        for _ in range(counts[vid]):
            holes.append((len(holes), vid))

    boundary = tuple(TwistCurve(kind="boundary", holes=(h,)) for h, _ in holes)

    # The far side of an edge from the canonical dual root (validity
    # guarantees one) is the subtree of its endpoint with more boxes.
    boxes = dualcap.twist_boxes(g, dualcap.choose_root(g))
    edge_curves = []
    for a, b in g.edges:
        child = max(a, b, key=lambda v: len(boxes[v]))
        edge_curves.append(TwistCurve(
            kind="edge", holes=tuple(h for h, owner in holes if child in boxes[owner]),
            edge=(a, b)))

    return OpenBookDescription(
        holes=tuple(holes), boundary_curves=boundary, edge_curves=tuple(edge_curves))

