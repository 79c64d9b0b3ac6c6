"""The dual configuration lattice of a plumbing tree.

Pick a root vertex v with -e_v - d_v > 0.  Every vertex u contributes
-e_u - d_u braid strings (one fewer at the root); a string owned by u gets
framing -dist(u, v) - 2, and two strings link by -1 minus the number of
edges their root paths share.  One global full negative twist accounts for
the -1; each tree edge contributes a further full twist whose box holds
exactly the strings separated from the root by that edge, which is where
the shared-path count comes from.

The Gram matrix assembled from those framings and linkings is the
intersection lattice the embedding obstruction is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import intlin
from .plumbing import PlumbingGraph, rooted_tree


class NoAdmissibleRootError(ValueError):
    """No vertex satisfies -e_v - d_v > 0."""


@dataclass(frozen=True)
class DualString:
    label: str
    vertex: int
    distance: int  # edges from the owner to the root
    framing: int   # always -distance - 2

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "vertex": self.vertex,
            "distance": self.distance,
            "framing": self.framing,
        }


@dataclass(frozen=True)
class DualConfiguration:
    root: int
    strings: tuple[DualString, ...]
    gram: intlin.GramMatrix

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "strings": [s.to_json_dict() for s in self.strings],
        }


def string_counts(g: PlumbingGraph, root: int | None = None) -> dict[int, int]:
    """-e_v - d_v per vertex, with one string removed at the root."""
    framings = g.framing_map()
    counts = {v: -framings[v] for v in framings}
    for a, b in g.edges:
        counts[a] -= 1
        counts[b] -= 1
    if root is not None:
        counts[root] -= 1
    return counts


def choose_root(g: PlumbingGraph) -> int:
    """The vertex maximizing -e_v - d_v, ties to the smallest id.

    Raises NoAdmissibleRootError when the maximum is not positive.  For any
    graph that passes validation an admissible root always exists: the
    all-ones vector x has x^T Q x = sum(e_v) + 2|E| < 0 by definiteness,
    so the counts sum to a positive number.
    """
    counts = string_counts(g)
    best_vertex, best = None, 0
    for vid in g.ids():
        if counts[vid] > best:
            best_vertex, best = vid, counts[vid]
    if best_vertex is None:
        raise NoAdmissibleRootError("no vertex has framing deficit -e_v - d_v > 0")
    return best_vertex


def build_dual(g: PlumbingGraph, root: int) -> DualConfiguration:
    """Strings, framings and pairwise linkings for the given root.

    Raises ValueError unless ``g`` is a connected tree, the root is
    admissible and no vertex has -e_v - d_v < 0.  Those checks accept
    exactly the graphs ``validate`` accepts, at any admissible root.
    """
    if root not in set(g.ids()):
        raise KeyError("no vertex %d" % root)
    if len(g.edges) != len(g.ids()) - 1:
        raise ValueError("dual configuration needs a tree")
    counts = string_counts(g, root=root)
    if counts[root] < 0:
        raise NoAdmissibleRootError(
            "root %d is not admissible: -e_v - d_v = %d at it"
            % (root, counts[root] + 1))
    for v in g.ids():
        if counts[v] < 0:
            raise ValueError("vertex %d: framing smaller than valency "
                             "(-e_v - d_v = %d)" % (v, counts[v]))
    parent, depth, order = rooted_tree(g, root)
    if len(order) != len(counts):
        raise ValueError("graph is not connected")

    @cache
    def shared(u: int, v: int) -> int:
        """Edges common to the root paths of u and v: the depth of their
        lowest common ancestor."""
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        return depth[u]

    strings: list[DualString] = []
    for vid in g.ids():
        dist = depth[vid]
        for k in range(counts[vid]):
            strings.append(DualString(
                label="u%d#%d" % (vid, k),
                vertex=vid,
                distance=dist,
                framing=-dist - 2,
            ))

    rank = len(strings)
    rows = [[0] * rank for _ in range(rank)]
    for i, s in enumerate(strings):
        rows[i][i] = s.framing
        for j in range(i + 1, rank):
            rows[i][j] = rows[j][i] = -1 - shared(s.vertex, strings[j].vertex)
    gram = intlin.GramMatrix.from_rows(rows, labels=[s.label for s in strings])
    return DualConfiguration(root=root, strings=tuple(strings), gram=gram)


def admissible_roots(g: PlumbingGraph) -> tuple[int, ...]:
    counts = string_counts(g)
    return tuple(v for v in g.ids() if counts[v] > 0)
