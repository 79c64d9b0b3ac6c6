"""The dual configuration lattice of a plumbing tree.

Pick a root vertex v with -e_v - d_v > 0.  Every vertex u contributes
-e_u - d_u braid strings (one fewer at the root).  The braid is one global
full negative twist of all strings, plus one more full twist per non-root
vertex w: the twist box of the edge from w to its parent, which holds the
strings owned in w's subtree.  Those boxes are the open book's edge
curves, and ``twist_boxes`` lists, for each vertex, the boxes its strings
pass through: the non-root vertices on its root path.

So the dual is -Q = I + B B^T.  B has one all-ones column f_root and one
column f_w per non-root w, marking the strings in w's subtree.  A string
owned by u gets framing -dist(u, v) - 2, and two strings link by -1 minus
the number of boxes they share.

I + B B^T is positive definite, so every dual is negative definite.  Its
determinant is det(I + B^T B), a V x V determinant.  The unimodular change
of basis g_u = f_u - sum over the children c of u of f_c turns B into the
columns that mark each vertex's own strings, and I + B^T B into exactly
-Q_T, the tree's negated intersection form: the identity becomes -1 per
tree edge and 1 + (children of u) on the diagonal, which the count of u's
own strings, -e_u - d_u (one less at the root), tops up to -e_u.  Hence
|det Q_dual| = |det Q_T| at every admissible root, and the pipeline reads
the dual's determinant off the tree form instead of eliminating the dual.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlin
from .plumbing import PlumbingGraph, rooted_tree


# The largest dual rank built.  The dual and the search tables grow as
# rank^2: `obstruct v 0 -1024` (rank 1023) peaks at 56 MB, so a search at
# this bound needs about 0.9 GB.
MAX_DUAL_RANK = 4096


class NoAdmissibleRootError(ValueError):
    """No vertex satisfies -e_v - d_v > 0."""


@dataclass(frozen=True)
class DualConfiguration:
    """The dual at ``root``: string i is owned by vertex ``owners[i]`` and
    is row i of ``gram``, which holds its label and its framing
    -distance - 2, distance being the edges from its owner to the root."""

    root: int
    owners: tuple[int, ...]
    gram: intlin.GramMatrix

    def to_json_dict(self) -> dict:
        q = self.gram
        return {
            "root": self.root,
            "strings": [{"label": q.labels[i], "vertex": u,
                         "distance": -q.entries[i][i] - 2, "framing": q.entries[i][i]}
                        for i, u in enumerate(self.owners)],
        }


def string_counts(g: PlumbingGraph, root: int | None = None) -> dict[int, int]:
    """-e_v - d_v per vertex, with one string removed at the root.

    Raises ValueError when the dual rank, the sum of -e_v - d_v less one,
    exceeds MAX_DUAL_RANK, so that nothing sized by it is allocated.
    """
    framings = g.framing_map()
    counts = {v: -framings[v] for v in framings}
    for a, b in g.edges:
        counts[a] -= 1
        counts[b] -= 1
    rank = sum(counts.values()) - 1
    if rank > MAX_DUAL_RANK:
        raise ValueError("dual rank %d exceeds the bound %d" % (rank, MAX_DUAL_RANK))
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


def twist_boxes(g: PlumbingGraph, root: int) -> dict[int, frozenset[int]]:
    """Each vertex reachable from ``root`` with the twist boxes around its
    strings: the non-root vertices on its root path.  The box of w is the
    edge curve between w and its parent, which encloses the holes owned
    in w's subtree."""
    parent, order = rooted_tree(g, root)
    boxes = {root: frozenset()}
    for v in order[1:]:
        boxes[v] = boxes[parent[v]] | {v}
    return boxes


def build_dual(g: PlumbingGraph, root: int) -> DualConfiguration:
    """Strings, framings and pairwise linkings for the given root.

    Raises ValueError unless ``g`` is a connected tree, the root is
    admissible and no vertex has -e_v - d_v < 0.  Those checks accept
    exactly the graphs ``validate`` accepts, at any admissible root, up
    to the rank bound that ``string_counts`` enforces.
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
    boxes = twist_boxes(g, root)
    if len(boxes) != len(counts):
        raise ValueError("graph is not connected")

    owners = tuple(v for v in g.ids() for _ in range(counts[v]))
    labels = ["u%d#%d" % (v, k) for v in g.ids() for k in range(counts[v])]
    # Q[i][j] = -delta_ij - 1 - |boxes(u_i) & boxes(u_j)|, one row per owner.
    linking = {u: [-1 - len(boxes[u] & boxes[w]) for w in owners] for u in set(owners)}
    rows = [list(linking[u]) for u in owners]
    for i, row in enumerate(rows):
        row[i] -= 1
    gram = intlin.GramMatrix.from_rows(rows, labels=labels)
    return DualConfiguration(root=root, owners=owners, gram=gram)


def admissible_roots(g: PlumbingGraph) -> tuple[int, ...]:
    counts = string_counts(g)
    return tuple(v for v in g.ids() if counts[v] > 0)
