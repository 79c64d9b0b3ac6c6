"""The planar open book of a plumbing tree and the dual configuration
lattice read off it, under Gay-Stipsicz's hypothesis (a rational surface
singularity with reduced fundamental cycle): on a tree, every string count
-e_v - d_v is >= 0 and one is positive.  Then -Q_T = I + B^T B below, so
these are exactly the graphs ``validate`` accepts (see ``choose_root``),
and ``_checked_counts`` decides them in O(V).

The page is a sphere with -e_v - d_v holes drilled near each vertex v, and
the monodromy is the product of right-handed Dehn twists along one parallel
circle per hole plus one curve per tree edge, which encircles the holes on
one side of the tree cut at that edge.

Pick a root vertex v with -e_v - d_v > 0.  Every vertex u contributes
-e_u - d_u braid strings (one fewer at the root).  The braid is one global
full negative twist of all strings, plus one more full twist per non-root
vertex w: the twist box of the edge from w to its parent, which holds the
strings owned in w's subtree.  Those boxes are the edge curves, each
stored as its side *away* from the canonical dual root, and ``twist_boxes``
gives, for a vertex, the boxes its strings pass through: the non-root
vertices on its root path.

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


@dataclass(frozen=True)
class OpenBookDescription:
    """Hole i is owned by vertex ``owners[i]`` and has its own boundary
    curve; each ``(edge, holes)`` of ``edge_curves`` is the curve of a tree
    edge and the holes it encircles."""

    owners: tuple[int, ...]
    edge_curves: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "holes": [{"id": h, "vertex": u} for h, u in enumerate(self.owners)],
            "curves": [{"kind": "boundary", "holes": [h]} for h in range(len(self.owners))]
            + [{"kind": "edge", "edge": list(edge), "holes": list(inside)}
               for edge, inside in self.edge_curves],
        }


def string_counts(g: PlumbingGraph) -> dict[int, int]:
    """-e_v - d_v per vertex: its holes, and its strings at any other root.

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
    return counts


def choose_root(g: PlumbingGraph) -> int:
    """The vertex maximizing -e_v - d_v, ties to the smallest id.

    Raises NoAdmissibleRootError when the maximum is not positive.  For any
    graph that passes validation an admissible root always exists: the
    all-ones vector x has x^T Q x = sum(e_v) + 2|E| < 0 by definiteness,
    so the counts sum to a positive number.
    """
    counts = string_counts(g)
    best = max(g.ids(), key=counts.get)  # the first maximum: smallest id
    if counts[best] <= 0:
        raise NoAdmissibleRootError("no vertex has framing deficit -e_v - d_v > 0")
    return best


def twist_boxes(parent: dict[int, int | None], order: list[int],
                counts: dict[int, int]) -> dict[int, frozenset[int]]:
    """The root ``order[0]`` of the walk ``(parent, order)`` and each
    vertex with ``counts[v]`` strings, with the twist boxes around its
    strings: the non-root vertices on its root path.  The box of w is the
    edge curve between w and its parent, which encloses the holes owned
    in w's subtree.  Only these vertices store their boxes, and each walks
    up to the nearest one already stored, since ``order`` puts parents
    first: a long chain owning no strings costs O(V), not O(V^2)."""
    boxes = {order[0]: frozenset()}
    for u in order[1:]:
        if counts[u]:
            path, v = [u], parent[u]
            while v not in boxes:
                path.append(v)
                v = parent[v]
            boxes[u] = boxes[v].union(path)
    return boxes


def _checked_counts(g: PlumbingGraph, root: int):
    """``string_counts(g)`` and ``rooted_tree(g, root)``; raises ValueError
    unless ``g`` meets the hypothesis above and ``root`` is admissible."""
    ids = g.ids()
    if root not in set(ids):
        raise ValueError("no vertex %d" % root)
    if len(g.edges) != len(ids) - 1:
        raise ValueError("dual configuration needs a tree")
    counts = string_counts(g)
    if counts[root] <= 0:
        raise NoAdmissibleRootError(
            "root %d is not admissible: -e_v - d_v = %d at it" % (root, counts[root]))
    for v in ids:
        if counts[v] < 0:
            e = g.framing_map()[v]
            raise ValueError("vertex %d: %s (-e_v - d_v = %d)" % (
                v, "framing %d is positive" % e if e > 0
                else "framing smaller than valency", counts[v]))
    parent, order = rooted_tree(g, root)
    if len(order) != len(counts):
        raise ValueError("graph is not connected")
    return counts, parent, order


def build_dual(g: PlumbingGraph, root: int) -> DualConfiguration:
    """Strings, framings and pairwise linkings at ``root``; raises
    ValueError as ``_checked_counts`` does."""
    counts, parent, order = _checked_counts(g, root)
    counts[root] -= 1
    owners = tuple(v for v in g.ids() for _ in range(counts[v]))
    labels = ["u%d#%d" % (v, k) for v in g.ids() for k in range(counts[v])]
    boxes = twist_boxes(parent, order, counts)
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


def build_open_book(g: PlumbingGraph) -> OpenBookDescription:
    """The open book, holes numbered by ascending owner.  Raises ValueError
    as ``build_dual(g, choose_root(g))`` does, with the same words."""
    counts, parent, order = _checked_counts(g, choose_root(g))
    owners = tuple(v for v in g.ids() for _ in range(counts[v]))
    # Number the vertices in a depth-first preorder: v's subtree is then
    # entry[v] <= entry[w] < entry[v] + size[v].  Each child's range
    # follows its parent's entry and its earlier siblings' ranges.
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    entry, free = {order[0]: 0}, {order[0]: 1}
    for v in order[1:]:
        entry[v] = free[parent[v]]
        free[parent[v]] += size[v]
        free[v] = entry[v] + 1
    # The far side of an edge from the canonical dual root is the subtree
    # of its child end.
    edge_curves = []
    for a, b in g.edges:
        child = b if parent[b] == a else a
        start, end = entry[child], entry[child] + size[child]
        edge_curves.append(((a, b), tuple(
            h for h, u in enumerate(owners) if start <= entry[u] < end)))
    return OpenBookDescription(owners=owners, edge_curves=tuple(edge_curves))
