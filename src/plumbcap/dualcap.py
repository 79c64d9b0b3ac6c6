"""The planar open book of a plumbing tree and the dual configuration
lattice read off it, under Gay-Stipsicz's hypothesis (a rational surface
singularity with reduced fundamental cycle): on a tree, every string count
-e_v - d_v is >= 0 and one is positive.  Then -Q_T = I + B^T B below, so
these are exactly the graphs ``validate`` accepts (see ``choose_root``):
``_checked_counts`` decides them in O(V), and on a refusal only runs
``validate``, to word it as ``obstruct`` does.

The page is a sphere with -e_v - d_v holes drilled near each vertex v, and
the monodromy is the product of right-handed Dehn twists along one parallel
circle per hole plus one curve per tree edge, which encircles the holes on
one side of the tree cut at that edge.

Pick a root vertex v with -e_v - d_v > 0.  Every vertex u contributes
-e_u - d_u braid strings (one fewer at the root).  The braid is one global
full negative twist of all strings, plus one more full twist per non-root
vertex w: the twist box of the edge from w to its parent, which holds the
strings owned in w's subtree.  Those boxes are the edge curves, each
stored as its side *away* from the canonical dual root: the edge's child
end's subtree, an interval of the walk's preorder (``_subtrees``).

So the dual is -Q = I + B B^T.  B has one all-ones column f_root and one
column f_w per non-root w, marking the strings in w's subtree.  A string
owned by u gets framing -dist(u, v) - 2, and the strings of u and w share
the boxes of the non-root vertices on both root paths: depth(meet(u, w))
of them, so they link by -1 - depth(meet(u, w)).  ``build_dual`` finds
these depths in one sweep of the walk per owner, O(V * owners + rank^2).

I + B B^T is positive definite, so every dual is negative definite.  Its
determinant is det(I + B^T B), a V x V determinant.  The unimodular change
of basis g_u = f_u - sum over the children c of u of f_c turns B into the
columns that mark each vertex's own strings, and I + B^T B into exactly
-Q_T, the tree's negated intersection form: the identity becomes -1 per
tree edge and 1 + (children of u) on the diagonal, which the count of u's
own strings, -e_u - d_u (one less at the root), tops up to -e_u.  Hence
|det Q_dual| = |det Q_T| at every admissible root, and the pipeline reads
the dual's determinant off the tree form instead of eliminating the dual.

The dual does not depend on the root, up to isometry.  Let r != r2 be
admissible and s* the last string of r2 at r (label u{r2}#{c - 1}, with
c = -e_r2 - d_r2): the dual at r2 has the same strings but s*, plus r's
extra string.  Then v'_t = v_s* - v_t for every shared string t and
v'_s* = v_s* for r's extra one have exactly the Gram matrix of the dual
at r2 (``change_root``).  Proof: with P = -Q, a tree's depth(meet(x, y))
= (d(x, r) + d(y, r) - d(x, y)) / 2 gives P[t][u] = delta_tu + 1 +
(d(x, r) + d(y, r) - d(x, y)) / 2 for strings owned by x and y, and
P[s*][s*] = 2 + d(r2, r).  In P[s*][s*] - P[s*][u] - P[t][s*] + P[t][u]
every d(., r) cancels, leaving delta_tu + 1 + (d(x, r2) + d(y, r2) -
d(x, y)) / 2; P[s*][s*] - P[t][s*] = 1 + (d(x, r2) + d(r, r2) - d(x, r))
/ 2; and 2 + d(r, r2) frames r's extra string at r2.  The change is its
own inverse, so unimodular, and a witness M at r gives M'_t = M_s* - M_t,
M'_s* = M_s* at r2: a dual embeds at one admissible root exactly when it
embeds at all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from . import intlin
from .plumbing import PlumbingGraph, ValidationFailure, rooted_tree, validate


# The largest dual rank built.  The dual and the search tables grow as
# rank^2: `obstruct v 0 -1024` (rank 1023) peaks at 56 MB, so a search at
# this bound needs about 0.9 GB.
MAX_DUAL_RANK = 4096


class NoAdmissibleRootError(ValueError):
    """-e_v - d_v = 0 at the root asked for, in a graph with a cap."""


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

    Raises ValidationFailure when the maximum is not positive.  Only a
    graph outside the hypothesis gets there: for any graph that passes
    validation the all-ones vector x has x^T Q x = sum(e_v) + 2|E| < 0 by
    definiteness, so the counts sum to a positive number.
    """
    counts = string_counts(g)
    best = max(g.ids(), key=counts.get)  # the first maximum: smallest id
    if counts[best] <= 0:
        raise ValidationFailure(validate(g))
    return best


def _checked_counts(g: PlumbingGraph, root: int):
    """``string_counts(g)`` and ``rooted_tree(g, root)``; refuses in
    ``obstruct``'s order: the rank bound, the hypothesis (ValidationFailure),
    then the root ("no vertex R", or NoAdmissibleRootError)."""
    counts = string_counts(g)
    parent, order = rooted_tree(g, root if root in counts else g.ids()[0])
    if (len(order) != len(counts) or len(g.edges) != len(order) - 1
            or min(counts.values()) < 0 or not any(counts.values())):
        raise ValidationFailure(validate(g))
    if root not in counts:
        raise ValueError("no vertex %d" % root)
    if counts[root] <= 0:
        raise NoAdmissibleRootError(
            "root %d is not admissible: -e_v - d_v = %d at it" % (root, counts[root]))
    return counts, parent, order


def _subtrees(parent: dict[int, int | None], order: list[int]):
    """``(depth, entry, size)`` for the walk ``(parent, order)``: entry is
    a depth-first preorder number, so w lies in u's subtree iff
    entry[u] <= entry[w] < entry[u] + size[u].  Each child's range follows
    its parent's entry and its earlier siblings' ranges."""
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    depth, entry, free = {order[0]: 0}, {order[0]: 0}, {order[0]: 1}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
        entry[v] = free[parent[v]]
        free[parent[v]] += size[v]
        free[v] = entry[v] + 1
    return depth, entry, size


def build_dual(g: PlumbingGraph, root: int) -> DualConfiguration:
    """Strings, framings and pairwise linkings at ``root``; raises as
    ``_checked_counts`` does."""
    counts, parent, order = _checked_counts(g, root)
    counts[root] -= 1
    owners = tuple(v for v in g.ids() for _ in range(counts[v]))
    labels = ["u%d#%d" % (v, k) for v in g.ids() for k in range(counts[v])]
    depth, entry, size = _subtrees(parent, order)
    # One sweep of the walk per owner u: link[x] = -1 - depth(meet(u, x)),
    # x's depth when x is u or an ancestor of u, else its parent's value.
    rows = []
    for u in dict.fromkeys(owners):
        link = {}
        for x in order:
            link[x] = (-1 - depth[x] if entry[x] <= entry[u] < entry[x] + size[x]
                       else link[parent[x]])
        linking = [link[w] for w in owners]
        for _ in range(counts[u]):
            row = list(linking)
            row[len(rows)] -= 1
            rows.append(row)
    gram = intlin.GramMatrix.from_rows(rows, labels=labels)
    return DualConfiguration(root=root, owners=owners, gram=gram)


def change_root(dual: DualConfiguration, to: DualConfiguration, rows) -> tuple:
    """``rows``, one per string of ``dual``, in the basis of ``to``, the
    dual of the same graph at another root (see the module docstring):
    row s* for ``dual.root``'s extra string, which ``dual`` lacks, and row
    s* minus row t for every string t the two share."""
    index = {label: i for i, label in enumerate(dual.gram.labels)}
    star = tuple(rows[index["u%d#%d" % (to.root, to.owners.count(to.root))]])
    return tuple(star if label not in index else tuple(map(sub, star, rows[index[label]]))
                 for label in to.gram.labels)


def admissible_roots(g: PlumbingGraph) -> tuple[int, ...]:
    counts = string_counts(g)
    return tuple(v for v in g.ids() if counts[v] > 0)


def build_open_book(g: PlumbingGraph) -> OpenBookDescription:
    """The open book, holes numbered by ascending owner.  Raises as
    ``build_dual(g, choose_root(g))`` does, with the same words."""
    counts, parent, order = _checked_counts(g, choose_root(g))
    owners = tuple(v for v in g.ids() for _ in range(counts[v]))
    _, entry, size = _subtrees(parent, order)
    # The far side of an edge from the canonical dual root is the subtree
    # of its child end.
    edge_curves = []
    for a, b in g.edges:
        child = b if parent[b] == a else a
        start, end = entry[child], entry[child] + size[child]
        edge_curves.append(((a, b), tuple(
            h for h, u in enumerate(owners) if start <= entry[u] < end)))
    return OpenBookDescription(owners=owners, edge_curves=tuple(edge_curves))
