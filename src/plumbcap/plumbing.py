"""Plumbing trees of spheres: representation, file format, validation.

A plumbing graph is a finite simple graph whose vertices carry integer
framings.  The inputs this package cares about are negative definite trees
in which the absolute value of every framing is at least the valency of its
vertex (the reduced-fundamental-cycle condition); ``validate`` reports all
three properties separately so callers can explain rejections.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from . import intlin

_ID_RE = re.compile(r"^[0-9]+$")
_FRAMING_RE = re.compile(r"^-?[0-9]+$")

MAX_VERTICES = 2048


class GraphFormatError(ValueError):
    """A malformed graph, at 1-based document ``line`` or ``position`` in vertices + edges."""

    def __init__(self, message: str, line: int | None = None, position: int | None = None):
        self.line, self.position = line, position
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class ValidationFailure(ValueError):
    """Raised by operations whose precondition is a fully valid graph."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("invalid plumbing graph: %s" % report.describe())


@dataclass(frozen=True)
class PlumbingGraph:
    """Vertices with integer framings plus undirected edges.

    Vertices are stored ascending by id and edges as (lo, hi) pairs in
    lexicographic order, so structural equality and serialization are
    canonical.  Construction refuses, in this order, non-int (or bool)
    entries, no vertices, a negative or repeated id, self-loops, edges to
    unknown ids, duplicate edges and too many vertices;
    tree-ness is a *validation* property, so forests and cycles can be
    represented and then reported on.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(type(x) is not int for pair in (*self.vertices, *self.edges) for x in pair):
            raise GraphFormatError("vertex ids, framings and edge endpoints must be ints")
        ids = [v for v, _ in self.vertices]
        if not ids:
            raise GraphFormatError("no vertices declared")
        for i, v in enumerate(ids):
            if v < 0:
                raise GraphFormatError("negative vertex id %d" % v, position=i)
        known: set[int] = set()
        for i, v in enumerate(ids):
            if v in known:
                raise GraphFormatError("duplicate vertex id %d" % v, position=i)
            known.add(v)
        seen = set()
        for i, (a, b) in enumerate(self.edges, start=len(ids)):
            if a == b:
                raise GraphFormatError("self-loop at vertex %d" % a, position=i)
            if a not in known or b not in known:
                raise GraphFormatError(
                    "edge to unknown id %d" % (b if a in known else a), position=i)
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphFormatError("duplicate edge (%d, %d)" % key, position=i)
            seen.add(key)
        # The most vertices whose V x V forms are built: `gram --json` on a
        # chain of this many peaks at about 115 MB under a 1 GB address cap.
        if len(ids) > MAX_VERTICES:
            raise GraphFormatError(
                "vertex count %d exceeds the bound %d" % (len(ids), MAX_VERTICES))
        object.__setattr__(
            self, "vertices", tuple(sorted((v, e) for v, e in self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.vertices)

    def framing_map(self) -> dict[int, int]:
        return dict(self.vertices)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v, _ in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class ValidationReport:
    """What ``validate`` found.  ``determinant`` is det Q when the graph is
    a tree whose intersection form Q is negative definite, and None
    otherwise; ``negative_definite`` is None for a graph that is not a
    tree, whose form is not decided."""

    is_tree: bool
    reduced_fundamental_cycle: bool
    offending_vertices: tuple[int, ...]
    determinant: int | None

    @property
    def negative_definite(self) -> bool | None:
        return self.determinant is not None if self.is_tree else None

    @property
    def all_ok(self) -> bool:
        return self.is_tree and self.negative_definite and self.reduced_fundamental_cycle

    def describe(self) -> str:
        problems = []
        if not self.is_tree:
            problems.append("not a tree")
        elif not self.negative_definite:
            problems.append("not negative definite")
        if not self.reduced_fundamental_cycle:
            problems.append("framing smaller than valency")
        if not problems:
            return "ok"
        return "; ".join(problems) + " (vertices %s)" % (list(self.offending_vertices),)

    def to_json_dict(self) -> dict:
        return {
            "is_tree": self.is_tree,
            "negative_definite": self.negative_definite,
            "reduced_fundamental_cycle": self.reduced_fundamental_cycle,
            "offending_vertices": list(self.offending_vertices),
        }


def parse_plumbing(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format.

    Blank lines and lines starting with ``#`` are ignored.  ``v <id>
    <framing>`` declares a vertex (ids decimal nonnegative, framings decimal
    with optional leading ``-``); ``e <id> <id>`` declares an undirected
    edge.  Token errors come in scan order, then what ``PlumbingGraph``
    refuses; each carries its line unless it is about the whole document.
    Non-tree structure is *not* an error here; ``validate`` reports it.
    """
    found: dict[str, list[tuple[int, int, int]]] = {"v": [], "e": []}  # (line, a, b)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "v":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'v <id> <framing>'", lineno)
            if not _ID_RE.match(tokens[1]):
                raise GraphFormatError("bad vertex id %r" % tokens[1], lineno)
            if not _FRAMING_RE.match(tokens[2]):
                raise GraphFormatError("bad framing %r" % tokens[2], lineno)
        elif tokens[0] == "e":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'e <id> <id>'", lineno)
            if not _ID_RE.match(tokens[1]) or not _ID_RE.match(tokens[2]):
                raise GraphFormatError("bad edge endpoint", lineno)
        else:
            raise GraphFormatError("unknown directive %r" % tokens[0], lineno)
        try:
            found[tokens[0]].append((lineno, int(tokens[1]), int(tokens[2])))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise GraphFormatError("integer with more than %d digits"
                                   % sys.get_int_max_str_digits(), lineno) from None
    try:
        return PlumbingGraph(vertices=tuple(v[1:] for v in found["v"]),
                             edges=tuple(e[1:] for e in found["e"]))
    except GraphFormatError as exc:
        if exc.position is None:
            raise
        raise GraphFormatError(str(exc), (found["v"] + found["e"])[exc.position][0]) from None


def serialize_plumbing(g: PlumbingGraph) -> str:
    """Canonical text: vertices ascending by id, then edges sorted."""
    lines = ["v %d %d" % (vid, e) for vid, e in g.vertices]
    lines += ["e %d %d" % (a, b) for a, b in g.edges]
    return "\n".join(lines) + "\n"


def gram_matrix(g: PlumbingGraph) -> intlin.GramMatrix:
    """The intersection form: framings on the diagonal, 1 per edge.

    Rows/columns follow ascending vertex id; labels are the ids as strings.
    Serves ``gram``, the one command that builds the V x V form."""
    ids = g.ids()
    n = len(ids)
    index = {vid: i for i, vid in enumerate(ids)}
    rows = [[0] * n for _ in range(n)]
    for i, (vid, e) in enumerate(g.vertices):
        rows[i][i] = e
    for a, b in g.edges:
        rows[index[a]][index[b]] = 1
        rows[index[b]][index[a]] = 1
    return intlin.GramMatrix.from_rows(rows, labels=[str(v) for v in ids])


def rooted_tree(g: PlumbingGraph, root: int) -> tuple[dict[int, int | None], list[int]]:
    """Breadth-first walk from ``root``: ``(parent, order)``.

    ``order`` lists the vertices reachable from ``root`` in visiting order,
    so each comes after its parent; ``parent[root]`` is None.  Raises
    KeyError for an unknown root.
    """
    adj = g.adjacency()
    parent: dict[int, int | None] = {root: None}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent, order


def _definite_tree_determinant(g: PlumbingGraph, parent, order) -> tuple[int | None, int | None]:
    """``(det Q, None)`` for a tree whose form is negative definite, else
    ``(None, v)`` with v the first vertex whose pivot is not negative.

    Eliminates leaves first along ``order`` (each vertex after its parent):
    the pivot of v is e_v minus the sum of 1/pivot over v's children, and
    the form is negative definite iff every pivot is negative.  Pivot v is
    kept as num/den with den the product of its children's numerators, so
    num is the determinant of v's subtree and the root's num is det Q.  So
    the v returned roots a subtree that is not negative definite, while
    every subtree below it is.
    """
    num = g.framing_map()
    den = dict.fromkeys(num, 1)
    for v in reversed(order):
        n, d = num[v], den[v]
        if n == 0 or (n > 0) == (d > 0):
            return None, v
        p = parent[v]
        if p is not None:
            num[p], den[p] = num[p] * n - den[p] * d, den[p] * n
    return num[order[0]], None


def validate(g: PlumbingGraph) -> ValidationReport:
    """Check tree-ness, negative definiteness and |framing| >= valency.

    ``offending_vertices`` always explains a failure: reduced-cycle
    violators directly; for an indefinite tree, the first vertex whose
    pivot fails in the leaves-first elimination from the lowest id; for a
    disconnected graph, every vertex outside the component of the lowest
    id; for a connected graph with a cycle, the endpoints of the first
    edge (in sorted order) off the breadth-first tree, whose removal
    leaves the graph connected.  Definiteness is decided for trees only:
    a graph that is not a tree has no determinant and ``negative_definite``
    None.  Every graph is decided in O(V + E) and no V x V form is built.
    """
    ids = g.ids()
    parent, order = rooted_tree(g, ids[0])
    offenders = set(ids).difference(order)
    is_tree = not offenders and len(g.edges) == len(ids) - 1
    if not offenders and not is_tree:
        offenders.update(next((a, b) for a, b in g.edges if parent[a] != b and parent[b] != a))

    framings = g.framing_map()
    adj = g.adjacency()
    rfc_bad = [v for v in ids if abs(framings[v]) < len(adj[v])]
    offenders.update(rfc_bad)

    det = None
    if is_tree:
        det, pivot_offender = _definite_tree_determinant(g, parent, order)
        if pivot_offender is not None:
            offenders.add(pivot_offender)

    return ValidationReport(
        is_tree=is_tree,
        reduced_fundamental_cycle=not rfc_bad,
        offending_vertices=tuple(sorted(offenders)),
        determinant=det,
    )


def graph_wu_classes(g: PlumbingGraph) -> list[tuple[int, ...]]:
    """``intlin.wu_classes(gram_matrix(g))`` with no V x V form: the rows
    mod 2, read off the edges, go to ``intlin.wu_solutions`` with bit i the
    vertex at place i of the reversed ``rooted_tree`` walk from the lowest
    id, then those the walk misses; on a tree each child's bit lies below
    its parent's, so the rows stay sparse."""
    ids = g.ids()
    walk = rooted_tree(g, ids[0])[1]
    order = walk[::-1] + sorted(set(ids).difference(walk))
    bit = {v: 1 << i for i, v in enumerate(order)}
    framings = g.framing_map()
    rows = {v: bit[v] if e & 1 else 0 for v, e in framings.items()}
    for a, b in g.edges:
        rows[a] |= bit[b]
        rows[b] |= bit[a]
    solutions = intlin.wu_solutions([rows[v] for v in order], [framings[v] & 1 for v in order])
    return sorted(tuple(int(w & bit[v] != 0) for v in ids) for w in solutions)


def tree_wu_class(g: PlumbingGraph) -> tuple[tuple[int, ...], int]:
    """The support of the Wu class w of a tree with odd det Q, and mu-bar
    -V - w^T Q w.  Raises ValueError when det Q is even."""
    w, *others = graph_wu_classes(g)
    if others:
        raise ValueError("the determinant is even: the Wu class is not unique")
    on = dict(zip(g.ids(), w))
    wqw = sum(e * on[v] for v, e in g.vertices) + 2 * sum(on[a] & on[b] for a, b in g.edges)
    return tuple(v for v in on if on[v]), -len(w) - wqw


def generate_gamma_n(n: int) -> PlumbingGraph:
    """The built-in one-parameter family of plumbing trees.

    Shape for a given n >= 2 (vertex ids fixed so test vectors stay
    stable)::

        0 (-4) -- 1 (-2) -- 2 (-(n+1)) -- 3 (-3) -- 4 (-3)
                                |            \\
                                |             5 (-3)
                                6 (-4) -- 7 (-2) -- ... -- n+5 (-2)

    i.e. a central -(n+1) vertex carrying a -4,-2 leg, a -3 fork with two
    -3 leaves, and a -4 vertex continuing into a chain of n-1 vertices
    framed -2.  Total n+6 vertices.  These trees are negative definite with
    reduced fundamental cycle for every n >= 2; n = 1 is rejected because
    the chain would be empty and the central vertex would carry framing -2
    against valency 3, breaking the reduced-cycle bound.
    """
    if n < 2:
        raise ValueError("family is defined for n >= 2")
    vertices = [(0, -4), (1, -2), (2, -(n + 1)), (3, -3), (4, -3), (5, -3), (6, -4)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (2, 6)]
    prev = 6
    for k in range(7, n + 6):
        vertices.append((k, -2))
        edges.append((prev, k))
        prev = k
    return PlumbingGraph(vertices=tuple(vertices), edges=tuple(edges))

