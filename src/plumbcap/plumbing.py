"""Plumbing trees of spheres: representation, file format, validation.

A plumbing graph is a finite simple graph whose vertices carry integer
framings.  The inputs this package cares about are negative definite trees
in which the absolute value of every framing is at least the valency of its
vertex (the reduced-fundamental-cycle condition); ``validate`` reports all
three properties separately so callers can explain rejections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from . import intlin

_ID_RE = re.compile(r"^[0-9]+$")
_FRAMING_RE = re.compile(r"^-?[0-9]+$")


class GraphFormatError(ValueError):
    """A malformed graph document; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
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
    canonical.  Self-loops, duplicate edges and edges to unknown ids are
    rejected at construction; tree-ness is a *validation* property, not a
    construction one, so forests and cycles can be represented and then
    reported on.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if not ids:
            raise ValueError("a plumbing graph needs at least one vertex")
        if any(v < 0 for v in ids):
            raise ValueError("vertex ids must be nonnegative")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex id")
        known = set(ids)
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loop at vertex %d" % a)
            if a not in known or b not in known:
                raise ValueError("edge (%d, %d) references unknown id" % (a, b))
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError("duplicate edge (%d, %d)" % key)
            seen.add(key)
        object.__setattr__(
            self, "vertices", tuple(sorted((int(v), int(e)) for v, e in self.vertices)))
        object.__setattr__(
            self, "edges", tuple(sorted((min(a, b), max(a, b)) for a, b in self.edges)))

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
    """What ``validate`` found.  ``gram`` is the intersection form it
    scanned; ``determinant`` is det Q, the scan's last leading minor, when
    Q is negative definite, and None otherwise."""

    is_tree: bool
    reduced_fundamental_cycle: bool
    offending_vertices: tuple[int, ...]
    gram: intlin.GramMatrix
    determinant: int | None

    @property
    def negative_definite(self) -> bool:
        return self.determinant is not None

    @property
    def all_ok(self) -> bool:
        return self.is_tree and self.negative_definite and self.reduced_fundamental_cycle

    def describe(self) -> str:
        problems = []
        if not self.is_tree:
            problems.append("not a tree")
        if not self.negative_definite:
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
    edge.  Errors carry the offending line number; non-tree structure is
    *not* an error here, it is reported by ``validate``.
    """
    vertices: list[tuple[int, int]] = []
    ids: set[int] = set()
    edge_lines: list[tuple[int, int, int]] = []
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
            vid = int(tokens[1])
            if vid in ids:
                raise GraphFormatError("duplicate vertex id %d" % vid, lineno)
            ids.add(vid)
            vertices.append((vid, int(tokens[2])))
        elif tokens[0] == "e":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'e <id> <id>'", lineno)
            if not _ID_RE.match(tokens[1]) or not _ID_RE.match(tokens[2]):
                raise GraphFormatError("bad edge endpoint", lineno)
            edge_lines.append((lineno, int(tokens[1]), int(tokens[2])))
        else:
            raise GraphFormatError("unknown directive %r" % tokens[0], lineno)
    if not vertices:
        raise GraphFormatError("no vertices declared")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, a, b in edge_lines:
        if a == b:
            raise GraphFormatError("self-loop at vertex %d" % a, lineno)
        if a not in ids or b not in ids:
            missing = a if a not in ids else b
            raise GraphFormatError("edge to unknown id %d" % missing, lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphFormatError("duplicate edge (%d, %d)" % key, lineno)
        seen.add(key)
        edges.append(key)
    return PlumbingGraph(vertices=tuple(vertices), edges=tuple(edges))


def serialize_plumbing(g: PlumbingGraph) -> str:
    """Canonical text: vertices ascending by id, then edges sorted."""
    lines = ["v %d %d" % (vid, e) for vid, e in g.vertices]
    lines += ["e %d %d" % (a, b) for a, b in g.edges]
    return "\n".join(lines) + "\n"


def gram_matrix(g: PlumbingGraph) -> intlin.GramMatrix:
    """The intersection form: framings on the diagonal, 1 per edge.

    Rows/columns follow ascending vertex id; labels are the ids as strings.
    """
    ids = g.ids()
    index = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
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


def validate(g: PlumbingGraph) -> ValidationReport:
    """Check tree-ness, negative definiteness and |framing| >= valency.

    ``offending_vertices`` always explains a failure: reduced-cycle
    violators directly; for an indefinite form, the vertex at the first
    failing Sylvester order (in ascending-id position); for a disconnected
    graph, every vertex outside the component of the lowest id; for a
    connected graph with a cycle, the endpoints of the first removable
    edge.  The report carries the form and, when it is definite, its
    determinant, so a caller builds and eliminates it no second time.
    """
    ids = g.ids()
    offenders = set(ids).difference(rooted_tree(g, ids[0])[1])
    connected = not offenders
    is_tree = connected and len(g.edges) == len(ids) - 1
    if connected and not is_tree:
        for edge in g.edges:
            rest = replace(g, edges=tuple(e for e in g.edges if e != edge))
            if len(rooted_tree(rest, ids[0])[1]) == len(ids):
                offenders.update(edge)
                break

    framings = g.framing_map()
    adj = g.adjacency()
    rfc_bad = [v for v in ids if abs(framings[v]) < len(adj[v])]
    offenders.update(rfc_bad)

    q = gram_matrix(g)
    minors: list[int] = []
    violation = intlin.first_sylvester_violation(q, minors)
    if violation is not None:
        offenders.add(ids[violation - 1])

    return ValidationReport(
        is_tree=is_tree,
        reduced_fundamental_cycle=not rfc_bad,
        offending_vertices=tuple(sorted(offenders)),
        gram=q,
        determinant=minors[-1] if violation is None else None,
    )


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

