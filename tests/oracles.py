"""Independent reference implementations the tests check against.

Everything here deliberately uses a different algorithm from the package:
determinants by the permutation sum instead of elimination, definiteness
by explicit leading minors, Wu classes by exhaustive enumeration, the
dual Gram matrix by counting twist boxes on the open book page (whose
edge curves share the package's walk) and, independently of any walk,
from tree distances alone, and embeddings by enumerating every row with
no symmetry reduction.  ``curves_crossed`` reads string framings off the
open book page, for comparison with the dual configuration,
``tree_distances`` counts edges by relaxing them until nothing changes,
and ``dense_search`` is the embedding search without twin rows.
``lens_d`` is a lattice-free check from Heegaard Floer theory: the
d-invariants of a lens space, which a rational ball filling constrains.
``plumbing_lattice_embeds`` is the classical lattice test, which the cap's
dual lattice is claimed to sharpen.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from math import isqrt

from plumbcap.dualcap import (OpenBookDescription, admissible_roots, build_dual,
                              build_open_book)
from plumbcap.embedder import EmbeddingOutcome, embed_diagonal
from plumbcap.intlin import GramMatrix
from plumbcap.plumbing import PlumbingGraph, gram_matrix, validate


def leibniz_det(rows) -> int:
    """Permutation-sum determinant; fine for the small ranks tested."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # Count inversions for the permutation sign.
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if seen[i] > seen[j])
        sign = -1 if inversions % 2 else 1
        product = 1
        for i in range(n):
            product *= rows[i][perm[i]]
        total += sign * product
    return total if n else 1


def nd_by_minors(rows) -> bool:
    """Sylvester's criterion computed from scratch with leibniz_det."""
    n = len(rows)
    for k in range(1, n + 1):
        minor = [row[:k] for row in rows[:k]]
        if leibniz_det(minor) * (-1) ** k <= 0:
            return False
    return True


def brute_wu(rows) -> list[tuple[int, ...]]:
    """All 0/1 vectors w with (Q w)_i = Q_ii mod 2, by enumeration."""
    n = len(rows)
    found = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(rows[i][k] * bits[k] for k in range(n)) % 2
               == rows[i][i] % 2 for i in range(n)):
            found.append(bits)
    return found


def box_model_dual_gram(graph: PlumbingGraph, root: int) -> list[list[int]]:
    """Dual Gram matrix recomputed from the open book twist curves.

    Each twist curve becomes a box of strings: its hole set, complemented
    when it contains the outer hole (a hole at the root, which caps off
    to the disk the braid lives in).  Complementing makes the result
    independent of which side of an edge the curve stored.  Then the
    self-pairing of a string is minus the number of boxes containing it
    and the pairing of two strings is minus the number of shared boxes.
    """
    book = build_open_book(graph)
    ordered = range(len(book.owners))
    outer = book.owners.index(root)
    strings = [h for h in ordered if h != outer]
    everything = set(ordered)
    boxes = []
    # One boundary curve per hole, then the edge curves.
    for inside in [{h} for h in ordered] + [set(holes) for _, holes in book.edge_curves]:
        boxes.append(everything - inside if outer in inside else inside)
    n = len(strings)
    rows = [[0] * n for _ in range(n)]
    for i, a in enumerate(strings):
        rows[i][i] = -sum(1 for box in boxes if a in box)
        for j in range(i + 1, n):
            b = strings[j]
            shared = sum(1 for box in boxes if a in box and b in box)
            rows[i][j] = rows[j][i] = -shared
    return rows


@functools.lru_cache(maxsize=64)
def _all_distances(graph: PlumbingGraph) -> dict[int, dict[int, int]]:
    """``tree_distances`` from every vertex, kept for a graph's other roots."""
    return {u: tree_distances(graph, u) for u in graph.ids()}


def distance_model_dual_gram(graph: PlumbingGraph, root: int) -> list[list[int]]:
    """Dual Gram matrix from ``tree_distances`` alone: no walk, no open book.

    Vertex v owns -e_v - d_v strings (one fewer at the root), listed by
    ascending id.  A string owned by u is framed -2 - d(u, r), and strings
    owned by u and w link by -1 minus the edges their root paths share,
    (d(u, r) + d(w, r) - d(u, w)) / 2.
    """
    count = {v: -e for v, e in graph.vertices}
    for a, b in graph.edges:
        count[a] -= 1
        count[b] -= 1
    count[root] -= 1
    owners = [v for v in sorted(count) for _ in range(count[v])]
    dist = _all_distances(graph)
    return [[-2 - dist[u][root] if i == j
             else -1 - (dist[u][root] + dist[w][root] - dist[u][w]) // 2
             for j, w in enumerate(owners)] for i, u in enumerate(owners)]


def curves_crossed(ob: OpenBookDescription, hole: int, outer: int) -> int:
    """Twist curves separating ``hole`` from the ``outer`` hole.

    This counts curves whose hole set contains exactly one of the two, and
    equals (tree distance between the owners) + 2: the two parallel circles
    plus one edge curve per path edge.  The dual string owned by the same
    vertex as ``hole`` is framed by exactly minus this number.
    """
    if hole == outer:
        raise ValueError("need two distinct holes")
    known = range(len(ob.owners))
    if hole not in known or outer not in known:
        raise KeyError("unknown hole id")
    # Each hole's own boundary curve holds it and not the other.
    return 2 + sum((hole in holes) != (outer in holes) for _, holes in ob.edge_curves)


def tree_distances(graph: PlumbingGraph, source: int) -> dict[int, int]:
    """Edges from ``source`` to every vertex it reaches, by relaxing the
    edge list until no distance shrinks (no breadth-first walk)."""
    dist = {source: 0}
    changed = True
    while changed:
        changed = False
        for a, b in graph.edges:
            for u, v in ((a, b), (b, a)):
                if u in dist and dist[u] + 1 < dist.get(v, len(graph.vertices)):
                    dist[v] = dist[u] + 1
                    changed = True
    return dist


def random_valid_tree(rng: random.Random, max_vertices: int = 8) -> PlumbingGraph:
    """A random tree passing validation, framings in [-6, -1].

    Degrees are capped at 6 during construction so a framing with
    |e_v| >= d_v always exists in range; candidates failing negative
    definiteness are redrawn.
    """
    while True:
        n = rng.randint(1, max_vertices)
        degrees = [0] * n
        edges = []
        stuck = False
        for v in range(1, n):
            choices = [u for u in range(v) if degrees[u] < 6]
            if not choices:
                stuck = True
                break
            u = rng.choice(choices)
            edges.append((u, v))
            degrees[u] += 1
            degrees[v] += 1
        if stuck:
            continue
        vertices = tuple(
            (v, -rng.randint(max(degrees[v], 1), 6)) for v in range(n))
        graph = PlumbingGraph(vertices=vertices, edges=tuple(edges))
        if validate(graph).all_ok:
            return graph


def random_deep_tree(rng: random.Random, n: int, reach: int = 3) -> PlumbingGraph:
    """A tree on n vertices in which each new vertex joins one of the
    ``reach`` before it, framed -d_v - {0, 1, 2} with -e_0 - d_0 >= 1.

    Every string count is then >= 0 and one is positive, so the form is
    strictly diagonally dominant somewhere and weakly everywhere: with the
    tree connected, negative definite, and ``validate`` accepts it.
    """
    edges = tuple((rng.randint(max(0, v - reach), v - 1), v) for v in range(1, n))
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    vertices = tuple((v, -degree[v] - rng.randint(0 if v else 1, 2)) for v in range(n))
    return PlumbingGraph(vertices=vertices, edges=edges)


def naive_embed_oracle(q: GramMatrix, r: int) -> EmbeddingOutcome:
    """Depth-first enumeration with no symmetry reduction at all.

    Deliberately dumb and complete by construction; exists to cross-check
    embed_diagonal on small instances.  Guards: rank <= 4, r <= 4,
    |Q[i][i]| <= 6.
    """
    if q.rank > 4 or r > 4 or r < 0:
        raise ValueError("oracle guard: rank <= 4 and r <= 4 required")
    if any(abs(q.entries[i][i]) > 6 for i in range(q.rank)):
        raise ValueError("oracle guard: |Q[i][i]| <= 6 required")
    started = time.monotonic()
    norms = [-q.entries[i][i] for i in range(q.rank)]
    nodes = 0

    def all_rows(norm: int) -> list[tuple[int, ...]]:
        rows: list[tuple[int, ...]] = []
        bound = isqrt(norm) if norm >= 0 else -1
        def fill(k: int, acc: list[int], rem: int):
            if k == r:
                if rem == 0:
                    rows.append(tuple(acc))
                return
            for v in range(-bound, bound + 1):
                if v * v <= rem:
                    acc.append(v)
                    fill(k + 1, acc, rem - v * v)
                    acc.pop()
        if norm >= 0:
            fill(0, [], norm)
        return rows

    tables = [all_rows(n) for n in norms]
    placed: list[tuple[int, ...]] = []

    def place(i: int) -> bool:
        nonlocal nodes
        if i == q.rank:
            return True
        for row in tables[i]:
            nodes += 1
            if all(sum(a * b for a, b in zip(row, placed[j])) == -q.entries[i][j]
                   for j in range(i)):
                placed.append(row)
                if place(i + 1):
                    return True
                placed.pop()
        return False

    found = place(0)
    millis = int((time.monotonic() - started) * 1000)
    witness = tuple(placed) if found else None
    return EmbeddingOutcome(
        witness=witness, nodes=nodes, millis=millis, completed=True)


def dense_search(target: list[list[int]], r: int, max_nodes: int | None):
    """The embedding search with every row walked coordinate by coordinate:
    ``embedder._search`` as it was before twin rows, kept as a reference.
    Same arguments and results; its first witness is the same row-major
    lex-max embedding, found through at least as many nodes.

    Walk positions (i, k), coordinate k of row i, depth first.

    ``target`` is the negated form with its rows already in search order.
    Returns (rows, nodes, completed): the placed rows, or None when no
    embedding exists or more than ``max_nodes`` nodes (None: no limit)
    were needed.
    """
    n = len(target)
    if r == 0:
        return None, 0, True
    x = [[0] * r for _ in range(n)]          # value at (i, k), next one tried below it
    low = [[0] * r for _ in range(n)]        # lowest value allowed at (i, k)
    rem = [[0] * (r + 1) for _ in range(n)]  # norm left for coordinates k.. of row i, 0 at r
    needs = [[()] * r for _ in range(n)]     # inner products left with rows 0..i-1
    # Per row i, from rows 0..i-1: tied[i][k] when coordinate k has the
    # same history as k - 1, and fresh[i] the first coordinate of the
    # all-zero suffix.
    tied = [[False] + [True] * (r - 1)] + [None] * (n - 1)
    fresh = [0] * n
    rem[0][0] = target[0][0]
    x[0][0] = isqrt(rem[0][0]) + 1
    nodes = i = k = 0
    while True:
        v = x[i][k] - 1
        if v < low[i][k]:
            if k:
                k -= 1
            elif i:
                i, k = i - 1, r - 1
            else:
                return None, nodes, True
            continue
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            return None, nodes, False
        x[i][k] = v
        left = rem[i][k] - v * v
        ahead = []
        for j, need in enumerate(needs[i][k]):
            need -= v * x[j][k]
            if need * need > left * rem[j][k + 1]:
                break
            ahead.append(need)
        else:
            if k + 1 < r:
                k += 1
            elif left:
                continue
            elif i + 1 == n:
                return x, nodes, True
            else:
                # Row i is done: a run stays tied where its values repeat,
                # and the all-zero suffix loses its leading nonzero entries.
                done, f = x[i], fresh[i]
                tied[i + 1] = [False] + [
                    t and a == b for t, a, b in zip(tied[i][1:], done[1:], done)]
                while f < r and done[f]:
                    f += 1
                fresh[i + 1] = f
                i, k = i + 1, 0
                left, ahead = target[i][i], target[i][:i]
            rem[i][k], needs[i][k] = left, ahead
            top = hi = isqrt(left)
            if tied[i][k] and x[i][k - 1] < hi:
                hi = x[i][k - 1]
            low[i][k] = 0 if k >= fresh[i] else -top
            x[i][k] = hi + 1


def lens_d(p: int, q: int, i: int) -> Fraction:
    """d(L(p, q), i) for 0 < q < p coprime and 0 <= i < p + q, by
    Ozsvath-Szabo's recursion (Adv. Math. 173, 2003):
    d(L(p, q), i) = -1/4 + (2i + 1 - p - q)^2 / (4pq) - d(L(q, p mod q), i mod q),
    with d = 0 on L(1, q), the sphere."""
    if p == 1:
        return Fraction(0)
    return (Fraction(-1, 4) + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
            - lens_d(q, p % q, i % q))


def d_allows_rational_ball(p: int, q: int) -> bool:
    """The d-invariant test for L(p, q) to bound a rational ball: p = m^2
    and d vanishes on a coset of the order-m subgroup of Z/p.  The test
    only obstructs; passing it proves nothing."""
    m = isqrt(p)
    return m * m == p and any(
        all(lens_d(p, q, i + m * k) == 0 for k in range(m)) for i in range(m))


def plumbing_lattice_embeds(g: PlumbingGraph) -> EmbeddingOutcome:
    """Donaldson's test on the plumbing itself: if its boundary bounds a
    rational homology ball B, then P and -B close up to a negative definite
    manifold, so the tree form Q_T embeds in <-1>^V.  ``.embeddable`` of
    the result is the verdict; the search runs with no budget."""
    return embed_diagonal(gram_matrix(g), len(g.vertices), None)


def search_every_root(graph: PlumbingGraph, budget: int | None = None) -> dict:
    """The embedding search at every admissible root, each on its own
    dual, by root: the loop ``obstruct --all-roots`` ran before one
    search was carried to every root."""
    det = abs(validate(graph).determinant)
    return {r: embed_diagonal(dual.gram, dual.gram.rank, budget, determinant=det)
            for r in admissible_roots(graph) for dual in [build_dual(graph, r)]}
