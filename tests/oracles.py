"""Independent reference implementations the tests check against.

Everything here deliberately uses a different algorithm from the package:
determinants by the permutation sum instead of elimination, definiteness
by explicit leading minors, Wu classes by exhaustive enumeration, and the
dual Gram matrix by counting twist boxes on the open book page rather
than by shared root paths, and embeddings by enumerating every row with
no symmetry reduction.  ``curves_crossed`` reads string framings off the
open book page, for comparison with the dual configuration,
``tree_distances`` counts edges by relaxing them until nothing changes,
and ``dense_search`` is the embedding search without twin rows.
"""

from __future__ import annotations

import itertools
import random
import time
from math import isqrt

from plumbcap.embedder import EmbeddingOutcome
from plumbcap.intlin import GramMatrix
from plumbcap.openbook import OpenBookDescription, build_open_book
from plumbcap.plumbing import PlumbingGraph, validate


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
    ordered = [h for h, _ in book.holes]
    outer = next(h for h, owner in book.holes if owner == root)
    strings = [h for h in ordered if h != outer]
    everything = set(ordered)
    boxes = []
    for curve in book.curves:
        inside = set(curve.holes)
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


def curves_crossed(ob: OpenBookDescription, hole: int, outer: int) -> int:
    """Twist curves separating ``hole`` from the ``outer`` hole.

    This counts curves whose hole set contains exactly one of the two, and
    equals (tree distance between the owners) + 2: the two parallel circles
    plus one edge curve per path edge.  The dual string owned by the same
    vertex as ``hole`` is framed by exactly minus this number.
    """
    if hole == outer:
        raise ValueError("need two distinct holes")
    known = {h for h, _ in ob.holes}
    if hole not in known or outer not in known:
        raise KeyError("unknown hole id")
    crossed = 0
    for curve in ob.curves:
        inside = (hole in curve.holes) + (outer in curve.holes)
        if inside == 1:
            crossed += 1
    return crossed


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
