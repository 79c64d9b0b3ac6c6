"""Independent arithmetic that plumbcap's answers are checked against.

Nothing here imports plumbcap, and the algorithms differ from the
package's on purpose:

* definiteness and the determinant come from eliminating a tree from its
  leaves inwards, which causes no fill-in, so the pivots are exact
  Fractions and the form is negative definite exactly when every pivot is
  negative (Sylvester's law of inertia); plumbcap uses Bareiss elimination
  on leading minors;
* the dual Gram matrix is rebuilt from depths of lowest common ancestors;
  plumbcap intersects root-path edge sets;
* a witness M is accepted when M M^T = -Q entry by entry.

A graph is a pair ``(vertices, edges)``: ``vertices`` is a tuple of
``(id, framing)`` and ``edges`` a tuple of ``(a, b)`` pairs.
"""

from __future__ import annotations

from fractions import Fraction


def _rooted(vertices, edges, root):
    """Parent and depth of every vertex, and a breadth-first order."""
    adjacent = {v: [] for v, _ in vertices}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    parent = {root: None}
    depth = {root: 0}
    order = [root]
    for v in order:
        for w in sorted(adjacent[v]):
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    return parent, depth, order


def tree_pivots(vertices, edges) -> list[Fraction] | None:
    """Pivots of leaf-first elimination of a tree's intersection form.

    Returns None when a pivot vanishes, which rules out definiteness.
    """
    framing = dict(vertices)
    parent, _, order = _rooted(vertices, edges, min(framing))
    remaining = {v: Fraction(e) for v, e in framing.items()}
    pivots = []
    for v in reversed(order):
        pivot = remaining[v]
        if pivot == 0:
            return None
        pivots.append(pivot)
        if parent[v] is not None:
            remaining[parent[v]] -= 1 / pivot
    return pivots


def is_negative_definite_tree(vertices, edges) -> bool:
    pivots = tree_pivots(vertices, edges)
    return pivots is not None and all(p < 0 for p in pivots)


def tree_determinant(vertices, edges) -> int:
    pivots = tree_pivots(vertices, edges)
    if pivots is None:
        return 0
    product = Fraction(1)
    for p in pivots:
        product *= p
    return int(product)


def string_counts(vertices, edges) -> dict[int, int]:
    """-e_v - deg(v) for every vertex, before removing the root's string."""
    counts = {v: -e for v, e in vertices}
    for a, b in edges:
        counts[a] -= 1
        counts[b] -= 1
    return counts


def admissible_roots(vertices, edges) -> list[int]:
    counts = string_counts(vertices, edges)
    return sorted(v for v, c in counts.items() if c > 0)


def canonical_root(vertices, edges) -> int:
    """The vertex with the most strings, lowest id on ties."""
    counts = string_counts(vertices, edges)
    return min(admissible_roots(vertices, edges), key=lambda v: (-counts[v], v))


def dual_gram(vertices, edges, root) -> list[list[int]]:
    """Dual configuration Gram matrix at ``root``, strings ordered by owner
    id: framing -depth - 2 on the diagonal, and -1 - depth(lca) off it."""
    parent, depth, _ = _rooted(vertices, edges, root)
    counts = string_counts(vertices, edges)
    counts[root] -= 1
    owners = [v for v, _ in sorted(vertices) for _ in range(counts[v])]

    def ancestors(v):
        chain = []
        while v is not None:
            chain.append(v)
            v = parent[v]
        return chain

    lines = {v: ancestors(v) for v in set(owners)}
    rank = len(owners)
    gram = [[0] * rank for _ in range(rank)]
    for i, u in enumerate(owners):
        gram[i][i] = -depth[u] - 2
        above_u = set(lines[u])
        for j in range(i + 1, rank):
            lca = next(w for w in lines[owners[j]] if w in above_u)
            gram[i][j] = gram[j][i] = -1 - depth[lca]
    return gram


def witness_embeds(gram, witness) -> bool:
    """True when the integer rows of ``witness`` satisfy M M^T = -gram."""
    rank = len(gram)
    if len(witness) != rank:
        return False
    if any(len(row) != rank or not all(type(x) is int for x in row) for row in witness):
        return False
    for i in range(rank):
        for j in range(i, rank):
            if sum(a * b for a, b in zip(witness[i], witness[j])) != -gram[i][j]:
                return False
    return True
