import random

import pytest

from oracles import curves_crossed, random_valid_tree, tree_distances
from plumbcap.dualcap import admissible_roots, build_dual
from plumbcap.openbook import build_open_book
from plumbcap.plumbing import (
    ValidationFailure,
    generate_gamma_n,
    parse_plumbing,
)


def hole_census(book):
    census = {}
    for _, owner in book.holes:
        census[owner] = census.get(owner, 0) + 1
    return census


def test_open_book_gamma_7_holes():
    book = build_open_book(generate_gamma_n(7))
    assert hole_census(book) == {0: 3, 2: 5, 4: 2, 5: 2, 6: 2, 12: 1}
    assert len(book.holes) == 15


def test_open_book_curve_inventory():
    g = generate_gamma_n(7)
    book = build_open_book(g)
    assert len(book.boundary_curves) == len(book.holes)
    assert len(book.edge_curves) == len(g.edges)
    for curve in book.boundary_curves:
        assert curve.kind == "boundary"
        assert len(curve.holes) == 1
        assert curve.edge is None
    for curve in book.edge_curves:
        assert curve.kind == "edge"
        assert curve.edge in g.edges


def test_edge_curve_holes_lie_on_one_side():
    g = generate_gamma_n(7)
    book = build_open_book(g)
    owner = dict(book.holes)
    adjacency = g.adjacency()
    for curve in book.edge_curves:
        a, b = curve.edge
        # Component of b once the edge is removed.
        side = {b}
        stack = [b]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if {v, w} == {a, b} or w in side:
                    continue
                side.add(w)
                stack.append(w)
        owners = {owner[h] for h in curve.holes}
        assert owners and (owners <= side or owners.isdisjoint(side)), curve


def test_edge_curve_separates_subtree():
    # Ties in the anchor choice break to vertex 0, so every edge curve
    # stores the component away from vertex 0; only vertex 2 owns holes
    # on that side here.
    g = parse_plumbing("v 0 -4\nv 1 -2\nv 2 -4\ne 0 1\ne 1 2\n")
    book = build_open_book(g)
    owner = dict(book.holes)
    for curve in book.edge_curves:
        owners = {owner[h] for h in curve.holes}
        assert owners == {2}, curve
    sizes = sorted(len(c.holes) for c in book.edge_curves)
    assert sizes == [3, 3]


def test_chain_end_hole_is_separated_by_n_edge_curves():
    # Only the edges on the chain-end-to-center path put the two holes
    # on opposite sides, one curve per edge.
    n = 7
    g = generate_gamma_n(n)
    book = build_open_book(g)
    end_hole = next(h for h, owner in book.holes if owner == n + 5)
    center_holes = [h for h, owner in book.holes if owner == 2]
    assert center_holes
    for center in center_holes:
        separating = [c for c in book.edge_curves
                      if (end_hole in c.holes) != (center in c.holes)]
        assert len(separating) == n
        assert len(separating) == tree_distances(g, 2)[n + 5]


def test_open_book_requires_valid_graph():
    with pytest.raises(ValidationFailure):
        build_open_book(parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n"))


def test_hole_count_is_dual_rank_plus_one():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_valid_tree(rng)
        book = build_open_book(g)
        roots = admissible_roots(g)
        dual = build_dual(g, roots[0])
        assert len(book.holes) == dual.gram.rank + 1


def test_curves_crossed_is_distance_plus_two():
    g = generate_gamma_n(7)
    book = build_open_book(g)
    owner = dict(book.holes)
    holes = [h for h, _ in book.holes]
    depth = {v: tree_distances(g, v) for v in g.ids()}
    for i, a in enumerate(holes):
        for b in holes[i + 1:]:
            u, v = owner[a], owner[b]
            assert curves_crossed(book, a, b) == depth[u][v] + 2


def test_curves_crossed_matches_dual_framing():
    # Crossing count from one hole to a hole at the root equals minus the
    # framing of the string attached to the first hole.
    rng = random.Random(2025)
    for _ in range(25):
        g = random_valid_tree(rng)
        root = admissible_roots(g)[0]
        book = build_open_book(g)
        dual = build_dual(g, root)
        root_holes = [h for h, owner in book.holes if owner == root]
        outer = root_holes[0]
        for i, u in enumerate(dual.owners):
            hole = next(h for h, owner in book.holes if owner == u and h != outer)
            assert curves_crossed(book, hole, outer) == -dual.gram.entries[i][i]


def test_curves_crossed_rejects_bad_holes():
    book = build_open_book(generate_gamma_n(2))
    first = book.holes[0][0]
    with pytest.raises(ValueError):
        curves_crossed(book, first, first)
    with pytest.raises(KeyError):
        curves_crossed(book, first, 999)


def test_open_book_json_shape():
    # No root decrement here: a lone -4 vertex keeps all four holes.
    book = build_open_book(parse_plumbing("v 0 -4\n"))
    doc = book.to_json_dict()
    assert doc["holes"] == [{"id": h, "vertex": 0} for h in range(4)]
    assert [c["kind"] for c in doc["curves"]] == ["boundary"] * 4
    assert all("edge" not in c for c in doc["curves"])
