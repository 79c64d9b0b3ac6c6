import random

import pytest

from oracles import curves_crossed, random_valid_tree, tree_distances

import plumbcap.intlin
from plumbcap.dualcap import (
    NoAdmissibleRootError,
    admissible_roots,
    build_dual,
    build_open_book,
)
from plumbcap.plumbing import generate_gamma_n, gram_matrix, parse_plumbing


def hole_census(book):
    census = {}
    for owner in book.owners:
        census[owner] = census.get(owner, 0) + 1
    return census


def test_open_book_gamma_7_holes():
    book = build_open_book(generate_gamma_n(7))
    assert hole_census(book) == {0: 3, 2: 5, 4: 2, 5: 2, 6: 2, 12: 1}
    assert len(book.owners) == 15


def test_open_book_curve_inventory():
    g = generate_gamma_n(7)
    book = build_open_book(g)
    # Boundary curves and kinds are derived when the book is printed.
    curves = book.to_json_dict()["curves"]
    boundary_curves, edge_curves = curves[:len(book.owners)], curves[len(book.owners):]
    assert len(edge_curves) == len(book.edge_curves) == len(g.edges)
    for curve in boundary_curves:
        assert curve["kind"] == "boundary"
        assert len(curve["holes"]) == 1
        assert "edge" not in curve
    for curve, (edge, _) in zip(edge_curves, book.edge_curves):
        assert curve["kind"] == "edge"
        assert edge in g.edges


def test_edge_curve_holes_lie_on_one_side():
    g = generate_gamma_n(7)
    book = build_open_book(g)
    owner = dict(enumerate(book.owners))
    adjacency = g.adjacency()
    for (a, b), holes in book.edge_curves:
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
        owners = {owner[h] for h in holes}
        assert owners and (owners <= side or owners.isdisjoint(side)), (a, b)


def test_edge_curve_separates_subtree():
    # Ties in the anchor choice break to vertex 0, so every edge curve
    # stores the component away from vertex 0; only vertex 2 owns holes
    # on that side here.
    g = parse_plumbing("v 0 -4\nv 1 -2\nv 2 -4\ne 0 1\ne 1 2\n")
    book = build_open_book(g)
    owner = dict(enumerate(book.owners))
    for edge, holes in book.edge_curves:
        owners = {owner[h] for h in holes}
        assert owners == {2}, edge
    sizes = sorted(len(holes) for _, holes in book.edge_curves)
    assert sizes == [3, 3]


def test_chain_end_hole_is_separated_by_n_edge_curves():
    # Only the edges on the chain-end-to-center path put the two holes
    # on opposite sides, one curve per edge.
    n = 7
    g = generate_gamma_n(n)
    book = build_open_book(g)
    end_hole = next(h for h, owner in enumerate(book.owners) if owner == n + 5)
    center_holes = [h for h, owner in enumerate(book.owners) if owner == 2]
    assert center_holes
    for center in center_holes:
        separating = [edge for edge, holes in book.edge_curves
                      if (end_hole in holes) != (center in holes)]
        assert len(separating) == n
        assert len(separating) == tree_distances(g, 2)[n + 5]


def test_open_book_requires_valid_graph():
    with pytest.raises(NoAdmissibleRootError):
        build_open_book(parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n"))


def test_open_book_runs_no_sylvester_scan(monkeypatch):
    # The string counts decide the cap's hypothesis in O(V), so the open
    # book never builds or scans the V x V tree form, valid graph or not.
    scanned = []
    scan = plumbcap.intlin.first_sylvester_violation

    def recording(q, *args, **kwargs):
        scanned.append(q.rank)
        return scan(q, *args, **kwargs)

    monkeypatch.setattr(plumbcap.intlin, "first_sylvester_violation", recording)
    valid, invalid = generate_gamma_n(5), parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n")
    with pytest.raises(plumbcap.intlin.NotDefiniteError):
        plumbcap.intlin.mu_bar(gram_matrix(invalid))
    assert scanned == [2]  # the recorder sees mu_bar's scan of an indefinite form
    scanned.clear()
    assert len(build_open_book(valid).owners) == 13
    with pytest.raises(ValueError):
        build_open_book(invalid)
    assert scanned == []


def test_hole_count_is_dual_rank_plus_one():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_valid_tree(rng)
        book = build_open_book(g)
        roots = admissible_roots(g)
        dual = build_dual(g, roots[0])
        assert len(book.owners) == dual.gram.rank + 1


def test_curves_crossed_is_distance_plus_two():
    g = generate_gamma_n(7)
    book = build_open_book(g)
    owner = dict(enumerate(book.owners))
    holes = list(owner)
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
        root_holes = [h for h, owner in enumerate(book.owners) if owner == root]
        outer = root_holes[0]
        for i, u in enumerate(dual.owners):
            hole = next(h for h, owner in enumerate(book.owners) if owner == u and h != outer)
            assert curves_crossed(book, hole, outer) == -dual.gram.entries[i][i]


def test_curves_crossed_rejects_bad_holes():
    book = build_open_book(generate_gamma_n(2))
    first = 0  # a hole's id is its position in owners
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

    # gamma-2: ten holes, ten boundary curves, then one curve per edge in
    # edge order, each holding the side away from the default root 0.
    doc = build_open_book(generate_gamma_n(2)).to_json_dict()
    owners = [0, 0, 0, 4, 4, 5, 5, 6, 6, 7]
    sides = {(0, 1): [3, 4, 5, 6, 7, 8, 9], (1, 2): [3, 4, 5, 6, 7, 8, 9],
             (2, 3): [3, 4, 5, 6], (2, 6): [7, 8, 9], (3, 4): [3, 4],
             (3, 5): [5, 6], (6, 7): [9]}
    assert doc == {
        "holes": [{"id": h, "vertex": v} for h, v in enumerate(owners)],
        "curves": [{"kind": "boundary", "holes": [h]} for h in range(10)]
        + [{"kind": "edge", "edge": list(e), "holes": holes} for e, holes in sides.items()],
    }
