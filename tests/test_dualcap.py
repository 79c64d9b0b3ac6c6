import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_model_dual_gram, nd_by_minors, random_valid_tree, tree_distances
from plumbcap import dualcap
from plumbcap.dualcap import (
    NoAdmissibleRootError,
    admissible_roots,
    build_dual,
    choose_root,
    string_counts,
)
from plumbcap.intlin import determinant, first_sylvester_violation
from plumbcap.openbook import build_open_book
from plumbcap.plumbing import (
    PlumbingGraph,
    generate_gamma_n,
    gram_matrix,
    parse_plumbing,
    validate,
)


def test_string_counts_gamma_7():
    g = generate_gamma_n(7)
    counts = string_counts(g)
    assert counts == {0: 3, 1: 0, 2: 5, 3: 0, 4: 2, 5: 2, 6: 2,
                      7: 0, 8: 0, 9: 0, 10: 0, 11: 0, 12: 1}
    assert string_counts(g, root=2)[2] == 4


def test_choose_root_family():
    # The -(n+1) hub wins once n is large; small n ties break to vertex 0.
    assert choose_root(generate_gamma_n(2)) == 0
    assert choose_root(generate_gamma_n(5)) == 0
    assert choose_root(generate_gamma_n(6)) == 2
    assert choose_root(generate_gamma_n(9)) == 2


def test_choose_root_breaks_ties_to_lowest_id():
    g = parse_plumbing("v 0 -3\nv 1 -3\ne 0 1\n")
    assert choose_root(g) == 0


def test_choose_root_requires_a_positive_count():
    # Every vertex has -e_v - d_v = 0; no braid can be rooted anywhere.
    g = parse_plumbing("v 0 -3\nv 1 -1\nv 2 -1\nv 3 -1\ne 0 1\ne 0 2\ne 0 3\n")
    with pytest.raises(NoAdmissibleRootError):
        choose_root(g)


def test_admissible_roots_gamma_7():
    assert admissible_roots(generate_gamma_n(7)) == (0, 2, 4, 5, 6, 12)


def test_build_dual_single_minus_four():
    g = parse_plumbing("v 0 -4\n")
    dual = build_dual(g, 0)
    assert dual.root == 0
    assert dual.owners == (0, 0, 0)
    assert dual.gram.labels == ("u0#0", "u0#1", "u0#2")
    assert [list(r) for r in dual.gram.entries] == [
        [-2, -1, -1], [-1, -2, -1], [-1, -1, -2]]


def test_build_dual_rank_zero():
    # One -1 vertex yields a single string, removed as the root string.
    dual = build_dual(parse_plumbing("v 0 -1\n"), 0)
    assert dual.owners == ()
    assert dual.gram.rank == 0


def test_build_dual_gamma_7_quoted_entries():
    g = generate_gamma_n(7)
    dual = build_dual(g, 2)
    q = dual.gram
    assert q.rank == 14

    root_strings = [i for i, u in enumerate(dual.owners) if u == 2]
    assert len(root_strings) == 4
    for i in root_strings:
        assert q.entries[i][i] == -2
        for j in root_strings:
            if i != j:
                assert q.entries[i][j] == -1

    fork = [i for i, u in enumerate(dual.owners) if u == 6]
    assert len(fork) == 2
    assert all(q.entries[i][i] == -3 for i in fork)
    assert q.entries[fork[0]][fork[1]] == -2

    deep = [i for i in range(q.rank) if q.entries[i][i] == -4]
    assert len(deep) == 7
    for i in deep:
        partners = [j for j in deep if j != i and q.entries[i][j] == -3]
        assert partners, q.labels[i]

    # The chain-end string is the long one.
    (tail,) = [i for i, u in enumerate(dual.owners) if u == 12]
    assert q.entries[tail][tail] == -9
    for i in fork:
        assert q.entries[tail][i] == -2


def test_dual_framing_is_distance_law():
    rng = random.Random(515)
    for _ in range(40):
        g = random_valid_tree(rng)
        for root in admissible_roots(g):
            dual = build_dual(g, root)
            dist = tree_distances(g, root)
            strings = dual.to_json_dict()["strings"]
            assert [s["vertex"] for s in strings] == list(dual.owners)
            for i, (u, s) in enumerate(zip(dual.owners, strings)):
                assert dual.gram.entries[i][i] == -dist[u] - 2
                assert s["distance"] == dist[u]


def test_off_diagonal_linking_bounds():
    # Two strings share at most min(distance) edges of their root paths,
    # and always link at least once through the root itself.
    rng = random.Random(712)
    for _ in range(40):
        g = random_valid_tree(rng)
        for root in admissible_roots(g):
            q = build_dual(g, root).gram
            distance = [-q.entries[i][i] - 2 for i in range(q.rank)]
            for i in range(q.rank):
                for j in range(i + 1, q.rank):
                    entry = q.entries[i][j]
                    assert entry <= -1
                    assert entry >= -1 - min(distance[i], distance[j])


def test_same_vertex_strings_pair_one_above_framing():
    rng = random.Random(516)
    for _ in range(40):
        g = random_valid_tree(rng)
        roots = admissible_roots(g)
        if not roots:
            continue
        dual = build_dual(g, roots[0])
        q = dual.gram
        for i, u in enumerate(dual.owners):
            for j in range(i + 1, q.rank):
                if dual.owners[j] == u:
                    assert q.entries[i][j] == q.entries[i][i] + 1


def test_dual_rank_is_root_independent():
    rng = random.Random(517)
    for _ in range(30):
        g = random_valid_tree(rng)
        counts = string_counts(g)
        expected = sum(counts.values()) - 1
        for root in admissible_roots(g):
            assert build_dual(g, root).gram.rank == expected


def test_dual_gram_matches_box_model():
    for n in (2, 3, 7):
        g = generate_gamma_n(n)
        root = choose_root(g)
        got = [list(r) for r in build_dual(g, root).gram.entries]
        assert got == box_model_dual_gram(g, root)
    rng = random.Random(518)
    for _ in range(60):
        g = random_valid_tree(rng)
        for root in admissible_roots(g):
            got = [list(r) for r in build_dual(g, root).gram.entries]
            assert got == box_model_dual_gram(g, root)


def test_dual_gram_negative_definite():
    # The permutation-sum oracle is factorial, so it only covers small
    # ranks; larger duals fall back to the library's Sylvester check,
    # itself oracle-tested in test_intlin.
    rng = random.Random(519)
    small = 0
    for _ in range(40):
        g = random_valid_tree(rng)
        q = build_dual(g, choose_root(g)).gram
        if q.rank <= 6:
            assert nd_by_minors([list(r) for r in q.entries])
            small += 1
        else:
            assert first_sylvester_violation(q) is None
    assert small >= 5


def test_dual_determinant_is_the_tree_determinant():
    # det(I + B B^T) = det(I + B^T B), and I + B^T B is congruent to -Q_T
    # (dualcap's docstring); the pipeline takes each dual's |det| from this.
    graphs = [generate_gamma_n(n) for n in range(2, 13)]
    graphs += [parse_plumbing("v 0 -%d\n" % n) for n in (2, 3, 4, 5, 9, 17, 33, 65)]
    rng = random.Random(20261020)
    graphs += [random_valid_tree(rng) for _ in range(200)]
    duals = 0
    for g in graphs:
        expected = abs(determinant(gram_matrix(g)))
        for root in admissible_roots(g):
            assert abs(determinant(build_dual(g, root).gram)) == expected, (g, root)
            duals += 1
    assert duals > len(graphs)


def test_build_dual_error_paths():
    g = generate_gamma_n(2)
    with pytest.raises(KeyError):
        build_dual(g, 99)
    with pytest.raises(NoAdmissibleRootError):
        build_dual(g, 1)  # -e - d = 0 there
    loop = PlumbingGraph(
        vertices=((0, -3), (1, -3), (2, -3)),
        edges=((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError):
        build_dual(loop, 0)


@st.composite
def small_trees(draw):
    """Trees on 1..6 vertices with framings in [-6, 2], valid or not."""
    n = draw(st.integers(1, 6))
    edges = tuple((draw(st.integers(0, v - 1)), v) for v in range(1, n))
    vertices = tuple((v, draw(st.integers(-6, 2))) for v in range(n))
    return PlumbingGraph(vertices=vertices, edges=edges)


@settings(derandomize=True, deadline=None)
@given(small_trees())
def test_property_dual_builds_exactly_for_valid_trees(g):
    try:
        build_dual(g, choose_root(g))
    except ValueError:
        built = False
    else:
        built = True
    assert built == validate(g).all_ok


def test_dual_json_shape():
    dual = build_dual(parse_plumbing("v 0 -4\n"), 0)
    doc = dual.to_json_dict()
    assert doc["root"] == 0
    assert doc["strings"][0] == {
        "label": "u0#0", "vertex": 0, "distance": 0, "framing": -2}


def test_dual_rank_is_bounded(monkeypatch):
    # Huge framings run in a capped child process in test_cli; in process
    # an unbounded build would exhaust memory.  At the bound the dual is
    # built; one above it, refused.
    g = parse_plumbing("v 0 -4\nv 1 -2\ne 0 1\n")  # strings 3 + 1, rank 3
    monkeypatch.setattr(dualcap, "MAX_DUAL_RANK", 3)
    assert build_dual(g, 0).gram.rank == 3
    assert len(build_open_book(g).holes) == 4
    monkeypatch.setattr(dualcap, "MAX_DUAL_RANK", 2)
    for build in (lambda: build_dual(g, 0), lambda: build_open_book(g)):
        with pytest.raises(ValueError, match="dual rank 3 exceeds the bound 2"):
            build()
