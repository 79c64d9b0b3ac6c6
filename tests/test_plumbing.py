import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import leibniz_det, nd_by_minors, random_valid_tree, tree_distances
from test_cli import graph_documents
from plumbcap import intlin
from plumbcap.plumbing import (
    MAX_VERTICES,
    GraphFormatError,
    PlumbingGraph,
    generate_gamma_n,
    graph_wu_classes,
    gram_matrix,
    parse_plumbing,
    rooted_tree,
    serialize_plumbing,
    validate,
)

CHAIN3 = PlumbingGraph(
    vertices=((0, -2), (1, -2), (2, -2)), edges=((0, 1), (1, 2)))


def test_graph_canonicalization():
    g = PlumbingGraph(vertices=((2, -3), (0, -2)), edges=((2, 0),))
    assert g.ids() == (0, 2)
    assert g.edges == ((0, 2),)
    assert g.framing_map()[2] == -3
    assert g.adjacency() == {0: [2], 2: [0]}


def test_graph_rejects_bad_structure():
    with pytest.raises(ValueError):
        PlumbingGraph(vertices=(), edges=())
    with pytest.raises(ValueError):
        PlumbingGraph(vertices=((0, -2), (0, -3)), edges=())
    with pytest.raises(ValueError):
        PlumbingGraph(vertices=((-1, -2),), edges=())
    with pytest.raises(ValueError):
        PlumbingGraph(vertices=((0, -2),), edges=((0, 0),))
    with pytest.raises(ValueError):
        PlumbingGraph(vertices=((0, -2),), edges=((0, 1),))
    with pytest.raises(ValueError):
        PlumbingGraph(vertices=((0, -2), (1, -2)), edges=((0, 1), (1, 0)))


@pytest.mark.parametrize("vertices, edges, message, position", [
    ((), ((0, 1),), "no vertices declared", None),
    (((0, -2), (-3, -2)), (), "negative vertex id -3", 1),
    (((0, -2), (1, -2), (0, -3)), (), "duplicate vertex id 0", 2),
    (((0, -2), (1, -2)), ((0, 1), (1, 1)), "self-loop at vertex 1", 3),
    (((0, -2), (1, -2)), ((0, 1), (1, 5)), "edge to unknown id 5", 3),
    (((0, -2), (1, -2)), ((0, 1), (1, 0)), "duplicate edge (0, 1)", 3),
    # Rules apply in that order: types, emptiness, then sign before
    # repeats, and per edge loop, ends, repeats.
    (((True, -2),), (), "vertex ids, framings and edge endpoints must be ints", None),
    (((0, -2), (0, -2), (-1, -2)), (), "negative vertex id -1", 2),
    (((0, -2), (0, -2)), ((0, 0),), "duplicate vertex id 0", 1),
    (((0, -2),), ((5, 5),), "self-loop at vertex 5", 1),
    (((0, -2),), ((5, 6),), "edge to unknown id 5", 1),
    (((0, -2),), ((0, 6), (0, 0)), "edge to unknown id 6", 1),
])
def test_graph_refuses_each_rule_with_its_position(vertices, edges, message, position):
    with pytest.raises(GraphFormatError) as info:
        PlumbingGraph(vertices=vertices, edges=edges)
    assert str(info.value) == message
    assert (info.value.position, info.value.line) == (position, None)


def test_vertex_bound_is_checked_where_a_graph_is_built():
    vertices = tuple((v, -2) for v in range(MAX_VERTICES + 1))
    lines = ["v %d -2\n" % v for v, _ in vertices]
    text = "".join(lines)
    assert len(PlumbingGraph(vertices[:-1], ()).vertices) == MAX_VERTICES
    assert len(parse_plumbing("".join(lines[:-1])).vertices) == MAX_VERTICES
    message = "vertex count %d exceeds the bound %d" % (MAX_VERTICES + 1, MAX_VERTICES)
    for build in (lambda: PlumbingGraph(vertices, ()), lambda: parse_plumbing(text)):
        with pytest.raises(GraphFormatError) as info:
            build()
        assert (str(info.value), info.value.line) == (message, None)
    # Every structural rule comes first.
    with pytest.raises(GraphFormatError, match="duplicate vertex id 0"):
        PlumbingGraph(vertices + ((0, -2),), ())
    with pytest.raises(GraphFormatError, match="line %d: self-loop" % (MAX_VERTICES + 2)):
        parse_plumbing(text + "e 0 0\n")


@pytest.mark.parametrize("vertices, edges", [
    (((0, -2.9),), ()),  # once truncated to -2, and proven obstructed as v 0 -2
    (((0, True), (1.5, -2)), ()),
    (((0, "-2"),), ()),
    (((0, -2), (1, -2)), ((0, 1.0),)),
    (((0, -2), (1, -2)), ((False, 1),)),
])
def test_graph_rejects_non_integers(vertices, edges):
    with pytest.raises(ValueError, match="must be ints"):
        PlumbingGraph(vertices=vertices, edges=edges)


def test_parse_round_trip():
    text = "# comment\n\nv 0 -4\nv 1 -2\ne 0 1\n"
    g = parse_plumbing(text)
    assert g.vertices == ((0, -4), (1, -2))
    assert g.edges == ((0, 1),)
    assert parse_plumbing(serialize_plumbing(g)) == g


def test_parse_accepts_any_declaration_order():
    g = parse_plumbing("e 0 1\nv 1 -2\nv 0 -4\n")
    assert g.vertices == ((0, -4), (1, -2))


def test_parse_errors_carry_line_numbers():
    cases = [
        ("v 0 -2\nv 0 -3\n", 2),       # duplicate vertex
        ("v 0 -2\ne 0 1\n", 2),        # unknown endpoint
        ("v 0 -2\ne 0 0\n", 2),        # self loop
        ("v 0 -2\nv 1 -2\ne 0 1\ne 1 0\n", 4),  # duplicate edge
        ("v x -2\n", 1),               # bad id token
        ("v 0 +2\n", 1),               # framing must be a plain integer
        ("v 0 -2 extra\n", 1),         # arity
        ("w 0 -2\n", 1),               # unknown record
        ("v -1 -2\n", 1),              # negative id
    ]
    for text, line in cases:
        with pytest.raises(GraphFormatError) as info:
            parse_plumbing(text)
        assert info.value.line == line, text


def test_parse_rejects_empty_document():
    with pytest.raises(GraphFormatError):
        parse_plumbing("# nothing here\n\n")


def test_token_faults_come_before_structural_ones():
    # The duplicate id on line 2 is found only once every line is read.
    with pytest.raises(GraphFormatError, match="^line 3: bad framing 'x'$"):
        parse_plumbing("v 0 -2\nv 0 -3\nv 1 x\n")


NINES = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("text", [
    "v 0 -2\nv 1 -%s\ne 0 1\n" % NINES,  # framing
    "v 0 -2\nv %s -2\n" % NINES,          # vertex id
    "v 0 -2\ne 0 %s\n" % NINES,           # edge endpoint
])
def test_oversized_integer_tokens_keep_their_line(text):
    with pytest.raises(GraphFormatError) as info:
        parse_plumbing(text)
    assert info.value.line == 2
    assert str(info.value) == "line 2: integer with more than %d digits" % (len(NINES) - 1)


def _token_lists(text: str):
    """The vertex and edge lists of a document and the line of each, or
    None when some line has a bad token."""
    found = {"v": [], "e": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 3 or tokens[0] not in found or not re.fullmatch(
                "[0-9]+ -?[0-9]+" if tokens[0] == "v" else "[0-9]+ [0-9]+",
                " ".join(tokens[1:])):
            return None
        found[tokens[0]].append((lineno, (int(tokens[1]), int(tokens[2]))))
    return ([pair for _, pair in found["v"]], [pair for _, pair in found["e"]],
            [lineno for key in "ve" for lineno, _ in found[key]])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(graph_documents())
def test_property_parse_refuses_exactly_what_the_graph_refuses(text):
    lists = _token_lists(text)
    if lists is None:
        return
    vertices, edges, lines = lists
    try:
        expected = PlumbingGraph(vertices=tuple(vertices), edges=tuple(edges))
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as info:
            parse_plumbing(text)
        line = None if exc.position is None else lines[exc.position]
        message = str(exc) if line is None else "line %d: %s" % (line, exc)
        assert (info.value.line, str(info.value)) == (line, message)
    else:
        assert parse_plumbing(text) == expected


def test_serialize_is_canonical():
    g = parse_plumbing("v 5 -3\nv 1 -2\ne 5 1\n")
    assert serialize_plumbing(g) == "v 1 -2\nv 5 -3\ne 1 5\n"


def test_gram_matrix_gamma_2_literal():
    q = gram_matrix(generate_gamma_n(2))
    assert q.labels == tuple(str(i) for i in range(8))
    assert tuple(q.entries[i][i] for i in range(q.rank)) == (-4, -2, -3, -3, -3, -3, -4, -2)
    expected_edges = {(0, 1), (1, 2), (2, 3), (2, 6), (3, 4), (3, 5), (6, 7)}
    for i in range(8):
        for j in range(i + 1, 8):
            want = 1 if (i, j) in expected_edges else 0
            assert q.entries[i][j] == want
            assert q.entries[j][i] == want


def test_gram_labels_follow_vertex_ids():
    g = parse_plumbing("v 3 -2\nv 7 -3\ne 3 7\n")
    q = gram_matrix(g)
    assert q.labels == ("3", "7")
    assert tuple(q.entries[i][i] for i in range(q.rank)) == (-2, -3)


def test_validate_accepts_family_members():
    for n in range(2, 21):
        g = generate_gamma_n(n)
        assert len(g.ids()) == n + 6
        assert len(g.edges) == n + 5
        report = validate(g)
        assert report.all_ok, n
        assert report.offending_vertices == ()


def test_validate_flags_reduced_cycle_violation():
    g = parse_plumbing("v 0 -2\nv 1 -1\nv 2 -2\ne 0 1\ne 1 2\n")
    report = validate(g)
    assert not report.reduced_fundamental_cycle
    assert 1 in report.offending_vertices
    assert not report.all_ok


def test_validate_flags_indefinite_form():
    # A -1 chain of length 2 is only semidefinite.
    g = parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n")
    report = validate(g)
    assert report.is_tree
    assert report.reduced_fundamental_cycle
    assert report.negative_definite is False
    assert report.offending_vertices == (0,)


def test_validate_flags_disconnected_graph():
    g = PlumbingGraph(vertices=((0, -2), (1, -2), (2, -2)), edges=((1, 2),))
    report = validate(g)
    assert not report.is_tree
    assert set(report.offending_vertices) >= {1, 2}


def test_validate_flags_cycle():
    # With a cycle, the offenders are the endpoints of the first edge (in
    # sorted order) off the breadth-first tree from the lowest id, so its
    # removal leaves the graph connected; in a forest, the vertices outside
    # the component of the lowest id.
    g = PlumbingGraph(
        vertices=((0, -3), (1, -3), (2, -3)),
        edges=((0, 1), (1, 2), (0, 2)))
    report = validate(g)
    assert not report.is_tree
    assert report.offending_vertices == (1, 2)

    tailed = PlumbingGraph(
        vertices=((0, -3), (1, -3), (2, -3), (3, -3)),
        edges=((0, 1), (1, 2), (2, 3), (1, 3)))
    report = validate(tailed)
    assert not report.is_tree
    assert report.offending_vertices == (2, 3)

    forest = PlumbingGraph(vertices=((0, -2), (1, -2), (2, -2)), edges=((1, 2),))
    assert validate(forest).offending_vertices == (1, 2)


def test_validate_positive_framing():
    g = parse_plumbing("v 0 2\n")
    report = validate(g)
    assert not report.negative_definite
    assert not report.all_ok


def test_single_minus_one_vertex_is_valid():
    report = validate(parse_plumbing("v 0 -1\n"))
    assert report.all_ok


def test_validate_reports_the_form_and_its_determinant():
    # Trees on 1..6 vertices with framings in [-6, 2], definite or not.
    rng = random.Random(20261101)
    definite = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        g = PlumbingGraph(
            vertices=tuple((v, rng.randint(-6, 2)) for v in range(n)),
            edges=tuple((rng.randrange(v), v) for v in range(1, n)))
        report = validate(g)
        rows = [list(r) for r in gram_matrix(g).entries]
        if nd_by_minors(rows):
            assert report.determinant == leibniz_det(rows)
            definite += 1
        else:
            assert report.determinant is None
        assert report.negative_definite == (report.determinant is not None)
    assert 10 <= definite <= 140


@st.composite
def plumbing_trees(draw, max_framing=2):
    """Trees on 1..14 vertices with framings in [-7, max_framing], definite
    or not, numbered so that vertex 0 (validate's root) is anywhere."""
    n = draw(st.integers(1, 14))
    ids = draw(st.permutations(range(n)))
    edges = tuple((ids[draw(st.integers(0, v - 1))], ids[v]) for v in range(1, n))
    vertices = tuple((v, draw(st.integers(-7, max_framing))) for v in range(n))
    return PlumbingGraph(vertices=vertices, edges=edges)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(plumbing_trees())
def test_property_tree_elimination_matches_bareiss(g):
    report = validate(g)
    q = gram_matrix(g)
    minors: list[int] = []
    definite = intlin.first_sylvester_violation(q, minors) is None
    assert report.negative_definite == definite
    assert report.determinant == (minors[-1] if definite else None)
    if definite and q.rank <= 6:
        assert report.determinant == leibniz_det([list(r) for r in q.entries])


def _subtree(g: PlumbingGraph, top: int) -> PlumbingGraph:
    """The subtree of ``top`` under the walk from the lowest id."""
    parent, order = rooted_tree(g, g.ids()[0])
    below = {top}
    for v in order:  # each vertex comes after its parent
        if parent[v] in below:
            below.add(v)
    return PlumbingGraph(vertices=tuple(x for x in g.vertices if x[0] in below),
                         edges=tuple(e for e in g.edges if below.issuperset(e)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(plumbing_trees())
def test_property_indefinite_tree_names_the_lowest_failing_subtree(g):
    # With the reduced-cycle bound met, the one offender of an indefinite
    # tree roots, under the walk from the lowest id, a subtree that is not
    # negative definite, and each of its children's subtrees is.
    report = validate(g)
    if report.negative_definite or not report.reduced_fundamental_cycle:
        return
    (top,) = report.offending_vertices
    parent, _ = rooted_tree(g, g.ids()[0])
    assert intlin.first_sylvester_violation(gram_matrix(_subtree(g, top))) is not None
    for child in (v for v, p in parent.items() if p == top):
        assert intlin.first_sylvester_violation(gram_matrix(_subtree(g, child))) is None


def test_validate_names_an_edge_on_a_cycle():
    # Random connected graphs with 1..4 edges beyond a spanning tree, and
    # |framing| >= valency, so the named edge is the only offence.
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randint(3, 12)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < min(n - 1 + rng.randint(1, 4), n * (n - 1) // 2):
            a, b = sorted(rng.sample(range(n), 2))
            edges.add((a, b))
        valency = [sum(v in e for e in edges) for v in range(n)]
        g = PlumbingGraph(vertices=tuple((v, -valency[v] - rng.randint(0, 2)) for v in range(n)),
                          edges=tuple(edges))
        report = validate(g)
        assert not report.is_tree and not report.all_ok
        assert report.determinant is None and report.negative_definite is None
        edge = report.offending_vertices
        assert edge in g.edges
        assert report.describe() == "not a tree (vertices %s)" % list(edge)
        rest = PlumbingGraph(vertices=g.vertices, edges=tuple(e for e in g.edges if e != edge))
        assert len(rooted_tree(rest, 0)[1]) == n


def test_validate_determinant_follows_definiteness_not_tree_ness():
    assert validate(parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n")).determinant is None
    forest = validate(PlumbingGraph(vertices=((0, -2), (1, -2), (2, -2)), edges=((1, 2),)))
    # A graph that is not a tree has no decided form.
    assert not forest.is_tree
    assert forest.determinant is None and forest.negative_definite is None
    for g in (CHAIN3, parse_plumbing("v 0 -4\nv 1 -2\nv 2 -2\nv 3 -3\ne 0 1\ne 0 2\ne 0 3\n")):
        report = validate(g)
        assert report.determinant == leibniz_det([list(r) for r in gram_matrix(g).entries])


def test_validation_report_describe():
    good = validate(CHAIN3)
    assert good.describe() == "ok"
    bad = validate(parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n"))
    assert "not negative definite" in bad.describe()


def test_gram_negative_definiteness_matches_oracle():
    rng = random.Random(1003)
    for _ in range(50):
        g = random_valid_tree(rng, max_vertices=6)
        rows = [list(r) for r in gram_matrix(g).entries]
        assert nd_by_minors(rows)


def test_generate_gamma_n_structure():
    g = generate_gamma_n(7)
    assert len(g.ids()) == 13
    assert g.framing_map()[2] == -8
    assert g.framing_map()[12] == -2
    assert (11, 12) in g.edges
    adj = g.adjacency()
    assert len(adj[2]) == 3 and len(adj[3]) == 3
    with pytest.raises(ValueError):
        generate_gamma_n(1)


def test_generate_gamma_2_has_single_chain_vertex():
    g = generate_gamma_n(2)
    assert g.ids() == tuple(range(8))
    assert g.adjacency()[7] == [6]
    assert g.framing_map()[2] == -3


def test_vertex_distance():
    g = generate_gamma_n(7)
    parent, order = rooted_tree(g, 2)
    depth = tree_distances(g, 2)
    assert order[0] == 2 and parent[2] is None
    assert depth[2] == 0
    assert depth[0] == 2
    assert depth[12] == 7
    assert tree_distances(g, 0)[4] == 4
    assert all(depth[parent[v]] == depth[v] - 1 for v in order[1:])
    assert all(order.index(parent[v]) < order.index(v) for v in order[1:])
    with pytest.raises(KeyError):
        rooted_tree(g, 99)
    # A walk reaches only its own component.
    disconnected = PlumbingGraph(vertices=((0, -2), (1, -2)), edges=())
    assert rooted_tree(disconnected, 0) == ({0: None}, [0])


def test_vertex_distance_is_additive_along_tree_paths():
    # In a tree the unique path through any intermediate vertex makes
    # the triangle inequality an equality.
    g = generate_gamma_n(5)
    ids = g.ids()
    dist = {a: tree_distances(g, a) for a in ids}
    for a in ids:
        for c in ids:
            whole = dist[a][c]
            assert whole == dist[c][a]
            hits = [b for b in ids if dist[a][b] + dist[b][c] == whole]
            assert len(hits) == whole + 1


def test_graph_wu_classes_match_the_dense_solver():
    # Every class, in the same order, as wu_classes on the V x V form, on
    # trees, forests and graphs with cycles, with ids that skip values.
    rng = random.Random(5)
    shapes = set()
    for _ in range(1000):
        n = rng.randint(1, 9)
        ids = sorted(rng.sample(range(3 * n), n))
        edges = {(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.3}
        g = PlumbingGraph(vertices=tuple((v, rng.randint(-5, 2)) for v in ids),
                          edges=tuple(edges))
        shapes.add((len(edges) < n - 1, len(edges) > n - 1))
        assert graph_wu_classes(g) == intlin.wu_classes(gram_matrix(g)), serialize_plumbing(g)
    assert shapes == {(False, False), (True, False), (False, True)}
