import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plumbcap
from oracles import dense_search, naive_embed_oracle, random_valid_tree
from plumbcap.dualcap import admissible_roots, build_dual, choose_root
from plumbcap.embedder import _search, _search_order, embed_diagonal, verify_witness
from plumbcap.intlin import GramMatrix, NotDefiniteError, first_sylvester_violation
from plumbcap.plumbing import generate_gamma_n, gram_matrix, parse_plumbing

A2 = GramMatrix.from_rows([[-2, 1], [1, -2]])
README = Path(__file__).resolve().parents[1] / "README.md"


def test_single_minus_one_embeds_in_its_own_rank():
    outcome = embed_diagonal(GramMatrix.from_rows([[-1]]), 1, None)
    assert outcome.embeddable is True
    assert outcome.witness == ((1,),)


def test_a2_needs_one_extra_dimension():
    assert embed_diagonal(A2, 2, None).embeddable is False
    outcome = embed_diagonal(A2, 3, None)
    assert outcome.embeddable is True
    assert verify_witness(A2, outcome.witness)


def test_verify_witness_accepts_textbook_a2_embedding():
    assert verify_witness(A2, [(1, -1, 0), (0, 1, -1)])
    # Right norms, wrong inner product.
    assert not verify_witness(A2, [(1, -1, 0), (1, 1, 0)])


def test_verify_witness_rejects_bad_shapes():
    with pytest.raises(ValueError):
        verify_witness(A2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        verify_witness(A2, [(1, 0), (1, 0, 0)])


def test_minus_four_embeds_from_rank_one_up():
    q = GramMatrix.from_rows([[-4]])
    assert embed_diagonal(q, 1, None).embeddable is True  # (2)
    outcome = embed_diagonal(q, 4, None)
    assert outcome.embeddable is True
    assert verify_witness(q, outcome.witness)


def test_rank_zero_and_rank_collapse_edges():
    empty = GramMatrix.from_rows([])
    outcome = embed_diagonal(empty, 0, None)
    assert outcome.embeddable is True and outcome.witness == ()
    assert embed_diagonal(empty, 3, None).embeddable is True
    assert embed_diagonal(GramMatrix.from_rows([[-2]]), 0, None).embeddable is False
    with pytest.raises(ValueError):
        embed_diagonal(empty, -1, None)


def test_rejects_indefinite_input():
    with pytest.raises(NotDefiniteError):
        embed_diagonal(GramMatrix.from_rows([[2]]), 1, None)
    with pytest.raises(NotDefiniteError):
        embed_diagonal(GramMatrix.from_rows([[-1, 1], [1, -1]]), 2, None)


def test_known_non_embedding_despite_matching_norms():
    # Rows would need norms 3 and 3 with inner product -2, but +-1
    # vectors in three coordinates pair oddly, so nothing works.
    q = GramMatrix.from_rows([[-3, 2], [2, -3]])
    for r in (2, 3):
        assert embed_diagonal(q, r, None).embeddable is False
        assert naive_embed_oracle(q, r).embeddable is False
    # One extra coordinate resolves it.
    assert embed_diagonal(q, 4, None).embeddable is True


def test_budget_interrupts_search():
    q = build_dual(generate_gamma_n(7), 2).gram
    outcome = embed_diagonal(q, q.rank, 1000)
    assert outcome.completed is False
    assert outcome.embeddable is None
    assert outcome.witness is None
    assert outcome.nodes == 1001

    with pytest.raises(TypeError):
        embed_diagonal(q, q.rank, "plenty")


def test_deep_search_does_not_recurse():
    # One position per coordinate: 1,200 of them, past the recursion limit.
    outcome = embed_diagonal(GramMatrix.from_rows([[-1]]), 1200, None)
    assert outcome.embeddable is True
    assert outcome.nodes == 1200
    assert outcome.witness == ((1,) + (0,) * 1199,)


def test_enumeration_order_is_pinned():
    # The gamma-2 witness README prints: rows in order, values high to low.
    q = build_dual(generate_gamma_n(2), 0).gram
    outcome = embed_diagonal(q, q.rank, None)
    assert outcome.nodes == 1153
    assert outcome.witness == (
        (0, 0, 1, 0, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 0, 0, 1),
        (2, 1, 1, 0, 0, 0, 0, 0, 0),
        (1, 2, 1, 0, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 1, 0, 0, 0),
        (1, 1, 1, 1, 1, 0, 1, 0, 0),
        (1, 1, 0, 1, 0, 0, 0, 1, 1),
        (1, 1, 0, 0, 1, 0, 0, 1, 1),
        (1, 1, 0, 0, 0, 1, 1, 1, 1),
    )


def single_vertex_dual(framing):
    g = parse_plumbing("v 0 %d\n" % framing)
    return build_dual(g, choose_root(g)).gram


@pytest.mark.parametrize("framing, embeddable, nodes, witness", [
    (-4, True, 17, ((1, 1, 0), (1, 0, 1), (0, 1, 1))),
    (-33, False, 2832, None),
    (-65, False, 10784, None),
    (-97, False, 23856, None),
])
def test_single_vertex_dual_node_counts(framing, embeddable, nodes, witness):
    # The coordinate walk kept as a reference: the counts the enumerator
    # had before twin rows, which test_twin_rows_keep_the_dense_witness
    # bounds the enumerator by.
    q = single_vertex_dual(framing)
    order, target = _search_order(q)
    rows, searched, completed = dense_search(target, q.rank, None)
    assert completed is True
    assert (rows is not None, searched) == (embeddable, nodes)
    if witness is not None:
        assert tuple(tuple(rows[order.index(i)]) for i in range(q.rank)) == witness


@pytest.mark.parametrize("framing, embeddable, nodes, witness", [
    (-4, True, 5, ((1, 1, 0), (1, 0, 1), (0, 1, 1))),
    (-33, False, 126, None),
    (-65, False, 254, None),
    (-97, False, 382, None),
])
def test_single_vertex_dual_twin_node_counts(framing, embeddable, nodes, witness):
    # The enumerator itself, on the target embed_diagonal would search.
    q = single_vertex_dual(framing)
    order, target = _search_order(q)
    rows, searched, completed = _search(target, q.rank, None)
    assert completed is True
    assert (rows is not None, searched) == (embeddable, nodes)
    if witness is not None:
        assert tuple(tuple(rows[order.index(i)]) for i in range(q.rank)) == witness


@pytest.mark.parametrize("framing, embeddable, nodes, witness, certificate", [
    (-4, True, 5, ((1, 1, 0), (1, 0, 1), (0, 1, 1)), None),
    (-33, False, 0, None, "determinant"),
    (-65, False, 0, None, "determinant"),
    (-97, False, 0, None, "determinant"),
])
def test_single_vertex_dual_outcomes(framing, embeddable, nodes, witness, certificate):
    q = single_vertex_dual(framing)
    outcome = embed_diagonal(q, q.rank, None)
    assert (outcome.embeddable, outcome.nodes, outcome.witness, outcome.certificate) == (
        embeddable, nodes, witness, certificate)


def test_certificates_decide_before_the_budget():
    q = build_dual(generate_gamma_n(7), 2).gram
    below = embed_diagonal(q, q.rank - 1, 0)
    assert (below.embeddable, below.nodes, below.certificate) == (False, 0, "rank")
    square = single_vertex_dual(-33)
    outcome = embed_diagonal(square, square.rank, 0)
    assert (outcome.embeddable, outcome.nodes, outcome.certificate,
            outcome.determinant) == (False, 0, "determinant", 33)
    # A square determinant leaves the decision to the search.
    assert embed_diagonal(q, q.rank, 0).completed is False


def test_determinant_certificate_never_contradicts_the_search():
    duals = [single_vertex_dual(-n) for n in range(1, 34, 2)]
    rng = random.Random(20261018)
    for _ in range(200):
        g = random_valid_tree(rng)
        for root in admissible_roots(g):
            q = build_dual(g, root).gram
            if q.rank <= 14:
                duals.append(q)
    fired = 0
    for q in duals:
        if embed_diagonal(q, q.rank, None).certificate is None:
            continue
        fired += 1
        order, target = _search_order(q)
        rows, _, completed = _search(target, q.rank, None)
        assert completed is True and rows is None, q.entries
    assert fired > len(duals) // 2


def test_twin_rows_keep_the_dense_witness():
    # Placing twin rows whole finds the coordinate walk's first witness,
    # the row-major lex-max embedding, through no more nodes.
    duals = [build_dual(generate_gamma_n(n), root).gram
             for n in range(2, 7) for root in admissible_roots(generate_gamma_n(n))]
    duals += [single_vertex_dual(-n) for n in range(2, 66)]
    # Two -2 leaves own one string each: rows equal outside the pair, but
    # pairing with each other to the norm minus two, so not twins.
    for n in range(3, 12):
        g = parse_plumbing("v 0 -%d\nv 1 -2\nv 2 -2\ne 0 1\ne 0 2\n" % n)
        duals += [build_dual(g, root).gram for root in admissible_roots(g)]
    rng = random.Random(20261022)
    for _ in range(100):
        g = random_valid_tree(rng, max_vertices=6)
        duals += [build_dual(g, root).gram for root in admissible_roots(g)]
    saved = 0
    for q in filter(lambda q: q.rank, duals):
        order, target = _search_order(q)
        rows, dense_nodes, completed = dense_search(target, q.rank, None)
        assert completed is True
        outcome = embed_diagonal(q, q.rank, None)
        witness = rows and tuple(tuple(rows[order.index(i)]) for i in range(q.rank))
        assert outcome.witness == witness, q.entries
        nodes = outcome.nodes
        if outcome.certificate is not None:
            # The search itself, which the certificate skipped.
            mine, nodes, completed = _search(target, q.rank, None)
            assert (mine, completed) == (None, True), q.entries
        assert nodes <= dense_nodes, q.entries
        saved += dense_nodes - nodes
    assert saved > 0


def test_deterministic_node_counts():
    q = build_dual(generate_gamma_n(3), 0).gram
    first = embed_diagonal(q, q.rank, None)
    second = embed_diagonal(q, q.rank, None)
    assert first.nodes == second.nodes
    assert first.embeddable == second.embeddable


def test_outcome_json_shape():
    outcome = embed_diagonal(A2, 3, None)
    doc = outcome.to_json_dict()
    assert set(doc) == {"embeddable", "witness", "nodes", "millis", "completed"}
    assert doc["embeddable"] is True
    assert doc["completed"] is True
    assert len(doc["witness"]) == 2
    trimmed = outcome.to_json_dict(include_timings=False)
    assert "millis" not in trimmed

    failed = embed_diagonal(A2, 2, None)
    doc = failed.to_json_dict()
    assert doc["embeddable"] is False
    assert "witness" not in doc
    assert doc["certificate"] == "determinant" and doc["determinant"] == 3

    undecided = embed_diagonal(
        build_dual(generate_gamma_n(7), 2).gram, 14, 10)
    doc = undecided.to_json_dict()
    assert doc["embeddable"] is None and doc["completed"] is False


def test_readme_names_every_outcome_key():
    text = README.read_text()
    start = text.index("Embedding outcomes are JSON objects")
    paragraph = text[start:text.index("\n\n", start)]
    gamma_7 = build_dual(generate_gamma_n(7), 2).gram
    cases = {
        "witness": embed_diagonal(A2, 3, None),
        "no witness": embed_diagonal(GramMatrix.from_rows([[-3, 2], [2, -3]]), 3, None),
        "undecided": embed_diagonal(gamma_7, 14, 10),
        "determinant": embed_diagonal(A2, 2, None),
        "rank": embed_diagonal(A2, 1, None),
    }
    assert [o.embeddable for o in cases.values()] == [True, False, None, False, False]
    assert [o.certificate for o in cases.values()] == [None, None, None, "determinant", "rank"]
    keys = set()
    for outcome in cases.values():
        for timings in (True, False):
            keys |= set(outcome.to_json_dict(include_timings=timings))
    assert {"witness", "millis", "certificate", "determinant"} <= keys
    assert sorted(k for k in keys if "`%s`" % k not in paragraph) == []


def test_witness_check_survives_optimized_python():
    # Under -O an assert would vanish and a bad witness would be returned.
    script = (
        "import plumbcap.embedder as e\n"
        "from plumbcap.intlin import GramMatrix\n"
        "e.verify_witness = lambda q, m: False\n"
        "print(e.embed_diagonal(GramMatrix.from_rows([[-1]]), 1, None))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode != 0, proc.stdout
    assert "RuntimeError" in proc.stderr


def test_oracle_guards():
    big = GramMatrix.from_rows([[-1 if i == j else 0 for j in range(5)]
                                for i in range(5)])
    with pytest.raises(ValueError):
        naive_embed_oracle(big, 3)
    with pytest.raises(ValueError):
        naive_embed_oracle(A2, 5)
    with pytest.raises(ValueError):
        naive_embed_oracle(GramMatrix.from_rows([[-7]]), 2)


def test_matches_oracle_on_rank_two_grid():
    for a, b in itertools.product(range(-4, 0), repeat=2):
        for c in range(-4, 2):
            q_rows = [[a, c], [c, b]]
            q = GramMatrix.from_rows(q_rows)
            if first_sylvester_violation(q) is not None:
                continue
            for r in range(4):
                mine = embed_diagonal(q, r, None)
                ref = naive_embed_oracle(q, r)
                assert mine.embeddable == ref.embeddable, (q_rows, r)
                if mine.embeddable:
                    assert verify_witness(q, mine.witness)


def test_matches_oracle_on_random_rank_three_forms():
    rng = random.Random(31337)
    seen = 0
    while seen < 120:
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            rows[i][i] = -rng.randint(1, 4)
        for i in range(3):
            for j in range(i + 1, 3):
                rows[i][j] = rows[j][i] = rng.randint(-4, 1)
        q = GramMatrix.from_rows(rows)
        if first_sylvester_violation(q) is not None:
            continue
        r = rng.randint(0, 3)
        mine = embed_diagonal(q, r, None)
        ref = naive_embed_oracle(q, r)
        assert mine.embeddable == ref.embeddable, (rows, r)
        seen += 1


def test_embeddability_is_monotone_in_rank():
    rng = random.Random(2718)
    for _ in range(40):
        rows = [[0] * 2 for _ in range(2)]
        for i in range(2):
            rows[i][i] = -rng.randint(1, 5)
        rows[0][1] = rows[1][0] = rng.randint(-3, 3)
        q = GramMatrix.from_rows(rows)
        if first_sylvester_violation(q) is not None:
            continue
        previous = False
        for r in range(0, 6):
            now = embed_diagonal(q, r, None).embeddable
            assert not (previous and not now), (rows, r)
            previous = now


def test_invariance_under_signed_permutation():
    rng = random.Random(1618)
    base = build_dual(generate_gamma_n(2), 0).gram
    n = base.rank
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        sign = [rng.choice((-1, 1)) for _ in range(n)]
        rows = [[sign[i] * sign[j] * base.entries[perm[i]][perm[j]]
                 for j in range(n)] for i in range(n)]
        q = GramMatrix.from_rows(rows)
        outcome = embed_diagonal(q, n, None)
        assert outcome.embeddable is True
        assert verify_witness(q, outcome.witness)


def test_whole_cap_diagonalizes_with_the_tree():
    # Capping the tree with its dual yields a closed negative definite
    # form, so both pieces embed once the rank is the sum of the two.
    def both_sides_embed(g):
        dual = build_dual(g, admissible_roots(g)[0])
        total = len(g.ids()) + dual.gram.rank
        assert embed_diagonal(gram_matrix(g), total, None).embeddable is True
        assert embed_diagonal(dual.gram, total, None).embeddable is True

    both_sides_embed(parse_plumbing("v 0 -2\n"))
    both_sides_embed(parse_plumbing("v 0 -4\n"))
    rng = random.Random(3141)
    done = 0
    while done < 12:
        g = random_valid_tree(rng, max_vertices=5)
        dual = build_dual(g, admissible_roots(g)[0])
        if dual.gram.rank > 7:
            continue
        both_sides_embed(g)
        done += 1


@st.composite
def small_definite_forms(draw):
    """Negative definite forms within the oracle's guards."""
    n = draw(st.integers(0, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -draw(st.integers(1, 6))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    q = GramMatrix.from_rows(rows)
    assume(first_sylvester_violation(q) is None)
    return q


@settings(derandomize=True, deadline=None)
@given(small_definite_forms(), st.integers(0, 4))
def test_property_matches_oracle(q, r):
    mine = embed_diagonal(q, r, None)
    assert mine.completed is True
    assert mine.embeddable == naive_embed_oracle(q, r).embeddable
    if mine.embeddable:
        assert verify_witness(q, mine.witness)


@st.composite
def forms_with_a_twin_pair(draw):
    """Negative definite forms within the oracle's guards in which row
    a + 1 repeats row a, pairing with it to the norm minus one: a twin."""
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -draw(st.integers(1, 6))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    a = draw(st.integers(0, n - 1))
    rows = [row[:a + 1] + row[a:] for row in rows]
    rows.insert(a + 1, list(rows[a]))
    rows[a][a + 1] = rows[a + 1][a] = rows[a][a] + 1
    q = GramMatrix.from_rows(rows)
    assume(first_sylvester_violation(q) is None)
    return q


@settings(derandomize=True, deadline=None)
@given(forms_with_a_twin_pair(), st.data())
def test_property_twin_pairs_match_oracle(q, data):
    r = data.draw(st.integers(q.rank, 4))
    mine = embed_diagonal(q, r, None)
    assert mine.completed is True
    assert mine.embeddable == naive_embed_oracle(q, r).embeddable
    if mine.embeddable:
        assert verify_witness(q, mine.witness)


@settings(derandomize=True, deadline=None)
@given(small_definite_forms(), st.integers(0, 4), st.data())
def test_property_node_budget_stops_one_past_the_limit(q, r, data):
    full = embed_diagonal(q, r, None).nodes
    assume(full > 0)
    k = data.draw(st.integers(0, full - 1))
    outcome = embed_diagonal(q, r, k)
    assert outcome.completed is False
    assert outcome.embeddable is None
    assert outcome.nodes == k + 1
