"""Acceptance gate: one test and one printed verdict line per criterion.

Heavy computations are shared through module-scoped fixtures so the whole
gate stays fast; every embeddable verdict produced here lands in a
registry that the witness-soundness criterion re-checks independently.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from oracles import naive_embed_oracle, random_valid_tree
from plumbcap.dualcap import build_dual, choose_root, string_counts
from plumbcap.embedder import embed_diagonal, verify_witness
from plumbcap.intlin import (
    GramMatrix,
    determinant,
    first_sylvester_violation,
    mu_bar,
    wu_classes,
)
from plumbcap.openbook import build_open_book
from plumbcap.pipeline import INCONCLUSIVE, OBSTRUCTED, qhd_obstruction
from plumbcap.plumbing import generate_gamma_n, gram_matrix, parse_plumbing

FIXTURE_PATH = Path(__file__).parent / "data" / "gamma_family_verdicts.json"

WITNESS_REGISTRY = []  # (GramMatrix, witness) for every embeddable verdict


def note(line):
    print(line)


@pytest.fixture(scope="module")
def family_runs():
    """Full embedding search at the canonical root for n = 2..9."""
    runs = {}
    for n in range(2, 10):
        graph = generate_gamma_n(n)
        root = choose_root(graph)
        dual = build_dual(graph, root)
        started = time.monotonic()
        outcome = embed_diagonal(dual.gram, dual.gram.rank, None)
        elapsed = time.monotonic() - started
        if outcome.embeddable:
            WITNESS_REGISTRY.append((dual.gram, outcome.witness))
        runs[n] = (root, dual, outcome, elapsed)
    return runs


@pytest.fixture(scope="module")
def oracle_sweep():
    """Search-vs-enumeration comparisons for criterion 5."""
    comparisons = []

    def compare(rows, r):
        q_rows = [list(row) for row in rows]
        q = GramMatrix.from_rows(q_rows)
        mine = embed_diagonal(q, r, None)
        ref = naive_embed_oracle(q, r)
        if mine.embeddable:
            WITNESS_REGISTRY.append((q, mine.witness))
        comparisons.append((q_rows, r, mine.embeddable, ref.embeddable))

    span = range(-4, 2)
    candidates = [[]]
    candidates += [[[a]] for a in span]
    candidates += [[[a, c], [c, b]]
                   for a in span for b in span for c in span]
    for rows in candidates:
        if first_sylvester_violation(GramMatrix.from_rows(rows)) is not None:
            continue
        for r in range(4):
            compare(rows, r)

    rng = random.Random(31415)
    sampled = 0
    while sampled < 200:
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            rows[i][i] = -rng.randint(1, 4)
        for i, j in itertools.combinations(range(3), 2):
            rows[i][j] = rows[j][i] = rng.randint(-4, 1)
        if first_sylvester_violation(GramMatrix.from_rows(rows)) is not None:
            continue
        compare(rows, rng.randint(0, 3))
        sampled += 1
    return comparisons


@pytest.fixture(scope="module")
def small_graph_reports():
    reports = {}
    for name, text in (("-2", "v 0 -2\n"), ("-4", "v 0 -4\n")):
        started = time.monotonic()
        report = qhd_obstruction(parse_plumbing(text))
        elapsed = time.monotonic() - started
        outcome = report.results[0].outcome
        if outcome.embeddable:
            gram = build_dual(parse_plumbing(text), 0).gram
            WITNESS_REGISTRY.append((gram, outcome.witness))
        reports[name] = (report, elapsed)
    return reports


def test_criterion_1_family_obstruction_n7_to_n9(family_runs):
    for n, limit in ((7, 600.0), (8, 1800.0), (9, 1800.0)):
        root, dual, outcome, elapsed = family_runs[n]
        assert dual.gram.rank == n + 7, n
        assert outcome.completed, n
        assert outcome.embeddable is False, n
        assert elapsed < limit, (n, elapsed)
    report = qhd_obstruction(generate_gamma_n(7))
    assert report.verdict == OBSTRUCTED
    assert report.dual_rank == 14
    times = ", ".join("n=%d %.2fs" % (n, family_runs[n][3]) for n in (7, 8, 9))
    note("criterion 1 PASS: n=7,8,9 obstructed at rank n+7 (%s)" % times)


def test_criterion_2_quoted_dual_entries(family_runs):
    _, dual, _, _ = family_runs[7]
    q = dual.gram
    root_strings = [i for i, u in enumerate(dual.owners) if u == 2]
    assert len(root_strings) == 4  # n - 3 for n = 7
    for i, j in itertools.combinations(root_strings, 2):
        assert q.entries[i][i] == -2
        assert q.entries[j][j] == -2
        assert q.entries[i][j] == -1
    pair = [i for i, u in enumerate(dual.owners) if u == 6]
    assert [q.entries[i][i] for i in pair] == [-3, -3]
    assert q.entries[pair[0]][pair[1]] == -2
    deep = [i for i in range(q.rank) if q.entries[i][i] == -4]
    assert len(deep) == 7
    for i in deep:
        assert any(q.entries[i][j] == -3 for j in deep if j != i)
    note("criterion 2 PASS: quoted -2/-1, -3/-2 and seven -4/-3 entries all present")


def test_criterion_3_determinant_parity():
    for n in range(2, 13):
        det = determinant(gram_matrix(generate_gamma_n(n)))
        assert det % 2 == n % 2, (n, det)
    note("criterion 3 PASS: det parity matches n for n = 2..12")


def test_criterion_4_wu_class_and_mu_bar():
    for n in (7, 9, 11):
        q = gram_matrix(generate_gamma_n(n))
        classes = wu_classes(q)
        assert len(classes) == 1, n
        support = {int(q.labels[i]) for i, bit in enumerate(classes[0]) if bit}
        assert support == {3, 6} | set(range(8, n + 6, 2)), n
        assert mu_bar(q) == 0, n
    note("criterion 4 PASS: odd n in {7,9,11} have the expected Wu support and mu-bar 0")


def test_criterion_5_oracle_equivalence(oracle_sweep):
    disagreements = [(rows, r) for rows, r, mine, ref in oracle_sweep
                     if mine != ref]
    assert disagreements == []
    assert len(oracle_sweep) > 400
    note("criterion 5 PASS: %d search/enumeration comparisons, 0 disagreements"
         % len(oracle_sweep))


def test_criterion_7_small_graph_sanity(small_graph_reports):
    report, elapsed = small_graph_reports["-2"]
    assert report.verdict == OBSTRUCTED
    assert elapsed < 1.0
    report, elapsed = small_graph_reports["-4"]
    assert report.verdict == INCONCLUSIVE
    assert elapsed < 1.0
    outcome = report.results[0].outcome
    assert outcome.embeddable and len(outcome.witness[0]) == 3
    gram = build_dual(parse_plumbing("v 0 -4\n"), 0).gram
    assert verify_witness(gram, outcome.witness)
    note("criterion 7 PASS: -2 obstructed, -4 inconclusive with rank-3 witness, each < 1s")


def test_criterion_8_structural_invariants():
    rng = random.Random(60902)
    for index in range(500):
        graph = random_valid_tree(rng)
        counts = string_counts(graph)
        root = choose_root(graph)
        dual = build_dual(graph, root)
        assert dual.gram.rank == sum(counts.values()) - 1, index
        assert first_sylvester_violation(dual.gram) is None, index
        book = build_open_book(graph)
        assert len(book.holes) == dual.gram.rank + 1, index
    note("criterion 8 PASS: 500 random trees, rank/definiteness/hole-count invariants hold")


def test_criterion_9_family_discovery_fixture(family_runs):
    stored = json.loads(FIXTURE_PATH.read_text())
    assert sorted(stored) == [str(n) for n in range(2, 7)]
    for n in range(2, 7):
        root, dual, outcome, _ = family_runs[n]
        record = stored[str(n)]
        assert record["root"] == root, n
        assert record["rank"] == dual.gram.rank == n + 7, n
        assert record["embeddable"] == outcome.embeddable, n
        assert record["nodes"] == outcome.nodes, n
    verdicts = ", ".join(
        "n=%d %s" % (n, "embeds" if stored[str(n)]["embeddable"] else "no embedding")
        for n in range(2, 7))
    note("criterion 9 PASS: fixture stable (%s)" % verdicts)


def test_criterion_6_witness_soundness(family_runs, oracle_sweep, small_graph_reports):
    # embed_diagonal additionally re-checks every witness it returns with
    # verify_witness and raises RuntimeError on a mismatch (also under
    # python -O), so the guarantee extends to embeddable verdicts anywhere
    # in the suite; here the registry from the other criteria is checked
    # explicitly.
    assert len(WITNESS_REGISTRY) >= 40
    assert any(gram.rank >= 9 for gram, _ in WITNESS_REGISTRY)
    for gram, witness in WITNESS_REGISTRY:
        assert verify_witness(gram, witness)
    note("criterion 6 PASS: %d witnesses re-verified, 100%% sound"
         % len(WITNESS_REGISTRY))
