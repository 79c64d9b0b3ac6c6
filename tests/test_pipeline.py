import random
import time
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import given, settings

from test_plumbing import plumbing_trees
from oracles import (
    d_allows_rational_ball,
    distance_model_dual_gram,
    lens_d,
    plumbing_lattice_embeds,
    random_valid_tree,
    search_every_root,
)

import plumbcap.intlin
import plumbcap.pipeline
import plumbcap.plumbing
from plumbcap.cli import cli_main
from plumbcap.dualcap import choose_root
from plumbcap.embedder import verify_witness
from plumbcap.intlin import GramMatrix, mu_bar, wu_classes
from plumbcap.pipeline import (
    INCONCLUSIVE,
    OBSTRUCTED,
    UNDECIDED,
    RootResult,
    qhd_obstruction,
    render_report,
)
from plumbcap.plumbing import (
    PlumbingGraph,
    ValidationFailure,
    generate_gamma_n,
    gram_matrix,
    parse_plumbing,
    serialize_plumbing,
    tree_wu_class,
    validate,
)

SINGLE_2 = "v 0 -2\n"
SINGLE_4 = "v 0 -4\n"


def test_single_minus_two_is_obstructed():
    report = qhd_obstruction(parse_plumbing(SINGLE_2))
    assert report.verdict == OBSTRUCTED
    assert report.dual_rank == 1
    assert report.validation.determinant == -2
    assert report.results[0].root == 0
    assert report.results[0].outcome.completed
    assert report.wu_support is None and report.mu_bar is None  # even det


def test_single_minus_four_is_inconclusive_with_witness():
    report = qhd_obstruction(parse_plumbing(SINGLE_4))
    assert report.verdict == INCONCLUSIVE
    assert report.dual_rank == 3
    outcome = report.results[0].outcome
    assert outcome.embeddable is True
    dual_gram_rows = [[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]]
    assert verify_witness(GramMatrix.from_rows(dual_gram_rows), outcome.witness)


def test_single_minus_three_carries_wu_data():
    report = qhd_obstruction(parse_plumbing("v 0 -3\n"))
    assert report.validation.determinant == -3
    assert report.wu_support == (0,)
    assert report.mu_bar == 2
    assert report.verdict == OBSTRUCTED


def test_rejects_invalid_graph():
    with pytest.raises(ValidationFailure) as info:
        qhd_obstruction(parse_plumbing("v 0 -1\nv 1 -1\ne 0 1\n"))
    assert not info.value.report.negative_definite


def test_explicit_root_is_used():
    report = qhd_obstruction(parse_plumbing("v 0 -3\nv 1 -3\ne 0 1\n"), root=1)
    assert [r.root for r in report.results] == [1]


def test_all_roots_runs_every_admissible_root():
    g = generate_gamma_n(2)
    report = qhd_obstruction(g, all_roots=True, budget=4000)
    assert [r.root for r in report.results] == [0, 4, 5, 6, 7]
    assert report.dual_rank == 9


def test_obstruct_never_scans_a_dual(monkeypatch):
    # Every dual is definite with the tree's |det| by construction, and
    # every tree, accepted or refused, is decided by leaves-first
    # elimination, so no Sylvester scan runs.
    scanned = []
    scan = plumbcap.intlin.first_sylvester_violation

    def recording(q, *args, **kwargs):
        scanned.append(q.rank)
        return scan(q, *args, **kwargs)

    monkeypatch.setattr(plumbcap.intlin, "first_sylvester_violation", recording)
    for g in (generate_gamma_n(5), parse_plumbing("v 0 -33\n")):
        scanned.clear()
        report = qhd_obstruction(g, all_roots=True)
        assert report.dual_rank != len(g.vertices)
        assert scanned == []
    refused = parse_plumbing("v 0 -2\nv 1 -1\nv 2 -2\ne 0 1\ne 1 2\n")
    with pytest.raises(ValidationFailure):
        qhd_obstruction(refused)
    assert scanned == []


@settings(derandomize=True, deadline=None, max_examples=400)
@given(plumbing_trees(max_framing=-1))
def test_property_tree_wu_class_matches_dense_solver(g):
    report = validate(g)
    if not report.negative_definite:
        return
    if report.determinant % 2 == 0:
        with pytest.raises(ValueError):
            tree_wu_class(g)
        return
    q = gram_matrix(g)
    (unique,) = wu_classes(q)
    expected = (tuple(v for v, bit in zip(g.ids(), unique) if bit), mu_bar(q))
    assert tree_wu_class(g) == expected
    if report.all_ok:
        obstruction = qhd_obstruction(g, budget=1)
        assert (obstruction.wu_support, obstruction.mu_bar) == expected
    # Both callers share one solver, so check the class against the graph:
    # every vertex equation e_v w_v + sum of w_u over u ~ v = e_v mod 2,
    # and mu-bar = -V - w^T Q w.
    support, mu = expected
    w = {v: int(v in support) for v in g.ids()}
    adj = g.adjacency()
    assert all((e * w[v] + sum(w[u] for u in adj[v]) - e) % 2 == 0 for v, e in g.vertices)
    x = [w[v] for v in g.ids()]
    assert mu == -len(x) - sum(x[i] * q.entries[i][j] * x[j]
                               for i in range(len(x)) for j in range(len(x)))


def _chain(framings):
    return PlumbingGraph(vertices=tuple(enumerate(framings)),
                         edges=tuple((v, v + 1) for v in range(len(framings) - 1)))


@pytest.mark.parametrize("g, support, mu", [
    (_chain([-2] * 2048), (), -2048),
    (_chain([-3] * 2047), tuple(range(0, 2047, 3)), 2),
    (PlumbingGraph(vertices=((0, -2050),) + tuple((v, -3) for v in range(1, 2048)),
                   edges=tuple((0, v) for v in range(1, 2048))), (0,), 2),
], ids=["chain of -2s", "chain of -3s", "star"])
def test_tree_wu_class_at_the_vertex_bound(g, support, mu):
    assert tree_wu_class(g) == (support, mu)


def test_obstruct_refuses_an_over_large_dual_rank_before_validating(monkeypatch):
    # string_counts bounds the dual rank in O(V + E), before validate's
    # elimination, whose numbers grow with the framings' digits.
    def refuse(g):
        raise AssertionError("validate ran")

    monkeypatch.setattr(plumbcap.pipeline, "validate", refuse)
    with pytest.raises(ValueError, match="dual rank 99999999999999999999 exceeds the bound 4096"):
        qhd_obstruction(parse_plumbing("v 0 -100000000000000000000\n"))


def test_long_chain_obstructs_without_a_dense_form(tmp_path, monkeypatch, capsys):
    # The chain (-3, 798 x -2, -3): its tree form is decided by elimination,
    # never built as an 800 x 800 matrix or scanned.
    called = []
    for module, name in ((plumbcap.intlin, "first_sylvester_violation"),
                         (plumbcap.plumbing, "gram_matrix"),
                         (plumbcap.pipeline, "gram_matrix")):
        monkeypatch.setattr(module, name, lambda *args, _name=name: called.append(_name))
    framings = [-3] + [-2] * 798 + [-3]
    chain = PlumbingGraph(vertices=tuple(enumerate(framings)),
                          edges=tuple((v, v + 1) for v in range(799)))
    path = tmp_path / "chain.txt"
    path.write_text(serialize_plumbing(chain))
    code = cli_main(["obstruct", str(path), "--all-roots", "--no-timings"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "intersection form determinant: 3200\n" in out
    assert called == []


def test_budget_exhaustion_is_undecided():
    g = generate_gamma_n(7)
    report = qhd_obstruction(g, budget=10)
    assert report.verdict == UNDECIDED
    assert report.results[0].outcome.completed is False


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="node budget must be nonnegative"):
        qhd_obstruction(generate_gamma_n(3), budget=-1)


def test_gamma_7_report():
    report = qhd_obstruction(generate_gamma_n(7))
    assert report.verdict == OBSTRUCTED
    assert report.dual_rank == 14
    assert report.validation.determinant == -21609
    assert report.wu_support == (3, 6, 8, 10, 12)
    assert report.mu_bar == 0
    assert len(report.graph.vertices) == 13 and len(report.graph.edges) == 12


def test_gamma_n_is_obstructed_in_15n_plus_208_nodes_up_to_500():
    # An observation over the pinned range, not a theorem.  Through the
    # pipeline, which hands the search det Q from validate: a bare
    # embed_diagonal runs its own O(r^3) Sylvester scan first.
    found = {}
    for n in [*range(7, 61), 100, 200, 500]:
        report = qhd_obstruction(generate_gamma_n(n))
        found[n] = (report.verdict, report.results[0].outcome.nodes)
    assert found == {n: (OBSTRUCTED, 15 * n + 208) for n in found}


def test_report_json_shape_and_timing_toggle():
    report = qhd_obstruction(parse_plumbing(SINGLE_4))
    doc = report.to_json_dict()
    assert doc["graph"] == {"vertices": 1, "edges": 0, "framings": [[0, -4]]}
    assert doc["validation"]["is_tree"] is True
    assert doc["dual_rank"] == 3
    assert doc["verdict"] == INCONCLUSIVE
    assert "total_millis" in doc
    assert "millis" in doc["roots"][0]["outcome"]
    assert "wu_support" not in doc

    bare = report.to_json_dict(include_timings=False)
    assert "total_millis" not in bare
    assert "millis" not in bare["roots"][0]["outcome"]


def test_total_millis_counts_validation(monkeypatch):
    validate = plumbcap.pipeline.validate

    def slow_validate(graph):
        time.sleep(0.05)
        return validate(graph)

    monkeypatch.setattr(plumbcap.pipeline, "validate", slow_validate)
    assert qhd_obstruction(parse_plumbing(SINGLE_4)).total_millis >= 50


def test_render_report_text():
    report = qhd_obstruction(parse_plumbing(SINGLE_2))
    text = render_report(report)
    assert "graph: 1 vertices, 0 edges" in text
    assert "no embedding into <-1>^1" in text
    assert "verdict: obstructed" in text
    timeless = render_report(report, include_timings=False)
    assert " ms" not in timeless


def hirzebruch_jung_chain(p: int, q: int) -> PlumbingGraph:
    """The linear plumbing bounded by L(p, q): framings -a_i from the
    continued fraction p/q = a_1 - 1/(a_2 - 1/(...)), every a_i >= 2."""
    framings = []
    while q:
        a = -(-p // q)
        framings.append(-a)
        p, q = q, a * q - p
    return PlumbingGraph(
        vertices=tuple(enumerate(framings)),
        edges=tuple((i, i + 1) for i in range(len(framings) - 1)))


def lisca_family(m_max: int) -> list[tuple[int, int]]:
    """Lisca's (Geom. Topol. 11, 2007) lens spaces L(p, q) with p = m^2,
    m < m_max, that bound rational balls, as recalled: 0 < q < p with
    q = mk - 1, gcd(m, k) = 1; q = d(m + 1), d > 1 dividing 2m - 1;
    q = d(m - 1), d > 1 dividing 2m + 1; q = d(m +- 1), d > 1 odd dividing
    m +- 1.  Closed under q -> q^-1 mod p (the same space) and q -> p - q
    (its mirror)."""
    found = set()
    for m in range(2, m_max):
        p = m * m
        found.update((p, m * k - 1) for k in range(1, m) if gcd(m, k) == 1)
        for s in (1, -1):
            ds = [d for d in range(2, 2 * m - s + 1) if (2 * m - s) % d == 0]
            ds += [d for d in range(3, m + s + 1, 2) if (m + s) % d == 0]
            found.update((p, d * (m + s)) for d in ds if d * (m + s) < p)
    while True:
        closed = (found | {(p, pow(q, -1, p)) for p, q in found}
                  | {(p, p - q) for p, q in found})
        if closed == found:
            return sorted(found)
        found = closed


def test_all_roots_carries_the_canonical_search_to_every_root():
    """``--all-roots`` against the old loop, a search at every root: the
    same verdict at each root, every carried witness an embedding of that
    root's dual as tree distances give it, and the canonical root's
    search that of the default run."""
    graphs = square_lens_chains()
    rng = random.Random(31)
    while len(graphs) < 326 + 100:
        g = random_valid_tree(rng, 10)
        det = abs(validate(g).determinant)
        if isqrt(det) ** 2 == det:
            graphs.append(g)
    tally = {INCONCLUSIVE: 0, OBSTRUCTED: 0}
    for g in graphs:
        report = qhd_obstruction(g, all_roots=True)
        reference = search_every_root(g)
        canonical = choose_root(g)
        default = qhd_obstruction(g).results[0].outcome
        assert [r.root for r in report.results] == list(reference)
        for result in report.results:
            outcome = result.outcome
            assert result.verdict == report.verdict
            assert result.verdict == RootResult(result.root, reference[result.root]).verdict
            if result.root == canonical or outcome.certificate is not None:
                assert result.carried_from is None
            else:
                assert (result.carried_from, outcome.nodes) == (canonical, 0)
                tally[result.verdict] += 1
            if result.root == canonical:
                assert (outcome.nodes, outcome.witness) == (default.nodes, default.witness)
            if outcome.witness is not None:
                gram = distance_model_dual_gram(g, result.root)
                assert [[sum(map(mul, x, y)) for y in outcome.witness]
                        for x in outcome.witness] == [[-v for v in row] for row in gram]
    assert tally == {INCONCLUSIVE: 460, OBSTRUCTED: 182}


def square_lens_chains() -> list[PlumbingGraph]:
    """The 326 chains of L(m^2, q), m < 12, gcd(m, q) = 1."""
    return [hirzebruch_jung_chain(m * m, q)
            for m in range(2, 12) for q in range(1, m * m) if gcd(m, q) == 1]


def test_all_roots_carries_an_exhausted_search_to_every_root(tmp_path, capsys):
    # L(25, 9) is the chain (-3, -5, -2): a search takes 27 nodes at the
    # canonical root 1, 32 at root 0 and 22 at root 2.  Only root 1 is
    # searched, so a budget of 22 leaves every root undecided.
    g = hirzebruch_jung_chain(25, 9)
    assert {r: o.nodes for r, o in search_every_root(g).items()} == {0: 32, 1: 27, 2: 22}
    report = qhd_obstruction(g, all_roots=True, budget=22)
    assert [(r.root, r.verdict, r.outcome.nodes, r.carried_from) for r in report.results] == [
        (0, UNDECIDED, 0, 1), (1, UNDECIDED, 23, None), (2, UNDECIDED, 0, 1)]
    path = tmp_path / "chain.txt"
    path.write_text(serialize_plumbing(g))
    argv = ["obstruct", str(path), "--no-timings", "--budget-nodes"]
    assert cli_main(argv + ["22"]) == 4
    capsys.readouterr()
    assert cli_main(argv + ["22", "--all-roots"]) == 4
    assert capsys.readouterr().out.splitlines()[4:8] == [
        "root 0: search budget exhausted (carried from root 1)",
        "root 1: search budget exhausted (23 nodes)",
        "root 2: search budget exhausted (carried from root 1)",
        "verdict: undecided; raise the search budget",
    ]
    decided = qhd_obstruction(g, all_roots=True, budget=27)
    assert [(r.verdict, r.outcome.nodes, r.carried_from) for r in decided.results] == [
        (INCONCLUSIVE, 0, 1), (INCONCLUSIVE, 27, None), (INCONCLUSIVE, 0, 1)]
    assert cli_main(argv + ["27", "--all-roots"]) == 0
    assert "search budget exhausted" not in capsys.readouterr().out


def test_all_roots_never_changes_the_verdict_or_the_nodes_spent():
    for budget in (0, 10, 30, 100):
        for g in square_lens_chains():
            default = qhd_obstruction(g, budget=budget)
            report = qhd_obstruction(g, all_roots=True, budget=budget)
            assert report.verdict == default.verdict, (g, budget)
            assert sum(r.outcome.nodes for r in report.results) == (
                default.results[0].outcome.nodes), (g, budget)


def test_an_explicit_root_is_searched_and_carried_to_every_root():
    carried = 0
    for g in (hirzebruch_jung_chain(25, 9), hirzebruch_jung_chain(121, 43),
              hirzebruch_jung_chain(64, 13), generate_gamma_n(3)):
        roots = [r.root for r in qhd_obstruction(g, all_roots=True).results]
        for searched in roots:
            if searched == choose_root(g):
                continue
            own = qhd_obstruction(g, root=searched).results[0].outcome
            report = qhd_obstruction(g, root=searched, all_roots=True)
            assert [r.root for r in report.results] == roots
            for result in report.results:
                outcome = result.outcome
                assert result.verdict == report.verdict
                if result.root == searched:
                    assert result.carried_from is None
                    assert (outcome.nodes, outcome.witness) == (own.nodes, own.witness)
                    continue
                assert (result.carried_from, outcome.nodes) == (searched, 0)
                if outcome.witness is not None:
                    gram = distance_model_dual_gram(g, result.root)
                    assert [[sum(map(mul, x, y)) for y in outcome.witness]
                            for x in outcome.witness] == [[-v for v in row] for row in gram]
                    carried += 1
    assert carried == 13


def test_gamma_n_passes_the_classical_test_that_the_cap_refines():
    """The paper's claim of a new obstruction: for n = 3..8 the tree form
    of gamma-n embeds in <-1>^(n + 6), so Donaldson on the plumbing is
    silent, yet the dual lattice does not embed."""
    found = []
    for n in range(2, 9):
        classical = plumbing_lattice_embeds(generate_gamma_n(n))
        found.append((classical.embeddable, classical.nodes,
                      qhd_obstruction(generate_gamma_n(n)).verdict))
    assert found == [(True, 145, INCONCLUSIVE)] + [
        (True, nodes, OBSTRUCTED) for nodes in (144, 205, 297, 271, 312, 362)]


def test_lens_cap_verdict_is_the_mirror_chains_classical_verdict():
    """For every L(m^2, q), m < 12, the dual at the default root has the
    rank of the mirror chain L(m^2, m^2 - q), as Riemenschneider duality
    predicts, and embeds exactly when that chain's form embeds at its own
    rank: on lens spaces the cap decides what Lisca's lattice test does."""
    spaces = 0
    for m in range(2, 12):
        for q in range(1, m * m):
            if gcd(m, q) != 1:
                continue
            report = qhd_obstruction(hirzebruch_jung_chain(m * m, q))
            mirror = hirzebruch_jung_chain(m * m, m * m - q)
            assert report.dual_rank == len(mirror.vertices), q
            assert (report.verdict == INCONCLUSIVE) == plumbing_lattice_embeds(
                mirror).embeddable, (m * m, q)
            spaces += 1
    assert spaces == 326


def test_random_trees_the_cap_obstructs_beyond_the_classical_test():
    # Of 3,000 random trees, the 244 with a square |det Q_T| pass the
    # determinant test.  In 51 of them Q_T embeds while the dual is
    # obstructed at some root; the other 193 embed in both (and none, as
    # observed, the other way round, which is not gated on).
    rng = random.Random(7)
    squares = beyond = 0
    for _ in range(3000):
        g = random_valid_tree(rng, 10)
        det = abs(validate(g).determinant)
        if isqrt(det) ** 2 != det:
            continue
        squares += 1
        beyond += (plumbing_lattice_embeds(g).embeddable and qhd_obstruction(
            g, all_roots=True).verdict == OBSTRUCTED)
    assert (squares, beyond) == (244, 51)


def test_lisca_lens_spaces_are_never_obstructed():
    """Every lens space of ``lisca_family`` bounds a rational ball.  An
    obstructed verdict at any admissible root would be a false proof.

    The test has teeth: of the 473 valid chains L(p, q) with p < 40, 434
    are obstructed at the default root.
    """
    graphs = roots = 0
    for p, q in lisca_family(20):
        report = qhd_obstruction(hirzebruch_jung_chain(p, q), all_roots=True)
        assert all(r.verdict != OBSTRUCTED for r in report.results), (p, q)
        graphs += 1
        roots += len(report.results)
    assert (graphs, roots) == (354, 1193)


def test_lisca_family_passes_the_d_invariant_test():
    """Vets the ground truth above with Ozsvath-Szabo's d-invariant, which
    knows nothing of lattices: every pair test_lisca_lens_spaces_are_never_obstructed
    walks has p = m^2 and d = 0 on a coset of the order-m subgroup.  d only
    obstructs, so it never cross-checks an obstructed verdict."""
    # RP^3 = L(2, 1) has d-invariants 1/4 and -1/4.
    assert [lens_d(2, 1, i) for i in range(2)] == [Fraction(1, 4), Fraction(-1, 4)]
    pairs = lisca_family(20)
    mk_minus_1 = {(m * m, q) for m in range(2, 20) for k in range(1, m) if gcd(m, k) == 1
                  for q in (m * k - 1, m * m - m * k + 1)}
    assert (len(pairs), len(mk_minus_1), len(set(pairs) - mk_minus_1)) == (354, 238, 116)
    assert all(d_allows_rational_ball(p, q) for p, q in pairs)
    # Unresolved: one of each orbit that neither d nor the cap obstructs,
    # outside the recalled families, so never an expected verdict.
    assert not {(100, 39), (196, 55), (196, 83), (256, 95), (324, 71),
                (324, 143)} & set(pairs)
    # The test has teeth: random square-p lens spaces fail it about half
    # the time (60 of these 130 pass).
    rng = random.Random(1)
    sample = []
    while len(sample) < 130:
        m = rng.randint(2, 19)
        q = rng.randint(1, m * m - 1)
        if gcd(m, q) == 1:
            sample.append((m * m, q))
    assert sum(d_allows_rational_ball(p, q) for p, q in sample) == 60


def test_observation_unobstructed_lens_orbits_outside_the_family_are_gcd_2():
    """An observation, not a gate on any verdict: for p = m^2, m < 20, a
    lens orbit {q, q^-1, p - q, (p - q)^-1} mod p outside ``lisca_family``
    is obstructed in neither orientation exactly when it holds some
    L(m^2, mk +- 1) with gcd(m, k) = 2.  Either the recalled family is
    wrong about gcd(m, k) = 1, or these spaces need an obstruction beyond
    Donaldson and d; none of them is an expected verdict either way.  It
    held for m < 30 as well: 1,368 orbits, 1,169 outside, 19 of each."""
    family = set(lisca_family(20))
    orbits = {frozenset((m * m, x) for r in (q, m * m - q) for x in (r, pow(r, -1, m * m)))
              for m in range(2, 20) for q in range(1, m * m) if gcd(m, q) == 1}
    outside = [o for o in orbits if not o & family]
    unobstructed = {o for o in outside if all(
        qhd_obstruction(hirzebruch_jung_chain(p, q)).verdict != OBSTRUCTED for p, q in o)}
    gcd_2 = {(m * m, m * k + s) for m in range(2, 20) for k in range(1, m + 1)
             for s in (1, -1) if gcd(m, k) == 2 and m * k + s < m * m}
    pattern = {o for o in outside if o & gcd_2}
    assert (len(orbits), len(outside), len(unobstructed)) == (412, 321, 6)
    assert unobstructed == pattern
    assert sorted(min(o) for o in pattern) == [
        (100, 39), (196, 55), (196, 83), (256, 95), (324, 71), (324, 143)]
