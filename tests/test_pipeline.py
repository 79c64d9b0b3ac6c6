import random
import time
from fractions import Fraction
from math import gcd

import pytest

from oracles import d_allows_rational_ball, lens_d

import plumbcap.intlin
import plumbcap.pipeline
from plumbcap.embedder import verify_witness
from plumbcap.intlin import GramMatrix
from plumbcap.pipeline import (
    INCONCLUSIVE,
    OBSTRUCTED,
    UNDECIDED,
    _combine,
    qhd_obstruction,
    render_report,
)
from plumbcap.plumbing import (
    PlumbingGraph,
    ValidationFailure,
    generate_gamma_n,
    parse_plumbing,
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
    # Every dual is definite with the tree's |det| by construction, so the
    # only Sylvester scans left run on the tree form itself.
    scanned = []
    scan = plumbcap.intlin.first_sylvester_violation

    def recording(q, *args, **kwargs):
        scanned.append(q.rank)
        return scan(q, *args, **kwargs)

    monkeypatch.setattr(plumbcap.intlin, "first_sylvester_violation", recording)
    for g in (generate_gamma_n(5), parse_plumbing("v 0 -33\n")):
        scanned.clear()
        report = qhd_obstruction(g, all_roots=True)
        assert report.dual_rank != len(g.vertices)  # a dual scan would show
        assert scanned and set(scanned) == {len(g.vertices)}


def test_budget_exhaustion_is_undecided():
    g = generate_gamma_n(7)
    report = qhd_obstruction(g, budget=10)
    assert report.verdict == UNDECIDED
    assert report.results[0].outcome.completed is False


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="node budget must be nonnegative"):
        qhd_obstruction(generate_gamma_n(3), budget=-1)


def test_combined_verdict_priorities():
    assert _combine([OBSTRUCTED, INCONCLUSIVE, UNDECIDED]) == OBSTRUCTED
    assert _combine([INCONCLUSIVE, UNDECIDED]) == UNDECIDED
    assert _combine([INCONCLUSIVE, INCONCLUSIVE]) == INCONCLUSIVE


def test_gamma_7_report():
    report = qhd_obstruction(generate_gamma_n(7))
    assert report.verdict == OBSTRUCTED
    assert report.dual_rank == 14
    assert report.validation.determinant == -21609
    assert report.wu_support == (3, 6, 8, 10, 12)
    assert report.mu_bar == 0
    assert len(report.graph.vertices) == 13 and len(report.graph.edges) == 12


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


def test_lisca_lens_spaces_are_never_obstructed():
    """Lisca (Geom. Topol. 11, 2007): L(m^2, mk - 1) with gcd(m, k) = 1
    bounds a rational ball, and so does L(m^2, m^2 - mk + 1), its mirror.
    An obstructed verdict at any admissible root would be a false proof.

    The test has teeth: of the 473 valid chains L(p, q) with p < 40, 434
    are obstructed at the default root.
    """
    graphs = roots = 0
    for m in range(2, 12):
        for k in range(1, m):
            if gcd(m, k) != 1:
                continue
            for q in (m * k - 1, m * m - m * k + 1):
                report = qhd_obstruction(hirzebruch_jung_chain(m * m, q), all_roots=True)
                assert all(r.verdict != OBSTRUCTED for r in report.results), (m, k, q)
                graphs += 1
                roots += len(report.results)
    assert (graphs, roots) == (82, 219)


def test_lisca_family_passes_the_d_invariant_test():
    """Vets the ground truth above with Ozsvath-Szabo's d-invariant, which
    knows nothing of lattices: every pair test_lisca_lens_spaces_are_never_obstructed
    walks has p = m^2 and d = 0 on a coset of the order-m subgroup.  d only
    obstructs, so it never cross-checks an obstructed verdict."""
    # RP^3 = L(2, 1) has d-invariants 1/4 and -1/4.
    assert [lens_d(2, 1, i) for i in range(2)] == [Fraction(1, 4), Fraction(-1, 4)]
    pairs = [(m * m, q) for m in range(2, 12) for k in range(1, m) if gcd(m, k) == 1
             for q in (m * k - 1, m * m - m * k + 1)]
    assert len(pairs) == 82
    assert all(d_allows_rational_ball(p, q) for p, q in pairs)
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
