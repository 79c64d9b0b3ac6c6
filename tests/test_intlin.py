import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plumbcap
from oracles import brute_wu, leibniz_det, nd_by_minors
from plumbcap.cli import cli_main
from plumbcap.intlin import (
    GramMatrix,
    NonUniqueSpinError,
    NotDefiniteError,
    determinant,
    first_sylvester_violation,
    gram_from_json,
    mu_bar,
    wu_classes,
)
from plumbcap.plumbing import gram_matrix, parse_plumbing

A2 = GramMatrix.from_rows([[-2, 1], [1, -2]])


def random_symmetric(rng, n, lo=-5, hi=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


def test_gram_matrix_basic():
    q = GramMatrix.from_rows([[-2, 1], [1, -3]], labels=["a", "b"])
    assert q.rank == 2
    assert q.labels == ("a", "b")
    assert tuple(q.entries[i][i] for i in range(q.rank)) == (-2, -3)
    assert q.entries[0][1] == 1


def test_gram_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[-2, 1], [0, -2]])  # not symmetric
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[-2, 1]])  # not square
    with pytest.raises(ValueError):
        GramMatrix.from_rows([[-2, 1], [1, -2]], labels=["x", "x"])
    with pytest.raises(ValueError):
        GramMatrix(rank=-1, labels=(), entries=())
    with pytest.raises(ValueError):
        GramMatrix(rank=2, labels=("a",), entries=((-2,),))


def test_rank_zero_conventions():
    empty = GramMatrix.from_rows([])
    assert empty.rank == 0
    assert determinant(empty) == 1
    assert first_sylvester_violation(empty) is None
    assert wu_classes(empty) == [()]


def test_json_round_trip():
    q = GramMatrix.from_rows([[-2, 1], [1, -3]], labels=["u0#0", "u0#1"])
    assert gram_from_json(json.dumps(q.to_json_dict())) == q


@st.composite
def labeled_symmetric_forms(draw):
    """Symmetric integer forms of rank 0..6 with unique string labels."""
    n = draw(st.integers(0, 6))
    labels = draw(st.lists(st.text(), min_size=n, max_size=n, unique=True))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(st.integers())
    return GramMatrix.from_rows(rows, labels=labels)


@settings(derandomize=True, deadline=None)
@given(labeled_symmetric_forms())
def test_property_json_round_trip(q):
    assert gram_from_json(json.dumps(q.to_json_dict())) == q


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        gram_from_json("[]")
    with pytest.raises(ValueError):
        gram_from_json('{"rank": 1, "labels": ["a"]}')
    with pytest.raises(ValueError):
        gram_from_json('{"rank": 2, "labels": ["a"], "gram": [[-2]]}')
    with pytest.raises(ValueError):
        gram_from_json('{"rank": 1, "labels": ["a"], "gram": [[-2, 1]]}')


def test_determinant_known_values():
    assert determinant(A2) == 3
    assert determinant(GramMatrix.from_rows([[-3]])) == -3
    assert determinant(GramMatrix.from_rows([[0, 1], [1, 0]])) == -1
    singular = GramMatrix.from_rows([[1, 1], [1, 1]])
    assert determinant(singular) == 0


def test_determinant_matches_permutation_sum():
    rng = random.Random(20260825)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n)
        assert determinant(GramMatrix.from_rows(rows)) == leibniz_det(rows)


def test_sylvester_violation_order():
    assert first_sylvester_violation(A2) is None
    assert first_sylvester_violation(GramMatrix.from_rows([[2]])) == 1
    assert first_sylvester_violation(GramMatrix.from_rows([[0]])) == 1
    # Leading 1x1 minor fine, 2x2 minor is -1 < 0.
    q = GramMatrix.from_rows([[-1, 0], [0, 1]])
    assert first_sylvester_violation(q) == 2
    # Semidefinite: det = 0 counts as a violation.
    q = GramMatrix.from_rows([[-1, 1], [1, -1]])
    assert first_sylvester_violation(q) == 2


def test_definiteness_matches_minor_oracle():
    rng = random.Random(4242)
    for _ in range(400):
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            rows = random_symmetric(rng, n, -4, 4)
        else:
            # Diagonally dominant, hence definite: exercises both answers.
            rows = random_symmetric(rng, n, -1, 1)
            for i in range(n):
                rows[i][i] = -sum(abs(rows[i][j]) for j in range(n) if j != i) - 1
        q = GramMatrix.from_rows(rows)
        assert (first_sylvester_violation(q) is None) == nd_by_minors(rows)


def test_wu_classes_known_values():
    assert wu_classes(GramMatrix.from_rows([[-3]])) == [(1,)]
    assert wu_classes(GramMatrix.from_rows([[-2]])) == [(0,), (1,)]
    assert wu_classes(A2) == [(0, 0)]


def test_wu_classes_match_enumeration():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n, -4, 4)
        q = GramMatrix.from_rows(rows)
        got = wu_classes(q)
        assert got == sorted(brute_wu(rows))
        # Unique exactly when the determinant is odd.
        assert (len(got) == 1) == (determinant(q) % 2 != 0)


def star(leaves: int) -> str:
    """A -k vertex with k leaves framed -2: 2^(k-1) Wu classes."""
    return "v 0 -%d\n" % leaves + "".join(
        "v %d -2\ne 0 %d\n" % (v, v) for v in range(1, leaves + 1))


def test_wu_listing_is_bounded(tmp_path, capsys, monkeypatch):
    # 19 leaves: 2^18 classes of 20 bits, over the 2^22 bound.
    path = tmp_path / "star.txt"
    path.write_text(star(19))
    assert cli_main(["wu", str(path)]) == 3
    assert capsys.readouterr().err == (
        "plumbcap: too many Wu classes to list: 2^18 at rank 20 exceeds "
        "the bound of 4194304 bits\n")
    # At the bound the classes are listed; one below it, refused.
    q = gram_matrix(parse_plumbing(star(3)))
    monkeypatch.setattr(plumbcap.intlin, "MAX_WU_BITS", 4 << 2)
    assert wu_classes(q) == sorted(brute_wu([list(r) for r in q.entries]))
    monkeypatch.setattr(plumbcap.intlin, "MAX_WU_BITS", (4 << 2) - 1)
    with pytest.raises(ValueError, match="2\\^2 at rank 4"):
        wu_classes(q)


def test_wu_check_survives_optimized_python():
    # Under -O an assert would vanish and a bad Wu class would be returned.
    script = (
        "import plumbcap.intlin as m\n"
        "m._satisfies_wu = lambda q, bits: False\n"
        "print(m.wu_classes(m.GramMatrix.from_rows([[-3]])))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plumbcap.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode != 0, proc.stdout
    assert "RuntimeError" in proc.stderr


def test_wu_support_labels(tmp_path, capsys):
    q = GramMatrix.from_rows([[-3, 0], [0, -2]], labels=["p", "q"])
    path = tmp_path / "q.json"
    path.write_text(json.dumps(q.to_json_dict()))
    assert cli_main(["wu", "--gram", str(path)]) == 0
    assert capsys.readouterr().out == "wu class: p\nwu class: p q\n"


def test_mu_bar_known_values():
    assert mu_bar(GramMatrix.from_rows([[-1]])) == 0
    assert mu_bar(GramMatrix.from_rows([[-3]])) == 2
    assert mu_bar(A2) == -2


def test_mu_bar_preconditions():
    with pytest.raises(NotDefiniteError):
        mu_bar(GramMatrix.from_rows([[2]]))
    with pytest.raises(NonUniqueSpinError):
        mu_bar(GramMatrix.from_rows([[-2]]))


def test_mu_bar_refuses_even_determinant_without_listing_wu_classes(
        tmp_path, capsys, monkeypatch):
    # A -40 vertex with forty -2 leaves: Q mod 2 has nullity 39.
    leaves = range(1, 41)
    text = ("v 0 -40\n" + "".join("v %d -2\n" % v for v in leaves)
            + "".join("e 0 %d\n" % v for v in leaves))
    q = GramMatrix.from_rows(
        [[-40] + [1] * 40] + [[1] + [-2 if j == i else 0 for j in leaves] for i in leaves])

    def refuse(q):
        raise AssertionError("wu_classes ran")

    monkeypatch.setattr(plumbcap.intlin, "wu_classes", refuse)
    with pytest.raises(NonUniqueSpinError, match=str(determinant(q))):
        mu_bar(q)
    path = tmp_path / "star.txt"
    path.write_text(text)
    assert cli_main(["mubar", str(path)]) == 3
    assert "odd determinant" in capsys.readouterr().err


def test_mu_bar_matches_brute_recomputation():
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        # Diagonally dominant, hence negative definite.
        rows = random_symmetric(rng, n, -1, 1)
        for i in range(n):
            rows[i][i] = -sum(abs(rows[i][j]) for j in range(n) if j != i) - rng.randint(1, 3)
        q = GramMatrix.from_rows(rows)
        solutions = brute_wu(rows)
        if len(solutions) != 1:
            with pytest.raises(NonUniqueSpinError):
                mu_bar(q)
            continue
        w = solutions[0]
        wqw = sum(rows[i][j] * w[i] * w[j] for i in range(n) for j in range(n))
        assert mu_bar(q) == -n - wqw
        checked += 1
    assert checked > 30
