"""Exact search for embeddings into negative definite diagonal lattices.

Given a negative definite Gram matrix Q of rank N and a target rank r, we
look for an integer N x r matrix M with M M^T = -Q; row i is then the image
of the i-th basis vector in Z^r with the pairing e_i . e_j = -delta_ij.
The search is exhaustive: an "embeddable" verdict always carries a witness,
and a completed "not embeddable" verdict means no embedding exists at all.

Rows are assigned one at a time, most constrained (largest |Q[i][i]|)
first, and each row coordinate by coordinate, values high to low, with
exact norm and inner-product constraints pruned by Cauchy-Schwarz against
every previously placed row.  The search is one loop over positions
(i, k), coordinate k of the i-th placed row, with flat per-position state
(value, lowest value, norm and inner products left); backtracking steps
to the previous position.  Once a row is complete its norm left at k is
the sum of its squares from k on, which is what Cauchy-Schwarz needs.

Signed permutations of the target coordinates are factored out:
coordinates whose value history over the placed rows is identical are
interchangeable, so within such a class the new row must be
non-increasing, and a coordinate untouched so far can be flipped, so its
value is forced nonnegative.  Every class is a run of adjacent
coordinates: before the first row all of [0, r) is one run, and a row
that is non-increasing on each run puts equal values side by side, so
splitting the runs by value leaves runs.  One flag per coordinate (same
history as the coordinate before it) therefore holds the classes, and
the bound within a class is the previous coordinate's value.  The
untouched coordinates form one such run, and a suffix, since a
nonnegative non-increasing row leaves zeros only at its end; one index
per row marks where it starts.  Canonicalizing each row against the
subgroup that fixes the placed rows pointwise keeps the reduction sound
*and* complete: any embedding can be rewritten step by step into one the
enumerator visits.

The enumeration order is fixed, so the verdict, the node count and the
witness are all reproducible run to run.

Two certificates decide without a search.  At a target rank below the
form's rank nothing embeds, since M M^T has rank at most r.  At the form's
own rank M is square, so det(-Q) = det(M)^2: when |det Q| is not a
perfect square nothing embeds either.  A caller that knows |det Q|
passes it in: the pipeline's duals are negative definite by construction
and share the tree form's |det| (see ``dualcap``), so it skips the O(r^3)
definiteness scan.  Otherwise the determinant is the last minor of that
scan, and either way the certificate costs one integer square root.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt

from . import intlin
from .intlin import GramMatrix, NotDefiniteError


@dataclass(frozen=True)
class EmbeddingOutcome:
    """Result of an embedding search.

    ``embeddable`` is derived: None when the search ran out of budget
    (``completed`` False), and JSON carries it as null; otherwise whether
    a witness was found, final for the given target rank.  ``nodes``
    counts coordinate assignments explored and is deterministic;
    ``millis`` is wall-clock and is not.  ``certificate`` names what
    ruled the embedding out without a search, "rank" or "determinant",
    and is None when the search decided; with "determinant",
    ``determinant`` is the |det Q| that is not a perfect square.
    """

    witness: tuple[tuple[int, ...], ...] | None
    nodes: int
    millis: int
    completed: bool
    certificate: str | None = None
    determinant: int | None = None

    @property
    def embeddable(self) -> bool | None:
        return self.witness is not None if self.completed else None

    def to_json_dict(self, include_timings: bool = True) -> dict:
        doc: dict = {
            "embeddable": self.embeddable,
            "nodes": self.nodes,
            "completed": self.completed,
        }
        if self.witness is not None:
            doc["witness"] = [list(row) for row in self.witness]
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        if self.determinant is not None:
            doc["determinant"] = self.determinant
        if include_timings:
            doc["millis"] = self.millis
        return doc


def _search(target: list[list[int]], r: int, max_nodes: int | None):
    """Walk positions (i, k), coordinate k of row i, depth first.

    ``target`` is the negated form with its rows already in search order.
    Returns (rows, nodes, completed): the placed rows, or None when no
    embedding exists or more than ``max_nodes`` nodes (None: no limit)
    were needed.
    """
    n = len(target)
    if r == 0:
        return None, 0, True
    x = [[0] * r for _ in range(n)]          # value at (i, k), next one tried below it
    low = [[0] * r for _ in range(n)]        # lowest value allowed at (i, k)
    rem = [[0] * (r + 1) for _ in range(n)]  # norm left for coordinates k.. of row i, 0 at r
    needs = [[()] * r for _ in range(n)]     # inner products left with rows 0..i-1
    # Per row i, from rows 0..i-1: tied[i][k] when coordinate k has the
    # same history as k - 1, and fresh[i] the first coordinate of the
    # all-zero suffix.
    tied = [[False] + [True] * (r - 1)] + [None] * (n - 1)
    fresh = [0] * n
    rem[0][0] = target[0][0]
    x[0][0] = isqrt(rem[0][0]) + 1
    nodes = i = k = 0
    while True:
        v = x[i][k] - 1
        if v < low[i][k]:
            if k:
                k -= 1
            elif i:
                i, k = i - 1, r - 1
            else:
                return None, nodes, True
            continue
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            return None, nodes, False
        x[i][k] = v
        left = rem[i][k] - v * v
        ahead = []
        for j, need in enumerate(needs[i][k]):
            need -= v * x[j][k]
            if need * need > left * rem[j][k + 1]:
                break
            ahead.append(need)
        else:
            if k + 1 < r:
                k += 1
            elif left:
                continue
            elif i + 1 == n:
                return x, nodes, True
            else:
                # Row i is done: a run stays tied where its values repeat,
                # and the all-zero suffix loses its leading nonzero entries.
                done, f = x[i], fresh[i]
                tied[i + 1] = [False] + [
                    t and a == b for t, a, b in zip(tied[i][1:], done[1:], done)]
                while f < r and done[f]:
                    f += 1
                fresh[i + 1] = f
                i, k = i + 1, 0
                left, ahead = target[i][i], target[i][:i]
            rem[i][k], needs[i][k] = left, ahead
            top = hi = isqrt(left)
            if tied[i][k] and x[i][k - 1] < hi:
                hi = x[i][k - 1]
            low[i][k] = 0 if k >= fresh[i] else -top
            x[i][k] = hi + 1


def _search_order(q: GramMatrix) -> tuple[list[int], list[list[int]]]:
    """The rows of Q by decreasing norm |Q[i][i]|, lowest index on ties,
    and -Q with rows and columns in that order: what _search takes."""
    order = sorted(range(q.rank), key=lambda i: (q.entries[i][i], i))
    return order, [[-q.entries[a][b] for b in order] for a in order]


def embed_diagonal(q: GramMatrix, r: int, budget: int | None, *,
                   determinant: int | None = None) -> EmbeddingOutcome:
    """Decide whether Q embeds into the rank-r diagonal lattice <-1>^r.

    ``budget`` caps the nodes searched (None: no cap); r >= 0.  Q must be
    negative definite.  Without ``determinant`` that is checked
    (NotDefiniteError otherwise) by the O(r^3) scan that also yields
    |det Q|; a caller that passes ``determinant`` vouches for both it and
    definiteness, and no scan runs.  With an exhausted budget the outcome
    has completed=False and no verdict; otherwise the decision is
    complete, and a positive verdict carries a witness already re-checked
    by verify_witness.  A rank or determinant certificate decides before
    the search, so before the budget applies, with 0 nodes.
    """
    if r < 0:
        raise ValueError("target rank must be nonnegative")
    if budget is not None and not isinstance(budget, int):
        raise TypeError("budget must be None or an int node limit")
    if determinant is None:
        minors = [1]  # so that rank 0 has determinant 1
        # Through the module, as plumbing.validate does, so that a wrapper
        # on intlin.first_sylvester_violation sees this scan too.
        if intlin.first_sylvester_violation(q, minors) is not None:
            raise NotDefiniteError("embedding search needs a negative definite form")
        determinant = abs(minors[-1])
    started = time.monotonic()
    if q.rank == 0:
        return EmbeddingOutcome(witness=(), nodes=0, millis=0, completed=True)
    if r < q.rank:
        return EmbeddingOutcome(
            witness=None, nodes=0, millis=0, completed=True, certificate="rank")
    if r == q.rank and isqrt(determinant) ** 2 != determinant:
        return EmbeddingOutcome(witness=None, nodes=0, millis=0, completed=True,
                                certificate="determinant", determinant=determinant)

    order, target = _search_order(q)
    rows, nodes, completed = _search(target, r, budget)
    millis = int((time.monotonic() - started) * 1000)
    if rows is None:
        return EmbeddingOutcome(
            witness=None, nodes=nodes, millis=millis, completed=completed)
    witness: list[tuple[int, ...]] = [()] * q.rank
    for position, row in enumerate(order):
        witness[row] = tuple(rows[position])
    if not verify_witness(q, witness):
        raise RuntimeError("embedding search produced a witness that does not verify")
    return EmbeddingOutcome(
        witness=tuple(witness), nodes=nodes, millis=millis, completed=True)


def verify_witness(q: GramMatrix, m) -> bool:
    """Independent check that sum_k M[i][k] M[j][k] = -Q[i][j] for all i, j."""
    rows = [tuple(int(v) for v in row) for row in m]
    if len(rows) != q.rank:
        raise ValueError("witness must have %d rows, got %d" % (q.rank, len(rows)))
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("witness rows have unequal lengths")
    for i in range(q.rank):
        for j in range(i, q.rank):
            dot = sum(a * b for a, b in zip(rows[i], rows[j]))
            if dot != -q.entries[i][j]:
                return False
    return True

