"""Exact search for embeddings into negative definite diagonal lattices.

Given a negative definite Gram matrix Q of rank N and a target rank r, we
look for an integer N x r matrix M with M M^T = -Q; row i is then the image
of the i-th basis vector in Z^r with the pairing e_i . e_j = -delta_ij.
The search is exhaustive: an "embeddable" verdict always carries a witness,
and a completed "not embeddable" verdict means no embedding exists at all.

Rows are assigned one at a time, most constrained (largest |Q[i][i]|)
first.  Candidate rows are enumerated coordinate by coordinate with exact
norm and inner-product constraints, pruned by Cauchy-Schwarz against every
previously placed row.  Signed permutations of the target coordinates are
factored out: coordinates whose value history over the placed rows is
identical are interchangeable, so within such a class the new row must be
non-increasing, and a coordinate untouched so far can be flipped, so its
value is forced nonnegative.  Canonicalizing each row against the subgroup
that fixes the placed rows pointwise keeps the reduction sound *and*
complete: any embedding can be rewritten step by step into one the
enumerator visits.

The default mode is sequential with a fixed enumeration order, so the
verdict, the node count and the witness are all reproducible run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt

from .intlin import GramMatrix, NotDefiniteError, is_negative_definite


@dataclass(frozen=True)
class Budget:
    """Limits for the search; None means unlimited.

    ``max_nodes`` bounds the number of coordinate assignments explored,
    ``max_millis`` the wall-clock time.  Library callers pass a Budget (or
    a plain int, meaning max_nodes, or None for explicitly unlimited).
    """

    max_nodes: int | None = None
    max_millis: int | None = None


@dataclass(frozen=True)
class EmbeddingOutcome:
    """Result of an embedding search.

    ``embeddable`` is None when the search ran out of budget
    (``completed`` False), and JSON carries it as null; otherwise the
    verdict is final for the given target rank.  ``nodes`` counts
    coordinate assignments explored and is deterministic; ``millis`` is
    wall-clock and is not.
    """

    embeddable: bool | None
    witness: tuple[tuple[int, ...], ...] | None
    nodes: int
    millis: int
    completed: bool

    def to_json_dict(self, include_timings: bool = True) -> dict:
        doc: dict = {
            "embeddable": self.embeddable,
            "nodes": self.nodes,
            "completed": self.completed,
        }
        if self.witness is not None:
            doc["witness"] = [list(row) for row in self.witness]
        if include_timings:
            doc["millis"] = self.millis
        return doc


class _BudgetExceeded(Exception):
    pass


class _Search:
    def __init__(self, target: list[list[int]], order: list[int], r: int, budget: Budget):
        self.target = target          # -Q, row/column order as given
        self.order = order            # row placement order
        self.r = r
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = None
        if budget.max_millis is not None:
            self.deadline = time.monotonic() + budget.max_millis / 1000.0
        self.placed: list[tuple[int, ...]] = []

    def tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExceeded

    def run(self) -> bool:
        return self._place(0)

    def _place(self, i: int) -> bool:
        if i == len(self.order):
            return True
        row = self.order[i]
        norm = self.target[row][row]
        required = [self.target[row][self.order[j]] for j in range(i)]
        for candidate in self._candidates(norm, required):
            self.placed.append(candidate)
            if self._place(i + 1):
                return True
            self.placed.pop()
        return False

    def _candidates(self, norm: int, required: list[int]):
        """Canonical rows x with |x|^2 = norm and x . placed[j] = required[j]."""
        r = self.r
        placed = self.placed
        # Coordinate classes by value history; class -1 entries are fresh
        # (all-zero history), where sign flips are still free.
        histories: dict[tuple[int, ...], int] = {}
        class_of = [0] * r
        fresh = [False] * r
        for k in range(r):
            h = tuple(p[k] for p in placed)
            if h not in histories:
                histories[h] = len(histories)
            class_of[k] = histories[h]
            fresh[k] = not any(h)
        # Suffix sums of squares per placed row, for Cauchy-Schwarz pruning.
        suffix = []
        for p in placed:
            s = [0] * (r + 1)
            for k in range(r - 1, -1, -1):
                s[k] = s[k + 1] + p[k] * p[k]
            suffix.append(s)

        x = [0] * r
        last: dict[int, int] = {}

        def descend(k: int, rem: int, needs: list[int]):
            if k == r:
                if rem == 0:
                    yield tuple(x)
                return
            cls = class_of[k]
            hi = isqrt(rem)
            if cls in last:
                hi = min(hi, last[cls])
            lo = 0 if fresh[k] else -isqrt(rem)
            for v in range(hi, lo - 1, -1):
                self.tick()
                rem2 = rem - v * v
                ok = True
                needs2 = []
                for j, need in enumerate(needs):
                    need2 = need - v * placed[j][k]
                    if need2 * need2 > rem2 * suffix[j][k + 1]:
                        ok = False
                        break
                    needs2.append(need2)
                if not ok:
                    continue
                x[k] = v
                prev = last.get(cls)
                last[cls] = v
                yield from descend(k + 1, rem2, needs2)
                if prev is None:
                    del last[cls]
                else:
                    last[cls] = prev
            x[k] = 0

        yield from descend(0, norm, required)


def _as_budget(budget) -> Budget:
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    if isinstance(budget, int):
        return Budget(max_nodes=budget)
    raise TypeError("budget must be None, an int node limit, or a Budget")


def embed_diagonal(q: GramMatrix, r: int, budget) -> EmbeddingOutcome:
    """Decide whether Q embeds into the rank-r diagonal lattice <-1>^r.

    Q must be negative definite (checked; NotDefiniteError otherwise) and
    r >= 0.  With an exhausted budget the outcome has completed=False and
    no verdict; otherwise the decision is complete, and a positive verdict
    carries a witness already re-checked by verify_witness.
    """
    if r < 0:
        raise ValueError("target rank must be nonnegative")
    if not is_negative_definite(q):
        raise NotDefiniteError("embedding search needs a negative definite form")
    limits = _as_budget(budget)
    started = time.monotonic()
    if q.rank == 0:
        return EmbeddingOutcome(
            embeddable=True, witness=(), nodes=0, millis=0, completed=True)

    target = [[-v for v in row] for row in q.entries]
    order = sorted(range(q.rank), key=lambda i: (-target[i][i], i))
    search = _Search(target, order, r, limits)
    try:
        found = search.run()
    except _BudgetExceeded:
        millis = int((time.monotonic() - started) * 1000)
        return EmbeddingOutcome(
            embeddable=None, witness=None, nodes=search.nodes,
            millis=millis, completed=False)
    millis = int((time.monotonic() - started) * 1000)
    if not found:
        return EmbeddingOutcome(
            embeddable=False, witness=None, nodes=search.nodes,
            millis=millis, completed=True)
    witness: list[tuple[int, ...]] = [()] * q.rank
    for position, row in enumerate(order):
        witness[row] = search.placed[position]
    if not verify_witness(q, witness):
        raise RuntimeError("embedding search produced a witness that does not verify")
    return EmbeddingOutcome(
        embeddable=True, witness=tuple(witness), nodes=search.nodes,
        millis=millis, completed=True)


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

