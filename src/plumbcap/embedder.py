"""Exact search for embeddings into negative definite diagonal lattices.

Given a negative definite Gram matrix Q of rank N and a target rank r, we
look for an integer N x r matrix M with M M^T = -Q; row i is then the image
of the i-th basis vector in Z^r with the pairing e_i . e_j = -delta_ij.
The search is exhaustive: an "embeddable" verdict always carries a witness,
and a completed "not embeddable" verdict means no embedding exists at all.

Rows are assigned one at a time, smallest norm |Q[i][i]| first (lowest
index on ties), and each row but a twin row (below) coordinate by
coordinate, values high to low, with
exact norm and inner-product constraints pruned by Cauchy-Schwarz against
every previously placed row.  The search is one loop over positions
(i, k), coordinate k of the i-th placed row, with flat per-position state
(value, norm and inner products left); backtracking steps to the previous
position.  The lowest value allowed is 0 on the untouched suffix (below)
and -isqrt(norm left) elsewhere, so a value v < 0 is out of range exactly
when it lies on that suffix or v^2 exceeds the norm left.  Once a row is
complete its norm left at k is the sum of its squares from k on, which is
what Cauchy-Schwarz needs.

Small norms go first: in a dual configuration the norm-2 and norm-3
strings near the root span an A_k chain, whose images in Z^r are nearly
forced (the e_a - e_b shapes of Lisca's lattice analysis), so the
large-norm strings come last, when the placed rows leave them little
room.  On gamma-n this cuts the nodes from millions to hundreds.

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

Twin rows are placed whole.  In search order, row i is a twin of row
i - 1 when the two have equal norms, equal pairings with every other row,
and pair with each other to one less than their norm, as two strings of
one vertex do.  Swapping them is an automorphism of Q, and their
difference has norm 2, so x[i] = x[i-1] - e_p + s e_q with p < q and
s = +-1: fixing the sign of e_p to -1 is the lex-leader cut
x[i] <lex x[i-1] under the swap.  The norm asks x[i-1][p] - s x[i-1][q]
= 1, and the pairing with each row j < i - 1 asks x[j][p] = s x[j][q],
so columns p and q share their history up to the sign s.  A nonzero
history starts with a positive value (untouched coordinates are
nonnegative), so s = -1 needs two untouched columns; there x[i-1] is
nonnegative and non-increasing, so x[i-1][p] = 1 and x[i-1][q] = 0, and
x[i][q] = -1 would break the untouched suffix.  With s = +1, p and q lie
in one run, x[i-1] steps down by exactly one from p to q, and x[i] swaps
the two values; x[i] is non-increasing on the runs of rows 0..i-1 only
when p is the last coordinate of its value and q = p + 1.  So the
candidates are the steps of one inside a run, listed when the search
enters row i and tried highest p first, which is decreasing lex order;
each candidate tried is one node.  (Inside a run x[i-1] never steps up,
so the runs alone already keep every twin row below its twin.)

Two skips spare the coordinate walk values it would try and reject,
or zeros it would be forced to place.  A value v at (i, k) that fails
Cauchy-Schwarz against a placed row j with no norm left after k leaves
that row's inner product to coordinate k alone, so only
v' = need_j / x[j][k] can pass: the search tries v' next when it is an
integer below v, and otherwise backtracks at once.  A value that uses
up the row's norm leaves every inner product 0, so the rest of the row
is zeros, written at once and counted in the node of that value; but
when coordinate k + 1 is tied to k and v < 0, the run would step up
from v to 0, so v is rejected instead.

This is exact.  The coordinate walk tries rows in decreasing lex order,
so its first witness is the row-major lex-max embedding L over all
embeddings: L is the largest of its orbit under signed column
permutations, hence in the canonical form above.  Swapping twins i - 1
and i of L gives another embedding, no larger, so L keeps the twin
order, and every row of an embedding that keeps the runs, the untouched
suffix and the twin order is a candidate.  The two skips pass over only
values the walk would reject and zeros it would be forced to, and the
accepted values come in the same order.  L is therefore still the first
witness, a search without one still covers every canonical embedding,
and node counts can only fall: the walk spends at least one node on
every complete row it reaches and on every value a skip passes over.
Twins are detected inside the search, after the certificates below, so
a certified form pays nothing for them.  None of this depends on which
fixed order the rows take.

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
from operator import mul

from . import intlin
from .dualcap import MAX_DUAL_RANK
from .intlin import GramMatrix, NotDefiniteError


@dataclass(frozen=True)
class EmbeddingOutcome:
    """Result of an embedding search.

    ``embeddable`` is derived: None when the search ran out of budget
    (``completed`` False), and JSON carries it as null; otherwise whether
    a witness was found, final for the given target rank.  ``nodes``
    counts what the search tried, a coordinate value, or a whole twin
    row, and is deterministic; a forced zero tail is part of the node
    whose value used up the row's norm;
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
    """Walk positions (i, k), coordinate k of row i, depth first; a twin
    row takes one position per candidate instead.

    ``target`` is the negated form with its rows already in search order,
    and r >= 1.  Returns (rows, nodes, completed): the placed rows, or None
    when no embedding exists or more than ``max_nodes`` nodes (None: no
    limit) were needed.
    """
    n = len(target)
    # Row i is a twin of row i - 1: equal norms, equal pairings with every
    # other row, and pairing with each other one less than the norm.
    twin = [False] + [
        a[i] == b[i - 1] == a[i - 1] + 1 and a[:i - 1] == b[:i - 1] and a[i + 1:] == b[i + 1:]
        for i, a, b in zip(range(1, n), target[1:], target)]
    x = [[0] * r for _ in range(n)]          # value at (i, k), next one tried below it
    rem = [[0] * (r + 1) for _ in range(n)]  # norm left for coordinates k.. of row i, 0 at r
    needs = [[()] * r for _ in range(n)]     # inner products left with rows 0..i-1
    swaps: list[list[int]] = [[] for _ in range(n)]  # twin row i: swaps p <-> p + 1 left
    # Per row i, from rows 0..i-1: tied[i][k] when coordinate k has the
    # same history as k - 1, and fresh[i] the first coordinate of the
    # all-zero suffix.
    tied = [[False] + [True] * (r - 1)] + [None] * (n - 1)
    fresh = [0] * n

    def begin(i: int, done: list[int]) -> None:
        """Set up row i once row i - 1 is placed as ``done``."""
        # A run stays tied where its values repeat, and the all-zero
        # suffix loses its leading nonzero entries.
        tied[i] = [False] + [t and a == b for t, a, b in zip(tied[i - 1][1:], done[1:], done)]
        f = fresh[i - 1]
        while f < r and done[f]:
            f += 1
        fresh[i] = f
        if twin[i]:
            # A twin row swaps a step of one inside a run (see the module
            # docstring); pop() takes the highest p, the lex-largest row.
            swaps[i] = [p for p in range(r - 1)
                        if tied[i - 1][p + 1] and done[p] - done[p + 1] == 1]
            return
        rem[i][0] = target[i][i]
        needs[i][0] = target[i][:i]
        x[i][0] = isqrt(target[i][i]) + 1

    rem[0][0] = target[0][0]
    x[0][0] = isqrt(rem[0][0]) + 1
    nodes = i = k = 0
    while True:
        if twin[i]:
            if not swaps[i]:
                i, k = i - 1, r - 1
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return None, nodes, False
            p = swaps[i].pop()
            done, rest = x[i - 1][:], rem[i - 1][:]
            done[p], done[p + 1] = done[p + 1], done[p]
            # Only the squares from p + 1 on change: x[i - 1][p] moved there.
            rest[p + 1] += done[p + 1] ** 2 - done[p] ** 2
            x[i], rem[i] = done, rest
            if i + 1 == n:
                return x, nodes, True
            i, k = i + 1, 0
            begin(i, done)
            continue
        v = x[i][k] - 1
        if v < 0 and (k >= fresh[i] or v * v > rem[i][k]):
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
                if not rem[j][k + 1]:
                    # Row j is zero after k, so only v + need / x[j][k]
                    # can pass here: try it next if it is an integer below
                    # v; else no value left at k can, and -rem - 1 is out
                    # of range.
                    a = x[j][k]
                    if a and not need % a and need // a < 0:
                        x[i][k] = v + need // a + 1
                    else:
                        x[i][k] = -rem[i][k]
                break
            ahead.append(need)
        else:
            if not left:
                if k + 1 < r:
                    if v < 0 and tied[i][k + 1]:
                        continue  # the run would step up from v to 0
                    # Every need left is 0: the rest of the row is zeros.
                    rem[i][k + 1:r] = x[i][k + 1:] = [0] * (r - k - 1)
                if i + 1 == n:
                    return x, nodes, True
                i, k = i + 1, 0
                begin(i, x[i - 1])
                continue
            if k + 1 == r:
                continue
            k += 1
            rem[i][k], needs[i][k] = left, ahead
            hi = isqrt(left)
            if tied[i][k] and x[i][k - 1] < hi:
                hi = x[i][k - 1]
            x[i][k] = hi + 1


def _search_order(q: GramMatrix) -> tuple[list[int], list[list[int]]]:
    """The rows of Q by increasing norm |Q[i][i]|, lowest index on ties
    (so strings of one vertex stay adjacent, as twin detection needs),
    and -Q with rows and columns in that order: what _search takes."""
    order = sorted(range(q.rank), key=lambda i: (-q.entries[i][i], i))
    return order, [[-q.entries[a][b] for b in order] for a in order]


def embed_diagonal(q: GramMatrix, r: int, budget: int | None, *,
                   determinant: int | None = None) -> EmbeddingOutcome:
    """Decide whether Q embeds into the rank-r diagonal lattice <-1>^r.

    ``budget`` caps the nodes searched: None (no cap) or an int >= 0, else
    TypeError or ValueError; 0 <= r <= MAX_DUAL_RANK, else ValueError
    before anything is allocated.  Q must be negative definite.  Without
    ``determinant`` that is checked (NotDefiniteError otherwise) by the
    O(r^3) scan that also yields |det Q|; a caller that passes
    ``determinant`` vouches for both it and definiteness, and no scan
    runs.  With an exhausted budget the outcome has completed=False and
    no verdict; otherwise the decision is complete, and a positive verdict
    carries a witness already re-checked by verify_witness.  A rank or
    determinant certificate decides before the search, so before the
    budget applies, with 0 nodes.
    """
    if r < 0:
        raise ValueError("target rank must be nonnegative")
    if r > MAX_DUAL_RANK:
        raise ValueError("target rank %d exceeds the bound %d" % (r, MAX_DUAL_RANK))
    if budget is not None and type(budget) is not int:
        raise TypeError("budget must be None or an int node limit")
    if budget is not None and budget < 0:
        raise ValueError("node budget must be nonnegative")
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
    """Independent check that sum_k M[i][k] M[j][k] = -Q[i][j] for all i, j;
    ValueError for a witness of the wrong shape or with a non-int entry."""
    n = q.rank
    rows = [tuple(row) for row in m]
    if len(rows) != n:
        raise ValueError("witness must have %d rows, got %d" % (n, len(rows)))
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("witness rows have unequal lengths")
    if any(type(x) is not int for row in rows for x in row):
        raise ValueError("witness entries must be ints")
    for i in range(n):
        for j in range(i, n):
            if sum(map(mul, rows[i], rows[j])) != -q.entries[i][j]:
                return False
    return True

