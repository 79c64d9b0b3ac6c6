"""Exact integer linear algebra for symmetric lattices.

Everything here works over Python's arbitrary-precision integers; there is
no floating point anywhere.  Definiteness is decided by the signs of the
leading principal minors, computed with fraction-free (Bareiss) elimination,
so the answers are exact no matter how large the determinants grow.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass


# wu_classes lists at most this many bits: 2^nullity classes of rank bits.
MAX_WU_BITS = 1 << 22


class NotDefiniteError(ValueError):
    """An operation that needs a negative definite form was given one that
    is not."""


class NonUniqueSpinError(ValueError):
    """mu_bar needs a unique 0/1 characteristic (Wu) vector, which exists
    exactly when the determinant is odd."""


@dataclass(frozen=True)
class GramMatrix:
    """A labeled symmetric integer matrix.

    ``entries`` is a tuple of row tuples, and ``rank`` is their count.
    Rank 0 (the empty matrix) is allowed: it shows up as the intersection
    form of a trivial cap and all operations treat it by the usual empty
    conventions (determinant 1, negative definite, embeds anywhere).
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Rows given as lists are stored as tuples; O(rank) when they are
        # tuples already, since tuple() returns a tuple as is.
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        n = len(self.entries)
        if len(self.labels) != n:
            raise ValueError("labels/entries do not match rank")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be unique")
        if any(len(row) != n for row in self.entries):
            raise ValueError("entries must be square")
        if self.entries != tuple(zip(*self.entries)):
            i, j = next((i, j) for i in range(n) for j in range(i)
                        if self.entries[i][j] != self.entries[j][i])
            raise ValueError("matrix is not symmetric at (%d, %d)" % (i, j))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows, labels=None) -> "GramMatrix":
        entries = tuple(tuple(map(int, row)) for row in rows)
        if labels is None:
            labels = tuple(str(i) for i in range(len(entries)))
        return cls(labels=tuple(labels), entries=entries)

    def to_json_dict(self) -> dict:
        """The JSON document gram_from_json reads back."""
        return {"rank": self.rank, "labels": list(self.labels),
                "gram": [list(row) for row in self.entries]}


def gram_from_json(text: str) -> GramMatrix:
    """Load a GramMatrix from its JSON document.

    ``rank`` and every entry must be JSON integers (not floats or
    booleans), ``labels`` a list of strings, and the matrix symmetric.
    """
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ValueError("gram JSON is nested too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError("gram JSON has an integer with more than %d digits"
                         % sys.get_int_max_str_digits()) from None
    try:
        rank = doc["rank"]
        labels = doc["labels"]
        gram = doc["gram"]
    except (TypeError, KeyError) as exc:
        raise ValueError("gram JSON needs keys rank/labels/gram") from exc
    # type() rather than isinstance: JSON true/false must not pass as 1/0.
    if type(rank) is not int:
        raise ValueError("gram JSON rank must be an integer, got %r" % (rank,))
    if not isinstance(gram, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in gram):
        raise ValueError("gram JSON entries must be integers")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ValueError("gram JSON labels must be a list of strings")
    q = GramMatrix.from_rows(gram, labels=labels)
    if q.rank != rank:
        raise ValueError("declared rank %r does not match matrix" % (rank,))
    return q


def _pivots(q: GramMatrix):
    """Fraction-free (Bareiss) elimination, yielding the signed pivot of
    each step k = 0, 1, ... before any row swap at that step.

    Until a zero pivot forces a row swap, pivot k is exactly the leading
    principal minor of order k+1.  The last pivot yielded is always the
    determinant: it carries the sign of the swaps, and it is 0 when no
    nonzero pivot is left.
    """
    n = q.rank
    rows = [list(r) for r in q.entries]
    sign = prev = 1
    for k in range(n):
        yield sign * rows[k][k]
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                return
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: Bareiss guarantees prev divides this.
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
        prev = pivot


def determinant(q: GramMatrix) -> int:
    """Exact determinant: the last Bareiss pivot (1 for rank 0)."""
    det = 1
    for det in _pivots(q):
        pass
    return det


def first_sylvester_violation(q: GramMatrix, minors: list[int] | None = None) -> int | None:
    """The smallest k (1-based) whose leading k x k minor breaks the
    alternating-sign test for negative definiteness, or None.

    A zero minor counts as a violation (definite forms have none), so the
    scan stops before elimination would ever swap rows.  When ``minors``
    is a list, every leading minor scanned is appended to it; after a scan
    that finds no violation its last entry is det Q.
    """
    for k, minor in enumerate(_pivots(q)):
        if minors is not None:
            minors.append(minor)
        if minor == 0 or (minor < 0) != (k % 2 == 0):
            return k + 1
    return None


def _satisfies_wu(masks: list[int], diag: list[int], bits: int) -> bool:
    """Whether ``bits`` solves Q w = diag(Q) mod 2, Q given by its rows mod
    2 as bitmasks."""
    return all((mask & bits).bit_count() & 1 == d for mask, d in zip(masks, diag))


def wu_solutions(masks: list[int], diag: list[int]) -> list[int]:
    """All 0/1 solutions of Q w = diag(Q) over GF(2) as bitmasks (bit k is
    w_k), from Q's rows mod 2 as bitmasks and diag(Q) mod 2.

    A symmetric system is always solvable, with 2^(nullity of Q mod 2)
    solutions: one exactly when det(Q) is odd.  A row is reduced by the
    stored row of its lowest pivot column until none is left; each XOR
    clears that column and touches only higher ones, so sparse rows (a
    tree's, each child's column below its parent's) stay sparse.  Checking
    a solution p and each p + b_i, b_i a kernel basis, checks them all.
    Raises ValueError when 2^nullity * rank exceeds MAX_WU_BITS.
    """
    n = len(masks)
    reduced: dict[int, tuple[int, int]] = {}  # pivot column -> (mask, rhs)
    pivots = 0  # the pivot columns, as a bitmask
    for mask, rhs in zip(masks, diag):
        while hit := mask & pivots:
            pmask, prhs = reduced[(hit & -hit).bit_length() - 1]
            mask, rhs = mask ^ pmask, rhs ^ prhs
        if mask:
            reduced[(mask & -mask).bit_length() - 1] = (mask, rhs)
            pivots |= mask & -mask
        elif rhs:
            # diag(Q) always lies in the GF(2) column space of symmetric Q
            raise AssertionError("inconsistent characteristic-vector system")
    nullity = n - len(reduced)
    if n << nullity > MAX_WU_BITS:
        raise ValueError("too many Wu classes to list: 2^%d at rank %d exceeds "
                         "the bound of %d bits" % (nullity, n, MAX_WU_BITS))

    back = sorted(reduced.items(), reverse=True)

    def solve(free: int) -> int:
        # Back-substitute, highest pivot first, from the free bits given.
        bits = free
        for pcol, (pmask, prhs) in back:
            bits |= (prhs ^ ((pmask & bits).bit_count() & 1)) << pcol
        return bits

    # p, then p + b_i for the free column i of each basis vector b_i.
    checked = [solve(0)] + [solve(1 << col) for col in range(n) if not (pivots >> col) & 1]
    for bits in checked:
        if not _satisfies_wu(masks, diag, bits):
            raise RuntimeError("Wu class solver produced a vector that does not verify")
    classes = checked[:1]
    for bits in checked[1:]:
        classes += [c ^ bits ^ checked[0] for c in classes]
    return classes


def wu_classes(q: GramMatrix) -> list[tuple[int, ...]]:
    """All Wu classes, the 0/1 solutions of Q w = diag(Q) over GF(2), as
    sorted bit tuples indexed like the rows of Q: ``wu_solutions`` of Q
    read once mod 2, as row bitmasks and diag(Q) mod 2."""
    masks = [sum(1 << k for k, x in enumerate(row) if x & 1) for row in q.entries]
    diag = [row[i] & 1 for i, row in enumerate(q.entries)]
    return sorted(tuple((bits >> k) & 1 for k in range(q.rank))
                  for bits in wu_solutions(masks, diag))


def mu_bar(q: GramMatrix) -> int:
    """Signature minus w^T Q w for the unique 0/1 Wu class w.

    For a negative definite form the signature is -rank.  Raises
    NotDefiniteError unless Q is negative definite, and NonUniqueSpinError
    when det(Q) is even (two or more Wu classes, no canonical choice).
    """
    minors = [1]  # so that rank 0 has determinant 1
    definite = first_sylvester_violation(q, minors) is None
    check_mu_bar(minors[-1] if definite else None)
    w = wu_classes(q)[0]
    support = [i for i, bit in enumerate(w) if bit]
    return -q.rank - sum(q.entries[i][j] for i in support for j in support)


def check_mu_bar(det: int | None) -> None:
    """Refuse what mu_bar refuses, given det Q, or None when Q is not
    negative definite.  Odd det Q is exactly an invertible Q mod 2, so
    even det is refused before wu_classes lists 2^nullity classes."""
    if det is None:
        raise NotDefiniteError("mu_bar needs a negative definite form")
    if det % 2 == 0:
        raise NonUniqueSpinError("mu_bar needs odd determinant; the determinant is %d" % det)
