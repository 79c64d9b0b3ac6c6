"""The four obstruct workloads and frozen copies of their generators.

The generators are copies, not imports, of ``random_valid_tree`` in
tests/oracles.py and ``plumbcap.plumbing.generate_gamma_n``, so that an
edit to either cannot change a workload.  Each takes its seed or size as
an argument.  ``build`` turns a workload name into the graphs one pass
runs, each with the verdict the run must give.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from oracle import is_negative_definite_tree

NAMES = ("gamma", "census", "lens", "wide")

GAMMA_N = range(2, 11)
CENSUS_SEED = 60902
CENSUS_SIZE = 500
LENS_M_BELOW = 20
WIDE_N = (4, 33, 65, 97, 129, 161, 199)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Graph:
    name: str
    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    all_roots: bool = False
    # The verdict the run must give, or None when no reference exists.
    verdict: str | None = None

    def text(self) -> str:
        """plumbcap's canonical graph text: vertices by id, then edges."""
        lines = ["v %d %d" % ve for ve in sorted(self.vertices)]
        lines += ["e %d %d" % e for e in sorted((min(a, b), max(a, b)) for a, b in self.edges)]
        return "\n".join(lines) + "\n"


def gamma_n(n: int):
    """Central -(n+1) vertex with a -4,-2 leg, a -3 fork with two -3
    leaves, and a -4 vertex followed by a chain of n-1 vertices framed -2."""
    vertices = [(0, -4), (1, -2), (2, -(n + 1)), (3, -3), (4, -3), (5, -3), (6, -4)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (2, 6)]
    for k in range(7, n + 6):
        vertices.append((k, -2))
        edges.append((k - 1, k))
    return tuple(vertices), tuple(edges)


def random_valid_tree(rng: random.Random, max_vertices: int = 8):
    """A random negative definite tree with framings in [-6, -1] and
    |e_v| >= deg(v); draws exactly the random numbers the test oracle
    draws, so a seed gives the same trees."""
    while True:
        n = rng.randint(1, max_vertices)
        degrees = [0] * n
        edges = []
        stuck = False
        for v in range(1, n):
            choices = [u for u in range(v) if degrees[u] < 6]
            if not choices:
                stuck = True
                break
            u = rng.choice(choices)
            edges.append((u, v))
            degrees[u] += 1
            degrees[v] += 1
        if stuck:
            continue
        vertices = tuple((v, -rng.randint(max(degrees[v], 1), 6)) for v in range(n))
        if is_negative_definite_tree(vertices, edges):
            return vertices, tuple(edges)


def hj_chain(p: int, q: int) -> list[int]:
    """Hirzebruch-Jung continued fraction p/q = a1 - 1/(a2 - ...), ai >= 2."""
    coefficients = []
    while q:
        a = -(-p // q)
        coefficients.append(a)
        p, q = q, a * q - p
    return coefficients


def chain_graph(coefficients):
    vertices = tuple((i, -a) for i, a in enumerate(coefficients))
    edges = tuple((i, i + 1) for i in range(len(coefficients) - 1))
    return vertices, edges


def lisca_family(m_below: int):
    """(m, k, p, q) with p = m^2, q = mk - 1, 1 <= k < m, gcd(m, k) = 1.

    By Lisca (Geom. Topol. 11, 2007) L(p, q) bounds a rational ball, and
    so does L(p, p - q), so neither chain may ever be obstructed.
    """
    return [(m, k, m * m, m * k - 1)
            for m in range(2, m_below) for k in range(1, m) if gcd(m, k) == 1]


def load_reference() -> dict:
    """Per-graph results frozen from plumbcap, by workload and graph name:
    verdict, roots, dual rank and node counts."""
    return json.loads(REFERENCE_PATH.read_text())


def frozen(workload: str, reference: dict, census_seed: int) -> dict:
    """The reference results that apply to this run of ``workload``; a
    census from another seed has none."""
    if workload == "census" and census_seed != CENSUS_SEED:
        return {}
    return reference.get(workload, {})


def build(workload: str, reference: dict, census_seed: int = CENSUS_SEED) -> list[Graph]:
    """The graphs of one pass.  Census and wide verdicts come from
    ``reference``."""
    results = frozen(workload, reference, census_seed)

    def verdict(name):
        return results.get(name, {}).get("verdict")

    if workload == "gamma":
        return [Graph("gamma-%d" % n, *gamma_n(n),
                      verdict=INCONCLUSIVE if n == 2 else OBSTRUCTED)
                for n in GAMMA_N]
    if workload == "census":
        rng = random.Random(census_seed)
        names = ["census-%03d" % i for i in range(CENSUS_SIZE)]
        return [Graph(name, *random_valid_tree(rng), verdict=verdict(name)) for name in names]
    if workload == "lens":
        graphs = []
        for m, k, p, q in lisca_family(LENS_M_BELOW):
            for side, qq in (("a", q), ("b", p - q)):
                graphs.append(Graph("lens-%d-%d%s" % (m, k, side),
                                    *chain_graph(hj_chain(p, qq)),
                                    all_roots=True, verdict=INCONCLUSIVE))
        return graphs
    if workload == "wide":
        return [Graph("wide-%d" % n, ((0, -n),), (), verdict=verdict("wide-%d" % n))
                for n in WIDE_N]
    raise ValueError("unknown workload %r" % workload)


def sizes(workload: str) -> str:
    """The workload's size, as recorded with every result."""
    return {
        "gamma": "gamma-n for n = %d..%d" % (GAMMA_N[0], GAMMA_N[-1]),
        "census": "%d random trees, at most 8 vertices" % CENSUS_SIZE,
        "lens": "L(m^2, mk-1) and L(m^2, m^2-mk+1) for m < %d" % LENS_M_BELOW,
        "wide": "v 0 -N for N in %s" % (list(WIDE_N),),
    }[workload]
