"""Deterministic input generators for the benchmark.

Every generator is a pure function of its seed.  Generated configurations
are plain JSON documents in the format `k3lines` reads; they are written to
a temporary directory at run time and never into `corpus/`.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from pathlib import Path

# -- exact arithmetic in Z[zeta_8] -------------------------------------------
# An element is a 4-tuple c with value sum(c[k] * zeta**k); zeta**4 = -1.


def _zmul(x, y):
    out = [0, 0, 0, 0]
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                k = i + j
                if k < 4:
                    out[k] += a * b
                else:
                    out[k - 4] -= a * b
    return tuple(out)


def _zeta_power(e: int):
    e %= 8
    out = [0, 0, 0, 0]
    out[e % 4] = 1 if e < 4 else -1
    return tuple(out)


def _perm_sign(p) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


def _det4_is_zero(rows) -> bool:
    """Leibniz expansion of a 4x4 determinant over Z[zeta_8], exactly."""
    total = [0, 0, 0, 0]
    for p in permutations(range(4)):
        term = (1, 0, 0, 0)
        for i in range(4):
            term = _zmul(term, rows[i][p[i]])
            if not any(term):
                break
        s = _perm_sign(p)
        for k in range(4):
            total[k] += s * term[k]
    return not any(total)


_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def fermat_lines():
    """The 48 lines x_i = zeta^a x_j, x_k = zeta^b x_l (a, b odd mod 8) on
    the Fermat quartic, each as (pairing index, a, b), with the two
    spanning vectors of the line in P^3."""
    lines = []
    for pidx, ((i, j), (k, l)) in enumerate(_PAIRINGS):
        for a in (1, 3, 5, 7):
            for b in (1, 3, 5, 7):
                zero = (0, 0, 0, 0)
                one = (1, 0, 0, 0)
                u = [zero] * 4
                v = [zero] * 4
                u[j], u[i] = one, _zeta_power(a)
                v[l], v[k] = one, _zeta_power(b)
                lines.append(((pidx, a, b), (tuple(u), tuple(v))))
    return lines


def fermat_edges():
    """Intersecting pairs among the 48 Fermat lines: two lines meet exactly
    when their four spanning vectors are linearly dependent."""
    lines = fermat_lines()
    edges = []
    for x, y in combinations(range(len(lines)), 2):
        rows = lines[x][1] + lines[y][1]
        if _det4_is_zero(rows):
            edges.append((x, y))
    n = len(lines)
    valency = [0] * n
    for x, y in edges:
        valency[x] += 1
        valency[y] += 1
    if n != 48 or len(edges) != 336 or set(valency) != {14}:
        raise AssertionError(
            f"Fermat quartic: {n} lines, {len(edges)} edges, "
            f"valencies {sorted(set(valency))}"
        )
    return n, edges


def fermat_subconfiguration(k: int, rng: random.Random):
    """k of the 48 Fermat lines, chosen by rng, with their intersections."""
    n, edges = fermat_edges()
    keep = sorted(rng.sample(range(n), k))
    index = {v: i for i, v in enumerate(keep)}
    return k, [
        (index[a], index[b], 1)
        for a, b in edges
        if a in index and b in index
    ]


def random_multigraph(n: int, density: float, rng: random.Random):
    """A multigraph in the style of the fragment-oracle acceptance test:
    each pair is joined with probability `density`, with multiplicity drawn
    from (1, 1, 2, 3)."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, rng.choice((1, 1, 2, 3))))
    return n, edges


# Catalog graphs as (home degree, lines, edges), written out here so that
# the benchmark does not take its inputs from the program under test.
CATALOG = {
    "cube": (8, 8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                    if bin(a ^ b).count("1") == 1]),
}


def permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    """A relabeling: vertex v of a generated graph becomes perm[v]."""
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def config_document(degree, n, edges, perm, transcendental=None):
    """A `k3lines` configuration document; `edges` holds (i, j) or
    (i, j, multiplicity), and `perm` relabels the vertices."""
    out = []
    for edge in edges:
        a, b = perm[edge[0]], perm[edge[1]]
        mult = edge[2] if len(edge) > 2 else 1
        out.append([min(a, b), max(a, b), mult])
    out.sort()
    doc = {"degree": degree, "vertices": n, "edges": out}
    if transcendental is not None:
        doc["transcendental"] = transcendental
    return doc


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
