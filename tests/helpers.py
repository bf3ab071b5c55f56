"""Test helpers and oracles that the package itself has no use for."""

from __future__ import annotations

from fractions import Fraction

from k3lines.fqf import FiniteQuadraticForm, FqfIsometry, finite_quadratic_form
from k3lines.intmat import identity, mat_vec, smith_decompose
from k3lines.lattices import DiscriminantData, Isometry, Lattice
from k3lines.multigraph import Multigraph

# Lattice expressions that the lattice and acceptance suites sweep.
BUILTIN_SPECS: tuple[str, ...] = (
    "[2]",
    "[-2]",
    "[4]",
    "[-6]",
    "[8]",
    "[2,1,4]",
    "[8,4,8]",
    "U",
    "U(2)",
    "U(3)",
    "2U",
    "2U(3)",
    "3U",
    "A1",
    "A2",
    "A3",
    "A2(-1)",
    "D4",
    "D5",
    "E6",
    "E7",
    "E8",
    "E8(-1)",
    "U+A2",
    "2E8+3U",
)


def relabel(graph: Multigraph, perm) -> Multigraph:
    """The graph with vertex i renamed perm[i]."""
    n = graph.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = graph.mult[i][j]
    return Multigraph(tuple(tuple(row) for row in out))


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, tuple(tuple(r) for r in identity(lattice.rank)))


def is_identity(phi: FqfIsometry) -> bool:
    """Whether phi is the identity isometry of its source."""
    if phi.source != phi.target or phi.anti:
        return False
    k = phi.source.rank()
    return phi.columns == tuple(
        tuple(int(i == j) for i in range(k)) for j in range(k)
    )


def kernel_vectors(cfg) -> tuple[tuple[Fraction, ...], ...]:
    """A configuration's kernel read back as rational vectors."""
    den = cfg.kernel_denominator
    return tuple(
        tuple(Fraction(x, den) for x in row) for row in cfg.kernel_numerators
    )


def coordinates(data: DiscriminantData, dual_vector) -> tuple[int, ...]:
    """Coordinates in the generator presentation of a vector of the dual
    lattice, given in lattice coordinates with rational entries: `class_of`
    on its pairings with the lattice basis."""
    pair = mat_vec(data.lattice.gram, [Fraction(x) for x in dual_vector])
    if any(x.denominator != 1 for x in pair):
        raise ValueError("vector is not in the dual lattice")
    return data.class_of([int(x) for x in pair])


def direct_sum(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """The orthogonal sum of two forms, normalized by
    `finite_quadratic_form` from their rational values."""
    zeros1, zeros2 = (0,) * a.rank(), (0,) * b.rank()
    pair = [row + zeros2 for row in a.pairing]
    pair += [zeros1 + row for row in b.pairing]
    return finite_quadratic_form(a.orders + b.orders, a.qvalues + b.qvalues, pair)


def dual_vectors(data: DiscriminantData) -> tuple[tuple[Fraction, ...], ...]:
    """The generators of the discriminant form as dual vectors in lattice
    coordinates: V[:, i] / d_i."""
    return tuple(
        tuple(Fraction(x, d) for x in col)
        for col, d in zip(data.smith_v, data.form.orders)
    )


def matrix_rank(m) -> int:
    """The rank of an integer matrix, read off its Smith form."""
    s, _, _ = smith_decompose(m)
    return sum(1 for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i])


def bfs_girth(graph: Multigraph) -> int | None:
    """Shortest cycle length by a full breadth-first search from every
    vertex, with no early stop; a repeated edge is a 2-cycle, and an
    acyclic graph gives None."""
    adjacency = graph.adjacency
    if any(m >= 2 for nbrs in adjacency for _, m in nbrs):
        return 2
    adj = [[w for w, _ in nbrs] for nbrs in adjacency]
    best: int | None = None
    for s in range(graph.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        cycle = dist[x] + dist[y] + 1
                        if best is None or cycle < best:
                            best = cycle
            queue = nxt
    return best
