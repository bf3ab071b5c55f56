"""Test helpers and oracles that the package itself has no use for."""

from __future__ import annotations

import operator
from fractions import Fraction

from k3lines import multigraph
from k3lines.configio import load_configuration
from k3lines.errors import CapExceeded, InputError, read_utf8
from k3lines.fano import LineConfiguration, _fano_gram
from k3lines.fqf import (
    FiniteQuadraticForm,
    FqfIsometry,
    _isometry_leaves,
    find_isometry,
    finite_quadratic_form,
)
from k3lines.intmat import (
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    smith_decompose,
)
from k3lines.lattices import (
    DiscriminantData,
    Isometry,
    Lattice,
    discriminant_data,
)
from k3lines.multigraph import (
    Multigraph,
    PermutationGroup,
    compose_perm,
    invert_perm,
)

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


def read_configuration(path) -> LineConfiguration:
    """Load a configuration from a UTF-8 file."""
    return load_configuration(read_utf8(path)[1])


def class_sum_in_radical(cfg: LineConfiguration, vertices) -> bool:
    """Whether sum(v in S) - h lies in the radical of the Fano form, i.e.
    pairs to zero with every line and with h."""
    n = cfg.graph.n
    chosen = set(vertices)
    if not chosen <= set(range(n)):
        raise InputError(f"vertices outside 0..{n - 1}")
    x = [1 if v in chosen else 0 for v in range(n)] + [-1]
    return not any(mat_vec(_fano_gram(cfg), x))


def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """The finite quadratic form on dual(L)/L; its order is |det L|."""
    return discriminant_data(lattice.gram).form


def invariants_match(a: Lattice, b: Lattice) -> bool:
    """Rank, signature, determinant and discriminant-form isometry class all
    agree.  For the small lattices the tests compare (rank <= 3, or any
    indefinite rank where the genus has one class) this decides isometry."""
    if a.rank != b.rank or a.signature != b.signature:
        return False
    if a.determinant != b.determinant:
        return False
    if a.rank == 0:
        return True
    return find_isometry(discriminant_form(a), discriminant_form(b)) is not None


def norm(lattice: Lattice, vec) -> int:
    return lattice.pairing(vec, vec)


def compose_isometries(outer: Isometry, inner: Isometry) -> Isometry:
    """outer after inner."""
    if inner.lattice != outer.lattice:
        raise ValueError("isometries act on different lattices")
    prod = mat_mul([list(r) for r in outer.matrix], [list(r) for r in inner.matrix])
    return Isometry(outer.lattice, tuple(tuple(r) for r in prod))


def inverse_isometry(phi: Isometry) -> Isometry:
    inv = inverse_unimodular([list(r) for r in phi.matrix])
    return Isometry(phi.lattice, tuple(tuple(r) for r in inv))


def q_of(form: FiniteQuadraticForm, coords) -> Fraction:
    """q(coords) in Q/2Z, as a Fraction in [0, 2)."""
    return Fraction(form.qn_of(coords), form.exponent())


def b_of(form: FiniteQuadraticForm, x, y) -> Fraction:
    """b(x, y) in Q/Z, as a Fraction in [0, 1)."""
    n = form.exponent()
    return Fraction(sum(map(operator.mul, x, form.dual_of(y))) % n, n)


def pairing(form: FiniteQuadraticForm) -> tuple[tuple[Fraction, ...], ...]:
    """b between the generators, as Fractions in [0, 1)."""
    n = form.exponent()
    return tuple(tuple(Fraction(x, n) for x in row) for row in form.bn)


def fqf_isometries(
    source: FiniteQuadraticForm,
    target: FiniteQuadraticForm,
    anti: bool = False,
) -> list[FqfIsometry]:
    """All isometries (anti=False) or anti-isometries (anti=True) from
    source to target, sorted canonically.  Enumerates the target group, so
    its order is capped."""
    leaves = _isometry_leaves(source, target, anti)
    return [FqfIsometry(source, target, cols, anti=anti) for cols in leaves(())]


def group_elements(group: PermutationGroup) -> list[tuple[int, ...]]:
    """Every element, sorted, as products of transversal elements; capped
    at `multigraph.ELEMENT_CAP`, read at the call."""
    cap = multigraph.ELEMENT_CAP
    if group.order() > cap:
        raise CapExceeded(f"group of order {group.order()} exceeds the cap of {cap}")
    elems = [tuple(range(group.n))]
    for level in reversed(group.levels):
        elems = [compose_perm(t, e) for t in level.values() for e in elems]
    return sorted(elems)


def group_contains(group: PermutationGroup, perm) -> bool:
    """Sift `perm` through the base points."""
    current = tuple(perm)
    if len(current) != group.n:
        return False
    for b, level in zip(group.base, group.levels):
        if current[b] not in level:
            return False
        current = compose_perm(invert_perm(level[current[b]]), current)
    return current == tuple(range(group.n))


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
    lattice, given with rational entries on the rows of the Gram matrix:
    `class_of` on its pairings with them."""
    pair = mat_vec(data.gram, [Fraction(x) for x in dual_vector])
    if any(x.denominator != 1 for x in pair):
        raise ValueError("vector is not in the dual lattice")
    return data.class_of([int(x) for x in pair])


def direct_sum(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> FiniteQuadraticForm:
    """The orthogonal sum of two forms, normalized by
    `finite_quadratic_form` from their rational values."""
    zeros1, zeros2 = (0,) * a.rank(), (0,) * b.rank()
    pair = [row + zeros2 for row in pairing(a)]
    pair += [zeros1 + row for row in pairing(b)]
    return finite_quadratic_form(a.orders + b.orders, a.qvalues + b.qvalues, pair)


def dual_vectors(data: DiscriminantData) -> tuple[tuple[Fraction, ...], ...]:
    """The generators of the discriminant form as dual vectors on the rows
    of the Gram matrix, a basis or a generating system: V[:, i] / d_i."""
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
