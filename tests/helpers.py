"""Test helpers and oracles that the package itself has no use for."""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import lcm

from k3lines import multigraph
from k3lines.configio import load_configuration
from k3lines.errors import CapExceeded, InputError, read_utf8
from k3lines.fano import LineConfiguration, _fano_gram
from k3lines.fqf import FiniteQuadraticForm, finite_quadratic_form
from k3lines.gluing import (
    FqfIsometry,
    Isometry,
    _isometry_leaves,
    automorphism_group,
    find_isometry,
    permutation_columns,
)
from k3lines.intmat import (
    det,
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    smith_decompose,
)
from k3lines.lattices import DiscriminantData, Lattice, discriminant_data
from k3lines.multigraph import (
    Multigraph,
    PermutationGroup,
    compose_perm,
    invert_perm,
)
from k3lines.records import Record

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


def fraction_diagonal_basis(m):
    """Test-only oracle: rational congruence reduction, as (vector, norm)
    pairs.  A vector of nonzero norm is split off and the others are made
    orthogonal to it; when every remaining vector is isotropic, one of a
    pair x, y with x·y != 0 becomes x + y."""
    n = len(m)
    gram = [[Fraction(x) for x in row] for row in m]
    vecs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    idx = list(range(n))
    out = []
    while idx:
        k = next((i for i in idx if gram[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in idx for j in idx if gram[i][j] != 0), None
            )
            if pair is None:
                return out + [(vecs[i], Fraction(0)) for i in idx]
            i, j = pair
            vecs[i] = [x + y for x, y in zip(vecs[i], vecs[j])]
            for r in idx:
                gram[r][i] += gram[r][j]
            for c in idx:
                gram[i][c] += gram[j][c]
            continue
        d = gram[k][k]
        out.append((vecs[k], d))
        idx.remove(k)
        for a in idx:
            f = gram[a][k] / d
            if f:
                vecs[a] = [x - f * y for x, y in zip(vecs[a], vecs[k])]
                for b in idx:
                    gram[a][b] -= f * gram[k][b]
    return out


def sign_structure_action(lattice: Lattice, isometry: Isometry) -> int:
    """+1 if the isometry preserves the orientation of a maximal positive
    definite subspace, -1 if it reverses it.  The subspace is spanned by the
    positive vectors of `fraction_diagonal_basis`, each cleared of its
    denominators, which keeps its direction."""
    if lattice.signature[2]:
        raise ValueError("sign structure needs a nondegenerate lattice")
    basis = [
        [int(x * lcm(*(y.denominator for y in vec))) for x in vec]
        for vec, d in fraction_diagonal_basis(lattice.gram)
        if d > 0
    ]
    if not basis:
        return 1
    images = [mat_vec(isometry.matrix, vec) for vec in basis]
    value = det([[lattice.pairing(u, w) for w in images] for u in basis])
    if value == 0:
        raise ValueError("isometry degenerates the positive subspace pairing")
    return 1 if value > 0 else -1


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


class InvolutionClass(Record):
    _fields = ("representative", "size", "members")

    def __init__(
        self,
        representative: FqfIsometry,
        size: int,
        members: frozenset[tuple[tuple[int, ...], ...]],
    ):
        vars(self).update(
            representative=representative, size=size, members=members
        )


def involution_classes(form: FiniteQuadraticForm) -> list[InvolutionClass]:
    """Conjugacy classes of self-inverse automorphisms, the identity and the
    negation map included, each represented by its least columns.  Sorted
    by (class size, representative).

    The involutions come from the walk of `PermutationGroup.involutions`
    and the classes are their `conjugation_orbits`, so Aut is not listed."""
    group = automorphism_group(form)
    classes = []
    for orbit in group.conjugation_orbits(group.involutions()):
        members = frozenset(permutation_columns(form, g) for g in orbit)
        rep = FqfIsometry(form, form, min(members), anti=False)
        classes.append(InvolutionClass(rep, len(members), members))
    classes.sort(key=lambda c: (c.size, c.representative.columns))
    return classes


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


# -- the 48 lines of the Fermat quartic ---------------------------------------
# Line (p, a, b) is x_i = z^a x_j, x_k = z^b x_l on x0^4 + x1^4 + x2^4 + x3^4
# = 0, with ((i, j), (k, l)) = FERMAT_PAIRINGS[p], z = exp(pi i / 4) and a, b
# odd, numbered in the order of `fermat_lines`, as in tests/data/fermat48.json.
# Everything is exponent arithmetic mod 8 on these labels.

FERMAT_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def fermat_lines() -> list[tuple[int, int, int]]:
    return [(p, a, b) for p in range(3) for a in (1, 3, 5, 7) for b in (1, 3, 5, 7)]


def fermat_equations(line) -> list[tuple[int, int, int]]:
    """The two equations x_i = z^e x_j of a line, as (i, j, e)."""
    p, a, b = line
    (i, j), (k, l) = FERMAT_PAIRINGS[p]
    return [(i, j, a), (k, l, b)]


def fermat_lines_meet(x, y) -> bool:
    """Whether two lines share a point: their four equations x_i = z^e x_j
    have a common nonzero solution.  The equations are the edges of a graph
    on the coordinates, and a connected component carries a nonzero
    solution exactly when z-potentials along its edges agree, that is
    when every cycle's exponent sum is 0 mod 8."""
    adjacency: dict[int, list] = {v: [] for v in range(4)}
    for i, j, e in fermat_equations(x) + fermat_equations(y):
        adjacency[j].append((i, e))
        adjacency[i].append((j, -e))
    potential: dict[int, int] = {}
    for root in range(4):
        if root in potential:
            continue
        potential[root], stack, agree = 0, [root], True
        while stack:
            v = stack.pop()
            for w, e in adjacency[v]:
                if w not in potential:
                    potential[w] = (potential[v] + e) % 8
                    stack.append(w)
                elif potential[w] != (potential[v] + e) % 8:
                    agree = False
        if agree:
            return True
    return False


def fermat_real_structures() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(P, e) for each real structure x -> D·P·conj(x) of the Fermat
    quartic, with (D·P·y)_m = z^e_m y_P(m): P an involutive permutation of
    the coordinates, e_0 = 0, every e_m even (so that D keeps the quartic),
    and e_m - e_P(m) constant (so that the map squares to a scalar).

    These are all of them.  A real structure that keeps the plane section
    is A·conj with A a projective automorphism of the quartic, since conj
    keeps it, and A is monomial: it keeps the quartic's Hessian, a multiple
    of (x0 x1 x2 x3)^2, so it permutes the coordinate planes.  The group of
    such A, of order 4^3 · 24 = 1,536, is the automorphism group of the
    Fermat hypersurface (Kontogeorgis, *Automorphisms of Fermat-like
    varieties*, Manuscripta Math. 107, 2002)."""
    out = []
    for perm in itertools.permutations(range(4)):
        if any(perm[perm[m]] != m for m in range(4)):
            continue
        for tail in itertools.product(range(0, 8, 2), repeat=3):
            e = (0, *tail)
            if len({(e[m] - e[perm[m]]) % 8 for m in range(4)}) == 1:
                out.append((perm, e))
    return out


def fermat_image(structure, equation) -> tuple[int, int, int]:
    """The image of the plane x_i = z^a x_j under a real structure (P, e):
    y_P(i) = z^(e_P(i) - e_P(j) - a) y_P(j), with i < j."""
    perm, e = structure
    i, j, a = equation
    u, v, c = perm[i], perm[j], e[perm[i]] - e[perm[j]] - a
    return (u, v, c % 8) if u < v else (v, u, -c % 8)


def fermat_line_image(structure, line) -> tuple[int, int, int]:
    """The label of the image of a line under a real structure (P, e)."""
    image = dict(
        ((i, j), c)
        for i, j, c in (fermat_image(structure, eq) for eq in fermat_equations(line))
    )
    for p, (first, second) in enumerate(FERMAT_PAIRINGS):
        if set(image) == {first, second}:
            return (p, image[first], image[second])
    raise AssertionError(f"{line} has no image line")

