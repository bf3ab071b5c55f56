"""Multigraphs with edge multiplicities.

Automorphism groups come from one individualization-refinement search tree
(McKay and Piperno, *Practical graph isomorphism, II*, J. Symbolic Comput.
60, 2014).  Colour refinement gives an equitable partition: each round
splits the cells by their vertices' sorted profiles m*n + colour over the
neighbours, in profile order, and only cells next to a cell that split the
round before are profiled, which gives the ids of profiling all.  The first path
individualizes the first vertex of the first non-singleton cell and refines,
until the partition is discrete; those vertices are the base b_0..b_k.
Then, level by level from the bottom, partition backtracking looks for an
automorphism taking b_i to each vertex of its cell outside the orbit found
so far, skipping the vertices known to lie outside the level's orbit
(`chain`): it individualizes and refines, cuts branches whose colour
multiset differs from the first path's, and tests each leaf map on the
multiplicity matrix.  The generators found at levels >= i generate the
pointwise stabilizer of b_0..b_{i-1}, so the orbit of b_i under them is the
transversal of level i and no Schreier-Sims step is needed.  Each generator
at least doubles the group, so there are at most log2 |Aut| of them.  A
subgroup, given by a test `keep` at the leaves, comes from the same tree
(Leon's subgroup backtrack, J. Symbolic Comput. 12, 1991, unpruned); `chain`
also builds Aut of a finite quadratic form (`gluing.automorphism_group`).  The
cost follows the symmetry, not the labels, and the order is a product of
orbit lengths: highly symmetric graphs (an edgeless graph on 60 vertices has
order 60!) never require element enumeration.

The canonical certificate is the least column-major upper-triangle encoding
of the multiplicity matrix over the vertex orderings that respect the colour
classes of the refinement, class by class.  Position p of every ordering
contributes one column of exactly p entries, the multiplicities between the
vertex placed there and the p placed before it, so encodings compare column
by column.  Hence a least-column search is exact: at each node only the
unused vertices of the slot's class whose column is least can lead to the
minimum, one of each pair of twins is tried (swapping them is an
automorphism), and a node whose least column exceeds the best encoding's
column there, after an equal prefix, is cut.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .errors import ELEMENT_CAP, CapExceeded, InputError
from .records import Record

CERTIFICATE_NODE_CAP = 2_000_000
AUTOMORPHISM_NODE_CAP = 250_000


class Multigraph(Record):
    _fields = ("mult",)

    def __init__(self, mult: tuple[tuple[int, ...], ...]):
        n = len(mult)
        for i, row in enumerate(mult):
            if len(row) != n:
                raise InputError("multiplicity matrix must be square")
            for j, m in enumerate(row):
                if not isinstance(m, int) or m < 0:
                    raise InputError("multiplicities must be nonnegative integers")
                if m != mult[j][i]:
                    raise InputError("multiplicity matrix must be symmetric")
            if row[i] != 0:
                raise InputError("multiplicity matrix must have zero diagonal")
        vars(self)["mult"] = mult

    @property
    def n(self) -> int:
        return len(self.mult)

    @staticmethod
    def from_edges(n: int, edges) -> "Multigraph":
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        m = [[0] * n for _ in range(n)]
        for i, j, k in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InputError(f"bad edge ({i}, {j})")
            if m[i][j]:
                raise InputError(f"duplicate edge ({i}, {j})")
            m[i][j] = m[j][i] = int(k)
        return Multigraph(tuple(tuple(row) for row in m))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(neighbour, multiplicity) pairs of each vertex."""
        return tuple(
            tuple((w, m) for w, m in enumerate(row) if m) for row in self.mult
        )

    def degree(self, v: int) -> int:
        return sum(self.mult[v])

    def is_automorphism(self, perm) -> bool:
        """Whether the vertex permutation `perm` takes every edge to an edge
        of the same multiplicity.  A bijection that does so maps the edge
        set onto itself, so non-edges go to non-edges as well."""
        mult = self.mult
        return all(
            mult[perm[v]][perm[w]] == m
            for v, nbrs in enumerate(self.adjacency)
            for w, m in nbrs
        )

    def induced(self, vertices) -> "Multigraph":
        vs = list(vertices)
        return Multigraph(
            tuple(tuple(self.mult[a][b] for b in vs) for a in vs)
        )


def color_refinement(graph: Multigraph, initial=None) -> tuple[int, ...]:
    """Stable vertex coloring refined by weighted neighborhood profiles.
    Color ids are canonical: isomorphic graphs get matching colors."""
    initial = [0] * graph.n if initial is None else initial
    ranking = {c: i for i, c in enumerate(sorted(set(initial)))}
    return _refine(graph, [ranking[c] for c in initial], range(graph.n))


def _refine(graph: Multigraph, colors: list[int], moved) -> tuple[int, ...]:
    """Refine the colouring with ids 0..k-1 (a list, changed in place), where
    only the cells holding a neighbour of a `moved` vertex can split first."""
    n = graph.n
    adjacency = graph.adjacency
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    while moved:
        touched = {colors[w] for v in moved for w, _ in adjacency[v]}
        moved, refined = [], []
        for c, cell in enumerate(cells):
            if c not in touched or len(cell) == 1:
                refined.append(cell)
                continue
            parts: dict = {}
            for v in cell:
                profile = sorted([m * n + colors[w] for w, m in adjacency[v]])
                parts.setdefault(tuple(profile), []).append(v)
            refined += [parts[profile] for profile in sorted(parts)]
            if len(parts) > 1:
                moved += cell
        cells = refined
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
    return tuple(colors)


def compose_perm(a, b) -> tuple[int, ...]:
    """a after b.  `itemgetter` returns a bare entry for one index and
    fails for none, so the shortest permutations take the generator."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    return tuple(a[i] for i in b)


def invert_perm(a) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class PermutationGroup:
    """Permutation group on {0..n-1} held as a stabilizer chain: level i
    maps each point of the orbit of base point b_i under the pointwise
    stabilizer of b_0..b_{i-1} to an element taking b_i there."""

    __slots__ = ("n", "base", "levels", "strong")

    def __init__(self, n: int, base, levels, strong):
        self.n = n
        self.base = base
        self.levels = levels
        self.strong = strong

    def order(self) -> int:
        total = 1
        for level in self.levels:
            total *= len(level)
        return total

    def involutions(self) -> list[tuple[int, ...]]:
        """The g with g∘g = 1, identity included, sorted, by a depth-first
        walk of the transversals.  A partial product h = t_0∘…∘t_i completes
        to h∘k, k in the stabilizer G_i of b_0..b_i, and an involution h∘k
        has h(b_j) = (h∘k)^-1(b_j) in the G_i-orbit of h^-1(b_j), j <= i; a
        branch where this fails is cut.  The walk carries h^-1 on the base
        points, as (h∘t)^-1(b) = t^-1(h^-1(b)), and composes h∘t only for a
        branch it enters.  The stabilizer of the whole base is trivial, so
        the last level's test asks h(b) = h^-1(b) at every base point, and an
        element is fixed by its base images: every leaf is an involution.
        CapExceeded past `ELEMENT_CAP` nodes."""
        n, base = self.n, self.base
        # orbit[i][x]: the least point of the G_i-orbit of x, merged from the
        # bottom up over the strong generators fixing b_0..b_i
        orbit, label = [None] * len(base), list(range(n))
        pending = sorted(self.strong, key=lambda s: [s[b] == b for b in base])
        for i in reversed(range(len(base))):
            while pending and all(pending[-1][b] == b for b in base[: i + 1]):
                for x, y in enumerate(pending.pop()):
                    old, new = max(label[x], label[y]), min(label[x], label[y])
                    if old != new:
                        label = [new if c == old else c for c in label]
            orbit[i] = label
        steps = [[(t, invert_perm(t)) for t in level.values()] for level in self.levels]
        found, nodes = [], 0

        def walk(h, h_inv, i):
            # h_inv[j] = h^-1(b_j) for every base point
            nonlocal nodes
            nodes += 1
            if nodes > ELEMENT_CAP:
                raise CapExceeded(
                    f"involution walk exceeds the cap of {ELEMENT_CAP} nodes"
                )
            if i == len(base):
                found.append(h)
                return
            cut, prefix = orbit[i], base[: i + 1]
            for t, t_inv in steps[i]:
                if all(cut[h[t[b]]] == cut[t_inv[x]] for b, x in zip(prefix, h_inv)):
                    walk(compose_perm(h, t), [t_inv[x] for x in h_inv], i + 1)

        walk(tuple(range(n)), list(base), 0)
        return sorted(found)

    def conjugation_orbits(self, seeds) -> list[list[tuple[int, ...]]]:
        """The conjugacy class of each seed, a group member, skipping seeds
        an earlier class covers; each starts with its seed.  It is the orbit
        under conjugation by the strong generators (Holt, Eick and O'Brien,
        *Handbook of Computational Group Theory*, 2005, section 4.1); a
        conjugate is keyed by its base images a[x[a⁻¹(b)]], composed if new."""
        moves = [(a, invert_perm(a)) for a in self.strong]
        moves = [(a, a_inv, [a_inv[b] for b in self.base]) for a, a_inv in moves]
        seen: set = set()
        out = []
        for seed in seeds:
            key = tuple([seed[b] for b in self.base])
            if key in seen:
                continue
            seen.add(key)
            orbit = [seed]
            for x in orbit:
                for a, a_inv, pre in moves:
                    key = tuple([a[x[p]] for p in pre])
                    if key not in seen:
                        seen.add(key)
                        orbit.append(compose_perm(a, compose_perm(x, a_inv)))
            out.append(orbit)
        return out


def chain(n: int, base, extend) -> PermutationGroup:
    """The stabilizer chain on `base` of the group generated by the
    elements `extend(i, w)` returns, each fixing b_0..b_{i-1} and taking b_i
    to w (None when the group has none).  Level i, built from the bottom,
    asks only for points w outside the orbit found so far, so each element
    at least doubles the group: at most log2 |group| strong generators.
    Nor does it ask for a point known to lie outside the level's orbit:
    when w has no element, neither has any point of w's orbit under the
    strong generators found so far, which fix b_0..b_{i-1} and so map the
    orbit of b_i onto itself.  Only calls that return None are skipped."""
    strong: list[tuple[int, ...]] = []
    levels = []
    for i in reversed(range(len(base))):
        level = {base[i]: tuple(range(n))}
        outside: set[int] = set()
        for w in range(n):
            if w in level or w in outside:
                continue
            g = extend(i, w)
            if g is None:
                outside.add(w)
                fresh = [w]
                for x in fresh:
                    for s in strong:
                        if s[x] not in outside:
                            outside.add(s[x])
                            fresh.append(s[x])
                continue
            strong.append(g)
            orbit = list(level)
            for x in orbit:
                for s in strong:
                    if s[x] not in level:
                        level[s[x]] = compose_perm(s, level[x])
                        orbit.append(s[x])
        levels.append(level)
    return PermutationGroup(n, tuple(base), levels[::-1], strong)


def graph_automorphism_group(graph: Multigraph, keep=None) -> PermutationGroup:
    """The automorphisms that `keep` accepts (all when None; they must form
    a group) from one search tree (module docstring).  A coset with no kept
    element is searched leaf by leaf: CapExceeded past `ELEMENT_CAP` tests."""
    n = graph.n
    nodes = tests = 0

    def accepts(perm) -> bool:
        nonlocal tests
        tests += 1
        if tests > ELEMENT_CAP:
            raise CapExceeded(f"subgroup search exceeds the cap of {ELEMENT_CAP} tests")
        return keep(perm)

    def individualize(colors, v):
        nonlocal nodes
        nodes += 1
        if nodes > AUTOMORPHISM_NODE_CAP:
            raise CapExceeded("automorphism search exceeded the node cap")
        # colors is equitable, so only cells next to v can split first
        t = colors[v]
        initial = [c + (c > t or c == t and u != v) for u, c in enumerate(colors)]
        return _refine(graph, initial, [v])

    path = [color_refinement(graph)]
    base: list[int] = []
    while max(path[-1], default=0) < n - 1:
        colors = path[-1]
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        base.append(colors.index(min(c for c in colors if sizes[c] > 1)))
        path.append(individualize(colors, base[-1]))
    shapes = [sorted(colors) for colors in path]

    def search(colors, depth, candidates):
        """An automorphism taking the first path from `depth` on to a path
        through `colors` and one of `candidates` in the cell of b_depth, or
        None.  Branches whose colour multiset differs from the first
        path's are cut."""
        target = path[depth][base[depth]]
        for x in candidates:
            if colors[x] != target:
                continue
            child = individualize(colors, x)
            if sorted(child) != shapes[depth + 1]:
                continue
            if depth + 1 == len(base):
                at = [0] * n
                for u, c in enumerate(child):
                    at[c] = u
                perm = tuple(at[c] for c in path[-1])
                if graph.is_automorphism(perm) and (keep is None or accepts(perm)):
                    return perm
                continue
            found = search(child, depth + 1, range(n))
            if found is not None:
                return found
        return None

    return chain(n, base, lambda depth, w: search(path[depth], depth, [w]))


def canonical_certificate(graph: Multigraph) -> str:
    """Isomorphism-invariant certificate: two multigraphs get equal strings
    exactly when they are isomorphic.  It is the least encoding over the
    orderings that respect the refined colour classes, found by the
    least-column search of the module docstring; more than
    `CERTIFICATE_NODE_CAP` nodes raise CapExceeded."""
    n = graph.n
    if n == 0:
        return "0|"
    mult = graph.mult
    colors = color_refinement(graph)
    classes: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    slots = [c for c, cls in enumerate(classes) for _ in cls]

    best: list[int] | None = None
    enc: list[int] = []
    chosen: list[int] = []
    used = [False] * n
    nodes = 0

    def twins(u: int, v: int) -> bool:
        # the transposition (u v) is an automorphism, so only one of the
        # pair needs to be tried at any position
        row_u, row_v = mult[u], mult[v]
        return all(
            row_u[w] == row_v[w] for w in range(n) if w != u and w != v
        )

    def extend(pos: int):
        nonlocal best, nodes
        if pos == n:
            # every node on the path kept enc <= best, so this leaf is the
            # least encoding found so far
            best = enc.copy()
            return
        least: list[int] | None = None
        candidates: list[int] = []
        for v in classes[slots[pos]]:
            if used[v]:
                continue
            row = mult[v]
            col = [row[u] for u in chosen]
            if least is None or col < least:
                least, candidates = col, [v]
            elif col == least:
                candidates.append(v)
        base = len(enc)
        if (
            best is not None
            and best[:base] == enc
            and least > best[base : base + pos]
        ):
            return
        enc.extend(least)
        tried: list[int] = []
        for v in candidates:
            if any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            nodes += 1
            if nodes > CERTIFICATE_NODE_CAP:
                raise CapExceeded("certificate search exceeded the node cap")
            chosen.append(v)
            used[v] = True
            extend(pos + 1)
            used[v] = False
            chosen.pop()
        del enc[base:]

    extend(0)
    return f"{n}|" + ",".join(str(x) for x in best)


def girth(graph: Multigraph) -> int | None:
    """Length of a shortest cycle; a repeated edge is a 2-cycle.  None when
    the graph is acyclic.  Otherwise every cycle has length at least 3, so
    a triangle ends the search.  A breadth-first search from each vertex
    first finds, while it expands depth d, only cycles of length at least
    2d + 1, so it stops at the first depth where that cannot improve on the
    best cycle found so far."""
    adjacency = graph.adjacency
    if any(m >= 2 for nbrs in adjacency for _, m in nbrs):
        return 2
    adj = [[w for w, _ in nbrs] for nbrs in adjacency]
    best: int | None = None
    for s in range(graph.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        depth = 0
        while queue and (best is None or 2 * depth + 1 < best):
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = depth + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        cycle = depth + dist[y] + 1
                        if best is None or cycle < best:
                            if cycle == 3:
                                return 3
                            best = cycle
            queue = nxt
            depth += 1
    return best
