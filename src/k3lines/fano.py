"""Line configurations on polarized K3 surfaces.

A configuration is a multigraph of lines (each line v has v**2 = -2 and
v.h = 1, two lines pair by their edge multiplicity, h**2 = the polarization
degree 2d) together with optional finite-index extension data: rational
vectors in the span of the lines and h whose classes generate an isotropic
subgroup of the discriminant form.  The extension data pins down the actual
line lattice N inside the K3 lattice.

A hyperplane-section fragment is a set of 2d lines summing to h.  Pairing
that equation with a member line forces intra-subset weighted valency exactly
3, and that combinatorial condition is what the enumeration uses; the class
sum test against the radical is available separately and implies 3-regularity
on every input.  The enumeration is a deficit-driven connected-subgraph
search (Wernicke, *Efficient detection of network motifs*, IEEE/ACM TCBB
2006): it grows the fragment one 3-regular component at a time and branches
only where some chosen line is still short of valency 3.

Real-structure candidates pair a graph involution with the global sign -1, so
real lines are the fixed vertices.  They are taken one per conjugacy class of
involutions in the polarized stabilizer; each class is a conjugation orbit
under the stabilizer's generators (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, section 4.1).  Admissibility of a
candidate is decided by gluing its discriminant action to a sign-reversing
involution on the transcendental side, or by the arithmetic screening rules
when no transcendental representative is supplied.

`Analysis` holds all of this for one configuration and computes each part
once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InputError
from .intmat import (
    integral_kernel_with_complement,
    mat_mul,
    mat_vec,
    matrix_rank,
    transpose,
)
from .lattices import Lattice, discriminant_data
from .multigraph import (
    Multigraph,
    PermutationGroup,
    canonical_certificate,
    compose_perm,
    girth,
    graph_automorphism_group,
    invert_perm,
)
from .records import Record

# `fqf` and `realcrit` are imported inside the methods that use them: the
# fragment census needs neither, and a fresh process would pay to load them.

K3_RANK = 22
MAX_MULTIPLICITY = 3


class LineConfiguration(Record):
    """A polarized line multigraph with optional lattice-extension data.

    kernel entries are rational coordinate vectors of length n+1 on the basis
    (lines..., h).  Each must pair integrally with every line and with h, have
    even self-pairing, and pair integrally with the other kernel vectors, so
    that adjoining them yields an even lattice.  `kernel_pairings` keeps
    those integer pairings with (lines..., h), one row per kernel vector.
    """

    _fields = ("degree", "graph", "kernel", "transcendental")

    def __init__(
        self,
        degree: int,
        graph: Multigraph,
        kernel: tuple[tuple[Fraction, ...], ...] = (),
        transcendental: TranscendentalSpec | None = None,
    ):
        if degree < 2 or degree % 2:
            raise InputError("polarization degree must be an even integer >= 2")
        for row in graph.mult:
            for m in row:
                if m > MAX_MULTIPLICITY:
                    raise InputError(
                        f"line intersection multiplicity {m} exceeds "
                        f"{MAX_MULTIPLICITY}"
                    )
        kernel = tuple(tuple(Fraction(x) for x in vec) for vec in kernel)
        vars(self).update(
            degree=degree,
            graph=graph,
            kernel=kernel,
            transcendental=transcendental,
        )
        n = graph.n
        gram = _fano_gram(self)
        pairings = []
        for vec in kernel:
            if len(vec) != n + 1:
                raise InputError(
                    f"kernel vector length {len(vec)} != line count + 1"
                )
            pair = mat_vec(gram, vec)
            if any(x.denominator != 1 for x in pair):
                raise InputError(
                    "kernel vector does not pair integrally with the lines and h"
                )
            pairings.append(pair)
        for a, veca in enumerate(kernel):
            self_pair = sum(x * y for x, y in zip(pairings[a], veca))
            if self_pair.denominator != 1 or int(self_pair) % 2:
                raise InputError("kernel vector with odd or fractional square")
            for b in range(a):
                cross = sum(x * y for x, y in zip(pairings[a], kernel[b]))
                if cross.denominator != 1:
                    raise InputError(
                        "kernel vectors with fractional mutual pairing"
                    )
        vars(self)["kernel_pairings"] = tuple(
            tuple(int(x) for x in pair) for pair in pairings
        )

    @property
    def line_count(self) -> int:
        return self.graph.n


def _fano_gram(cfg: LineConfiguration) -> list[list[int]]:
    n = cfg.graph.n
    g = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        g[i][i] = -2
        for j in range(n):
            if i != j:
                g[i][j] = cfg.graph.mult[i][j]
        g[i][n] = g[n][i] = 1
    g[n][n] = cfg.degree
    return g


def class_sum_in_radical(cfg: LineConfiguration, vertices) -> bool:
    """Whether sum(v in S) - h lies in the radical of the Fano form."""
    radical = Analysis(cfg).radical
    n = cfg.graph.n
    x = [1 if v in set(vertices) else 0 for v in range(n)] + [-1]
    if not radical:
        return all(c == 0 for c in x)
    stacked = list(radical) + [x]
    return matrix_rank(stacked) == matrix_rank(radical)


# -- fragments ----------------------------------------------------------------


class Fragment(Record):
    _fields = ("vertices", "type_label")

    def __init__(self, vertices: tuple[int, ...], type_label: str):
        vars(self).update(vertices=vertices, type_label=type_label)


def enumerate_fragments(cfg: LineConfiguration) -> list[Fragment]:
    """All 2d-subsets with intra-subset weighted valency exactly 3 at every
    member, in lexicographic order.  `Analysis.fragments` keeps the result,
    so one analysis searches once.

    The search is deficit-driven, in the connected-subgraph enumeration
    family of Wernicke, *Efficient detection of network motifs*, IEEE/ACM
    TCBB 2006.  A fragment is a disjoint union of 3-regular components,
    built one component at a time from its lowest vertex, the start.  The
    weighted valency into the chosen set is kept for every vertex.  While
    some chosen vertex is short of 3, the search branches only on the
    neighbours of the lowest such vertex above the start: include a
    neighbour, or exclude it for the rest of the branch, so each subset is
    reached exactly once.  A branch is cut when the chosen vertices lack
    more than 3 per free slot, since each further vertex fills at most 3.
    Once every chosen vertex is saturated, the next component starts at an
    open vertex above the previous start with valency 0.  The vertex tuples
    are sorted before classification.
    """
    size = cfg.degree
    graph = cfg.graph
    n = graph.n
    adj = [[(w, m) for w, m in enumerate(row) if m] for row in graph.mult]
    valency = [0] * n  # weighted valency into the chosen set
    state = [0] * n  # 0 open, 1 chosen, 2 excluded
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []

    def include(v: int):
        state[v] = 1
        chosen.append(v)
        for w, m in adj[v]:
            valency[w] += m

    def drop(v: int):
        state[v] = 0
        chosen.pop()
        for w, m in adj[v]:
            valency[w] -= m

    def fits(v: int) -> bool:
        return valency[v] <= 3 and all(
            state[w] != 1 or valency[w] + m <= 3 for w, m in adj[v]
        )

    def extend(start: int):
        short = [v for v in chosen if valency[v] < 3]
        if not short:
            if len(chosen) == size:
                found.append(tuple(sorted(chosen)))
                return
            # a start touching the chosen set would overfill a saturated
            # vertex, and nothing checks starts again
            for s in range(start + 1, n - (size - len(chosen)) + 1):
                if state[s] == 0 and valency[s] == 0:
                    include(s)
                    extend(s)
                    drop(s)
            return
        if sum(3 - valency[v] for v in short) > 3 * (size - len(chosen)):
            return
        low = min(short)
        deficit = 3 - valency[low]
        excluded = []
        for w, m in adj[low]:
            if w <= start or state[w] or m > deficit:
                continue
            if fits(w):
                include(w)
                extend(start)
                drop(w)
            state[w] = 2
            excluded.append(w)
        for w in excluded:
            state[w] = 0

    if size <= n:
        extend(-1)
    found.sort()
    return [
        Fragment(vs, classify_fragment(graph.induced(vs))) for vs in found
    ]


def _catalog_builders() -> dict[str, Multigraph]:
    def simple(n, pairs):
        return Multigraph.from_edges(n, [(a, b, 1) for a, b in pairs])

    triangle = [(0, 1), (1, 2), (0, 2)]
    return {
        "tritangent-pair": Multigraph.from_edges(2, [(0, 1, 3)]),
        "K4": simple(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
        "prism": simple(
            6, triangle + [(3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        ),
        "K33": simple(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
        "K3+K32": simple(
            8,
            triangle
            + [(i, j) for i in (3, 4, 5) for j in (6, 7)]
            + [(0, 3), (1, 4), (2, 5)],
        ),
        "wagner": simple(
            8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
        ),
        "cube": simple(
            8,
            [
                (a, b)
                for a in range(8)
                for b in range(a + 1, 8)
                if bin(a ^ b).count("1") == 1
            ],
        ),
    }


def catalog_graph(name: str) -> Multigraph:
    builders = _catalog_builders()
    if name not in builders:
        raise InputError(f"unknown catalog graph {name!r}")
    return builders[name]


def catalog_names() -> tuple[str, ...]:
    return tuple(_catalog_builders())


@lru_cache(maxsize=None)
def _catalog_certificates(n: int) -> dict[str, str]:
    """Certificates of the catalog graphs on n vertices.  A certificate
    begins with its vertex count, so no graph of another size can match."""
    return {
        canonical_certificate(g): name
        for name, g in _catalog_builders().items()
        if g.n == n
    }


def classify_fragment(sub: Multigraph) -> str:
    """Catalog name of a 3-regular multigraph, or its canonical certificate
    when it is none of the named types."""
    for v in range(sub.n):
        if sub.degree(v) != 3:
            raise InputError("fragment subgraph must be 3-regular")
    cert = canonical_certificate(sub)
    return _catalog_certificates(sub.n).get(cert, cert)


# -- graph-level invariants ---------------------------------------------------


def graph_automorphisms(cfg) -> PermutationGroup:
    graph = cfg.graph if isinstance(cfg, LineConfiguration) else cfg
    return graph_automorphism_group(graph)


def graph_invariants(cfg) -> tuple[int, int | None, int]:
    """(rank of the lines-only Gram form, girth, automorphism group order)."""
    graph = cfg.graph if isinstance(cfg, LineConfiguration) else cfg
    n = graph.n
    lines_gram = [
        [-2 if i == j else graph.mult[i][j] for j in range(n)] for i in range(n)
    ]
    r = matrix_rank(lines_gram)
    return (r, girth(graph), graph_automorphism_group(graph).order())


# -- the polarized stabilizer -------------------------------------------------


class PolarizedIsometry(Record):
    _fields = ("permutation", "sign")

    def __init__(self, permutation: tuple[int, ...], sign: int):
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        if sorted(permutation) != list(range(len(permutation))):
            raise InputError("not a permutation")
        vars(self).update(permutation=permutation, sign=sign)


class PolarizedStabilizer(Record):
    """Subgroup of Aut(graph) x {+-1} preserving the extension kernel.

    The sign factor acts freely (negation preserves every subgroup), so the
    group is (sigma part) x {+-1} and only the permutation part is stored.
    `sigmas` is None exactly when the kernel is empty and the whole
    automorphism group qualifies without enumeration.
    """

    _fields = ("group", "sigmas", "order")

    def __init__(
        self,
        group: PermutationGroup,
        sigmas: tuple[tuple[int, ...], ...] | None,
        order: int,
    ):
        vars(self).update(group=group, sigmas=sigmas, order=order)

    def sigma_elements(self):
        if self.sigmas is None:
            return tuple(self.group.elements())
        return self.sigmas

    def contains(self, iso: PolarizedIsometry) -> bool:
        if self.sigmas is None:
            return self.group.contains(iso.permutation)
        return iso.permutation in self.sigmas

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the sigma part.  An explicit list is reduced
        greedily: each pick lies outside the subgroup the earlier picks
        generate, so there are at most log2 |sigmas| of them."""
        if self.sigmas is None:
            return self.group.generators
        from .fqf import greedy_generators

        ident = tuple(range(self.group.n))
        picks = greedy_generators(self.sigmas, compose_perm, ident)
        return tuple(picks) or (ident,)


class RealCandidate(Record):
    _fields = (
        "isometry",
        "num_r",
        "num_rr",
        "admissibility",
        "reason",
        "verdict",
        "notes",
    )

    def __init__(
        self,
        isometry: PolarizedIsometry,
        num_r: int,
        num_rr: int,
        admissibility: str,
        reason: str,
        verdict: Verdict | None = None,
        notes: tuple[str, ...] = (),
    ):
        if not (0 <= num_rr <= num_r):
            raise ValueError("fragment counts violate num_rr <= num_r")
        vars(self).update(
            isometry=isometry,
            num_r=num_r,
            num_rr=num_rr,
            admissibility=admissibility,
            reason=reason,
            verdict=verdict,
            notes=notes,
        )


def _involution_classes_of(
    stabilizer: PolarizedStabilizer,
) -> list[tuple[int, ...]]:
    """Lexicographically minimal representatives of the conjugacy classes of
    involutions (identity included) in the sigma part of the stabilizer, in
    increasing order.

    Each class is the orbit (`fqf.orbits`) of its least involution under
    conjugation by the stabilizer's generators, so a class costs |class| x
    |generators| conjugations, not |group|."""
    from .fqf import orbits

    ident = tuple(range(stabilizer.group.n))
    invs = sorted(
        g for g in stabilizer.sigma_elements() if compose_perm(g, g) == ident
    )

    def by(a):
        a_inv = invert_perm(a)
        return lambda x: tuple(a[x[i]] for i in a_inv)  # a x a^-1

    moves = [by(a) for a in stabilizer.generators]
    return [orbit[0] for orbit in orbits(invs, moves)]


# -- the analysis of one configuration ------------------------------------------


class Analysis:
    """Everything the package derives from one configuration, each item
    computed on first use and then kept.

    The Fano form lives on (lines..., h).  Its radical is split off once;
    the quotient lattice carries the discriminant data, the kernel classes
    inside its discriminant form, and the discriminant form D_N of the
    extension N.  The graph automorphism group, the polarized stabilizer and
    the fragment list are kept as well, so counting fragments under every
    candidate involution reuses one search.
    """

    def __init__(self, cfg: LineConfiguration):
        self.cfg = cfg

    # -- the Fano lattice and its quotient ----------------------------------

    # Matrices are kept as tuples of rows: every caller shares them.

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _fano_gram(self.cfg)))

    @cached_property
    def _split(self):
        radical, complement = integral_kernel_with_complement(self.gram)
        return tuple(map(tuple, radical)), tuple(map(tuple, complement))

    @property
    def radical(self) -> tuple[tuple[int, ...], ...]:
        """Saturated basis of the radical of the Fano form."""
        return self._split[0]

    @property
    def complement(self) -> tuple[tuple[int, ...], ...]:
        """Vectors completing the radical to a basis of Z^(n+1)."""
        return self._split[1]

    @cached_property
    def qlattice(self) -> Lattice:
        """The Fano form restricted to the complement, i.e. modulo the
        radical."""
        c = self.complement
        qgram = mat_mul(mat_mul(c, self.gram), transpose(c))
        return Lattice(tuple(tuple(row) for row in qgram))

    @property
    def quotient_signature(self) -> tuple[int, int]:
        pos, neg, _ = self.qlattice.signature
        return pos, neg

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """A non-hyperbolic quotient is flagged with a warning, not an
        error."""
        pos, neg = self.quotient_signature
        if (pos, neg) == (1, self.qlattice.rank - 1):
            return ()
        return (
            f"quotient signature ({pos},{neg}) is not hyperbolic; no "
            "polarized K3 surface realizes this configuration",
        )

    # -- the extension N ----------------------------------------------------

    @cached_property
    def data(self):
        return discriminant_data(self.qlattice)

    @cached_property
    def kernel_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._class_of(t) for t in self.cfg.kernel_pairings)

    @cached_property
    def _extension(self):
        from .fqf import isotropic_quotient

        return isotropic_quotient(self.data.form, list(self.kernel_classes))

    @property
    def dn(self):
        """The discriminant form of N."""
        return self._extension[0]

    @property
    def reps(self):
        """One coordinate tuple in the quotient's form per generator of
        `dn`."""
        return self._extension[1]

    @cached_property
    def kernel_order(self) -> int:
        from .fqf import subgroup_form

        sub, _ = subgroup_form(self.data.form, list(self.kernel_classes))
        return sub.order()

    @property
    def rank_n(self) -> int:
        return self.qlattice.rank

    @cached_property
    def det_n(self) -> int:
        det, rem = divmod(self.qlattice.determinant, self.kernel_order**2)
        if rem:
            raise ValueError("kernel order squared does not divide det")
        return det

    @cached_property
    def r(self) -> int:
        """Rank 22 - rank N of the transcendental lattice."""
        r = K3_RANK - self.rank_n
        if r < 1:
            raise InputError(
                f"line lattice rank {self.rank_n} leaves no transcendental "
                "directions"
            )
        return r

    def _class_of(self, pairings) -> tuple[int, ...]:
        """The class in the quotient's discriminant form of a vector whose
        pairings with (lines..., h) are the integers `pairings`."""
        return self.data.class_of(mat_vec(self.complement, pairings))

    # -- symmetries ---------------------------------------------------------

    @cached_property
    def automorphisms(self) -> PermutationGroup:
        return graph_automorphism_group(self.cfg.graph)

    @cached_property
    def stabilizer(self) -> PolarizedStabilizer:
        """The subgroup of Aut(graph) x {+-1} whose induced discriminant
        action preserves the subgroup generated by the kernel classes."""
        group = self.automorphisms
        if not self.cfg.kernel:
            return PolarizedStabilizer(group, None, 2 * group.order())
        kept = tuple(
            perm for perm in group.elements() if self._preserves_kernel(perm)
        )
        return PolarizedStabilizer(group, kept, 2 * len(kept))

    @cached_property
    def _kernel_subgroup(self) -> frozenset[tuple[int, ...]]:
        """Every element of the subgroup the kernel classes generate: the
        orbit of zero under translation by each class."""
        from .fqf import orbits

        form = self.data.form

        def by(k):
            return lambda x: form.reduce(map(operator.add, x, k))

        moves = [by(k) for k in self.kernel_classes]
        (subgroup,) = orbits([form.zero()], moves)
        return frozenset(subgroup)

    def _preserves_kernel(self, perm) -> bool:
        # A graph automorphism acts on the discriminant group injectively,
        # so once it maps the kernel classes into the finite kernel
        # subgroup it maps that subgroup onto itself: the reverse
        # containment needs no test.
        return all(
            self._class_of(_moved(perm, t)) in self._kernel_subgroup
            for t in self.cfg.kernel_pairings
        )

    @cached_property
    def _rep_pairings(self) -> tuple[tuple[int, ...], ...]:
        """Pairings with (lines..., h) of one lift of each `reps` entry.
        Generator i of the quotient's form lifts to C^T·V[:, i] / d_i, with
        C the complement rows; its pairings are G·C^T·V[:, i] / d_i."""
        lifts = self.data.generator_pairings(
            mat_mul(self.gram, transpose(self.complement))
        )
        return tuple(
            tuple(sum(map(operator.mul, rep, col)) for col in zip(*lifts))
            for rep in self.reps
        )

    def candidate_action(self, perm) -> FqfIsometry:
        """Action of (perm, sign -1) on the discriminant form of N."""
        from .fqf import FqfIsometry, minus_identity_isometry, solve_mod

        orders = list(self.data.form.orders)
        columns = list(self.reps) + list(self.kernel_classes)
        cols = []
        for lift in self._rep_pairings:
            image = self._class_of(_moved(perm, lift))
            sol = solve_mod(columns, list(image), orders)
            if sol is None:
                raise ValueError(
                    "discriminant action does not preserve the kernel"
                )
            cols.append(self.dn.reduce(sol[: len(self.reps)]))
        descended = FqfIsometry(self.dn, self.dn, tuple(cols), anti=False)
        return minus_identity_isometry(self.dn).compose(descended)

    # -- fragments and real structures ---------------------------------------

    @cached_property
    def fragments(self) -> tuple[Fragment, ...]:
        return tuple(enumerate_fragments(self.cfg))

    def count_fragments_under(self, sigma) -> tuple[int, int]:
        """(setwise-invariant fragment count, pointwise-fixed fragment
        count) under a graph involution."""
        sigma = tuple(sigma)
        graph = self.cfg.graph
        if sorted(sigma) != list(range(graph.n)):
            raise InputError("sigma is not a permutation of the vertices")
        if compose_perm(sigma, sigma) != tuple(range(graph.n)):
            raise InputError("sigma is not an involution")
        if not graph.is_automorphism(sigma):
            raise InputError("sigma does not preserve the multigraph")
        num_r = 0
        num_rr = 0
        for frag in self.fragments:
            vs = set(frag.vertices)
            if {sigma[v] for v in vs} == vs:
                num_r += 1
                if all(sigma[v] == v for v in vs):
                    num_rr += 1
        return (num_r, num_rr)

    def real_structure_candidates(self) -> list[RealCandidate]:
        """Involutive candidates (sigma, -1) up to stabilizer conjugacy, in
        increasing order of sigma, each with its fragment counts and gluing
        admissibility."""
        from .realcrit import (
            ADMISSIBLE,
            INADMISSIBLE,
            UNKNOWN,
            match_real_structure,
            t_side_involution_classes,
            totally_real_criterion,
        )

        r = self.r
        det_n = self.det_n
        notes = list(self.warnings)
        spec = self.cfg.transcendental
        tside = None
        if spec is not None:
            if spec.rank() != r:
                notes.append(
                    f"transcendental rank {spec.rank()} differs from "
                    f"22 - rank N = {r}"
                )
            tside = t_side_involution_classes(spec)
        ident = tuple(range(self.cfg.graph.n))
        out = []
        for sigma in _involution_classes_of(self.stabilizer):
            num_r, num_rr = self.count_fragments_under(sigma)
            verdict = None
            if spec is None:
                if sigma == ident:
                    verdict = totally_real_criterion(self.dn, r, det_n)
                    status = {
                        "YES_CONTAINS_2": ADMISSIBLE,
                        "YES_CONTAINS_U2": ADMISSIBLE,
                        "NO": INADMISSIBLE,
                        "UNKNOWN": UNKNOWN,
                    }[verdict.kind]
                    reason = f"screening rules: {verdict.kind}"
                else:
                    status = UNKNOWN
                    reason = (
                        "no transcendental data; only the trivial involution "
                        "can be screened arithmetically"
                    )
            else:
                tau = self.candidate_action(sigma)
                status, reason = match_real_structure(tau, tside)
            out.append(RealCandidate(
                PolarizedIsometry(sigma, -1),
                num_r,
                num_rr,
                status,
                reason,
                verdict,
                tuple(notes),
            ))
        return out


def _moved(perm, vec) -> list[int]:
    """A vector on (lines..., h) after the line permutation `perm`: entry
    i moves to perm[i], and the h entry stays.  A graph automorphism fixes
    h and commutes with the Fano Gram matrix, so this also moves the
    pairing vector of a class to that of the class's image."""
    out = list(vec)
    for i, p in enumerate(perm):
        out[p] = vec[i]
    return out


def polarized_stabilizer(cfg: LineConfiguration) -> PolarizedStabilizer:
    """`Analysis(cfg).stabilizer`."""
    return Analysis(cfg).stabilizer


def count_fragments_under(cfg: LineConfiguration, sigma) -> tuple[int, int]:
    """`Analysis(cfg).count_fragments_under(sigma)`."""
    return Analysis(cfg).count_fragments_under(sigma)


def real_structure_candidates(cfg: LineConfiguration) -> list[RealCandidate]:
    """`Analysis(cfg).real_structure_candidates()`."""
    return Analysis(cfg).real_structure_candidates()
