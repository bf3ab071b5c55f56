"""Line configurations on polarized K3 surfaces.

A configuration is a multigraph of lines (each line v has v**2 = -2 and
v.h = 1, two lines pair by their edge multiplicity, h**2 = the polarization
degree 2d) together with optional finite-index extension data: rational
vectors in the span of the lines and h whose classes generate an isotropic
subgroup of the discriminant form, held as integer numerators over one
denominator.  The line lattice N is generated by the lines, h and these
kernel vectors.  `Analysis` holds N as the Gram matrix of those generators,
relations and all: the rank and signature of N are its inertia, read off
one congruence reduction that also gives the rank of the lines, and D_N,
det N, the stabilizer test and the candidate actions on D_N come from its
discriminant data, one Smith form of that matrix.

A hyperplane-section fragment is a set of 2d lines summing to h.  Pairing
that equation with a member line forces intra-subset weighted valency exactly
3, and that combinatorial condition is what the enumeration uses.  The
enumeration is a deficit-driven connected-subgraph search (Wernicke,
*Efficient detection of network motifs*, IEEE/ACM TCBB 2006): it grows the
fragment one 3-regular component at a time and branches only where some
chosen line is still short of valency 3.

Real-structure candidates pair a graph involution with the global sign -1, so
real lines are the fixed vertices.  The polarized stabilizer is S x {+-1},
with S the `PermutationGroup` of graph automorphisms that map N onto itself,
found by the automorphism search with the kernel test at its leaves.  The
candidates are one per conjugacy class of involutions in S, each an orbit
under conjugation by the strong generators of S (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, section 4.1).  Admissibility
of a candidate is decided by gluing its discriminant action to a
sign-reversing involution on the transcendental side (`gluing`), or by the
arithmetic screening rules (`realcrit`) when no transcendental
representative is supplied.

`Analysis` holds all of this for one configuration and computes each part
once.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from math import lcm

from .errors import CapExceeded, InputError
from .intmat import leading_rank_and_inertia, mat_vec
from .multigraph import (
    Multigraph,
    PermutationGroup,
    canonical_certificate,
    compose_perm,
    girth,
    graph_automorphism_group,
)
from .records import Record

# `lattices`, `realcrit` and `gluing` are imported inside the methods that
# use them: the fragment census needs none of them, and a fresh process
# would pay to load them.

K3_RANK = 22
MAX_MULTIPLICITY = 3


class LineConfiguration(Record):
    """A polarized line multigraph with optional lattice-extension data.

    kernel entries are rational coordinate vectors of length n+1 on the basis
    (lines..., h), read through `.numerator` and `.denominator`.  Each must
    pair integrally with every line and with h, have even self-pairing, and
    pair integrally with the other kernel vectors, so that adjoining them
    yields an even lattice.  They are held once, as integer rows
    `kernel_numerators` over their least common `kernel_denominator`.
    `kernel_pairings` keeps the pairings with (lines..., h), a row each,
    and `kernel_gram` those among them.
    """

    _fields = ("degree", "graph", "kernel_numerators", "kernel_denominator",
               "transcendental")

    def __init__(
        self,
        degree: int,
        graph: Multigraph,
        kernel=(),
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
        vars(self).update(
            degree=degree, graph=graph, transcendental=transcendental
        )
        n = graph.n
        gram = _fano_gram(self)
        den = lcm(*(x.denominator for vec in kernel for x in vec))
        rows = tuple(
            tuple(x.numerator * (den // x.denominator) for x in vec)
            for vec in kernel
        )
        pairings = []
        for vec in rows:
            if len(vec) != n + 1:
                raise InputError(
                    f"kernel vector length {len(vec)} != line count + 1"
                )
            pair = mat_vec(gram, vec)
            if any(x % den for x in pair):
                raise InputError(
                    "kernel vector does not pair integrally with the lines and h"
                )
            pairings.append(tuple(x // den for x in pair))
        # den times the pairings among the kernel vectors
        kgram = [
            [sum(map(operator.mul, t, vec)) for vec in rows] for t in pairings
        ]
        for a, row in enumerate(kgram):
            if row[a] % (2 * den):
                raise InputError("kernel vector with odd or fractional square")
            if any(x % den for x in row[:a]):
                raise InputError("kernel vectors with fractional mutual pairing")
        vars(self).update(kernel_numerators=rows, kernel_denominator=den)
        vars(self)["kernel_pairings"] = tuple(pairings)
        vars(self)["kernel_gram"] = tuple(tuple(x // den for x in row) for row in kgram)

    @property
    def line_count(self) -> int:
        return self.graph.n


def _fano_gram(cfg: LineConfiguration) -> list[list[int]]:
    """Pairings among (lines..., h): among the lines -2 on the diagonal and
    multiplicities off it."""
    rows = [
        [m - 2 * (i == j) for j, m in enumerate(row)] + [1]
        for i, row in enumerate(cfg.graph.mult)
    ]
    return rows + [[1] * cfg.graph.n + [cfg.degree]]


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
    adj = graph.adjacency
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


# -- the polarized stabilizer -------------------------------------------------


class PolarizedIsometry(Record):
    _fields = ("permutation", "sign")

    def __init__(self, permutation: tuple[int, ...], sign: int):
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        if sorted(permutation) != list(range(len(permutation))):
            raise InputError("not a permutation")
        vars(self).update(permutation=permutation, sign=sign)


ADMISSIBLE = "ADMISSIBLE"
INADMISSIBLE = "INADMISSIBLE"
UNKNOWN = "UNKNOWN"


class RealCandidate(Record):
    _fields = (
        "isometry",
        "num_r",
        "num_rr",
        "admissibility",
        "reason",
        "notes",
    )

    def __init__(
        self,
        isometry: PolarizedIsometry,
        num_r: int,
        num_rr: int,
        admissibility: str,
        reason: str,
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
            notes=notes,
        )


# -- the analysis of one configuration ------------------------------------------


class Analysis:
    """Everything the package derives from one configuration, each item
    computed on first use and then kept: the line lattice N as the Gram
    matrix of its generators, whose inertia gives the rank and signature
    of N and whose discriminant data give D_N, det N, the stabilizer test,
    the candidate actions and the screening verdict; the graph
    automorphism group with the rank of the lines' Gram form and the girth
    of the graph, the stabilizer of N in the group (one `PermutationGroup`
    either way), its involution classes and the fragment list, which every
    candidate's fragment count reuses.
    An item whose computation raises is not kept, so the next read
    computes it again.
    """

    def __init__(self, cfg: LineConfiguration):
        self.cfg = cfg

    # -- the line lattice N -------------------------------------------------

    # Matrices are kept as tuples of rows: every caller shares them.

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Gram matrix of the generators (lines..., h, kernel vectors...)
        of N; without a kernel, the Fano Gram matrix."""
        fano = _fano_gram(self.cfg)
        pairings = self.cfg.kernel_pairings
        rows = [row + [t[i] for t in pairings] for i, row in enumerate(fano)]
        rows += [t + k for t, k in zip(pairings, self.cfg.kernel_gram)]
        return tuple(map(tuple, rows))

    @cached_property
    def _reduction(self) -> tuple[int, tuple[int, int, int]]:
        """(rank of the lines' Gram form, inertia of `gram`): one congruence
        reduction, which exhausts the lines block before h and the kernel
        rows.  The zero count is the rank of the relations among the
        generators."""
        return leading_rank_and_inertia(self.gram, self.cfg.graph.n)

    @property
    def quotient_signature(self) -> tuple[int, int]:
        """Signature of N, that of `gram`."""
        pos, neg, _ = self._reduction[1]
        return pos, neg

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """A non-hyperbolic N, or a hyperbolic one of rank above 20
        (a Picard lattice has rank at most 20), is flagged with a warning,
        not an error."""
        pos, neg = self.quotient_signature
        if (pos, neg) != (1, self.rank_n - 1):
            return (
                f"quotient signature ({pos},{neg}) is not hyperbolic; no "
                "polarized K3 surface realizes this configuration",
            )
        if self.rank_n > 20:
            return (
                f"line lattice rank {self.rank_n} exceeds 20; no polarized "
                "K3 surface realizes this configuration",
            )
        return ()

    @cached_property
    def data(self):
        """Discriminant data of N, read off `gram` itself."""
        from .lattices import discriminant_data

        return discriminant_data(self.gram)

    @property
    def dn(self):
        """The discriminant form of N."""
        return self.data.form

    @property
    def rank_n(self) -> int:
        return sum(self.quotient_signature)

    @property
    def det_n(self) -> int:
        """(-1)^neg |D_N|, with neg the negative index of N."""
        return (-1) ** self.quotient_signature[1] * self.dn.order()

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

    def _class_of(self, pairings) -> tuple[int, ...] | None:
        """The class in D_N of the vector of N⊗Q whose pairings with
        (lines..., h) are the integers `pairings`, or None when a kernel
        vector pairs with it fractionally, so that it lies outside the
        dual of N."""
        den = self.cfg.kernel_denominator
        full = list(pairings)
        for vec in self.cfg.kernel_numerators:
            x = sum(map(operator.mul, vec, pairings))
            if x % den:
                return None
            full.append(x // den)
        return self.data.class_of(full)

    # -- symmetries ---------------------------------------------------------

    @cached_property
    def automorphisms(self) -> PermutationGroup:
        return graph_automorphism_group(self.cfg.graph)

    @property
    def lines_rank(self) -> int:
        """Rank of the Gram form of the lines alone, without h."""
        return self._reduction[0]

    @cached_property
    def girth(self) -> int | None:
        return girth(self.cfg.graph)

    @cached_property
    def stabilizer(self) -> PermutationGroup:
        """The graph automorphisms that map N onto itself; the polarized
        stabilizer is this group x {+-1}, since -1 maps every lattice onto
        itself.  Without a kernel it is the whole automorphism group."""
        if not self.cfg.kernel_numerators:
            return self.automorphisms
        try:
            return graph_automorphism_group(self.cfg.graph, self._preserves)
        except CapExceeded as exc:
            raise CapExceeded(f"polarized stabilizer: {exc}") from None

    @cached_property
    def involution_classes(self) -> tuple[tuple[int, ...], ...]:
        """Least representatives of the conjugacy classes of involutions
        (identity included) in the stabilizer, in increasing order: the
        `conjugation_orbits` of the involutions, walked without listing the
        group (`PermutationGroup.involutions`)."""
        group = self.stabilizer
        try:
            invs = group.involutions()
        except CapExceeded as exc:
            raise CapExceeded(f"involution classes: {exc}") from None
        return tuple(orbit[0] for orbit in group.conjugation_orbits(invs))

    def _preserves(self, perm) -> bool:
        # A graph automorphism fixes the lines and h as a set, so it maps N
        # into N once every moved kernel vector has class 0 in D_N; the
        # image has the determinant of N, so it is N.
        zero = self.dn.zero()
        return all(
            self._class_of(_moved(perm, t)) == zero
            for t in self.cfg.kernel_pairings
        )

    @cached_property
    def _generator_pairings(self) -> list[list[int]]:
        """Pairings with (lines..., h) of one lift of each generator of
        D_N: generator i is V[:, i] / d_i on the generators of N, so its
        pairings are the first n+1 entries of gram·V[:, i] / d_i."""
        return self.data.generator_pairings(self.gram[: self.cfg.graph.n + 1])

    def candidate_action(self, perm) -> FqfIsometry:
        """Action of (perm, sign -1) on D_N, for a graph automorphism perm:
        the class of -v is -class(v), so the sign negates the moved
        pairings.  One that does not map N onto itself raises ValueError."""
        from .gluing import FqfIsometry

        if not self._preserves(perm):
            raise ValueError("permutation does not map N onto itself")
        pairings = self._generator_pairings
        images = ([-x for x in _moved(perm, t)] for t in pairings)
        return FqfIsometry(self.dn, self.dn, tuple(map(self._class_of, images)))

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

    @cached_property
    def verdict(self):
        """The screening verdict of D_N (`totally_real_criterion`)."""
        from .realcrit import totally_real_criterion

        try:
            return totally_real_criterion(self.dn, self.r, self.det_n)
        except CapExceeded as exc:
            raise CapExceeded(f"totally real criterion: {exc}") from None

    def real_structure_candidates(self, spec) -> list[RealCandidate]:
        """Involutive candidates (sigma, -1) up to stabilizer conjugacy, in
        increasing order of sigma, each with its fragment counts and gluing
        admissibility against the transcendental spec (None for none)."""
        r = self.r
        notes = list(self.warnings)
        tside = None
        if spec is not None:
            from .gluing import match_real_structure, t_side_involution_classes

            if spec.rank() != r:
                notes.append(
                    f"transcendental rank {spec.rank()} differs from "
                    f"22 - rank N = {r}"
                )
            tside = t_side_involution_classes(spec)
        ident = tuple(range(self.cfg.graph.n))
        out = []
        for sigma in self.involution_classes:
            num_r, num_rr = self.count_fragments_under(sigma)
            if spec is None:
                if sigma == ident:
                    kind = self.verdict.kind
                    status = {
                        "YES_CONTAINS_2": ADMISSIBLE,
                        "YES_CONTAINS_U2": ADMISSIBLE,
                        "NO": INADMISSIBLE,
                        "UNKNOWN": UNKNOWN,
                    }[kind]
                    reason = f"screening rules: {kind}"
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
