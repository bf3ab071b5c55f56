"""Gluing real structures across the K3 lattice.

A candidate real structure (sigma, -1) acts on the discriminant form D_N of
the line lattice N.  It extends to the K3 lattice exactly when some
anti-isometry phi: D_N -> D_T carries that action to the action of a
sign-reversing involution of the transcendental lattice T (Nikulin,
*Integral symmetric bilinear forms*, Math. USSR Izv. 14, 1980).  This
module holds that decision and what only it uses: isometries of forms, one
search whose first leaves find one and build Aut(D) as a stabilizer chain;
isometries of lattices and the automorphisms of D they induce; orthogonal
groups of small definite lattices and fixed sublattices; and the
transcendental side, whose realizable involution images, for each
`lattices.TranscendentalSpec`, are closed under conjugation by Aut(D_T).
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from math import isqrt, prod

from .errors import CapExceeded, InputError
from .fqf import FiniteQuadraticForm, solve_mod, subgroup_form
from .intmat import det, identity, integral_kernel, mat_mul, transpose
from .lattices import (
    Definite2,
    DiscriminantData,
    GenericDiscr,
    Lattice,
    TranscendentalSpec,
    TwoU,
    build_lattice,
    discriminant_data,
)
from .multigraph import chain
from .records import Record

ADMISSIBLE = "ADMISSIBLE"
INADMISSIBLE = "INADMISSIBLE"
UNKNOWN = "UNKNOWN"


# -- isometries and anti-isometries of finite quadratic forms ----------------


class FqfIsometry(Record):
    """Group isomorphism between two forms, with q(image) = q or q(image) =
    -q according to `anti`.  Columns hold target coordinates of the source
    generators."""

    _fields = ("source", "target", "columns", "anti")

    def __init__(
        self,
        source: FiniteQuadraticForm,
        target: FiniteQuadraticForm,
        columns: tuple[tuple[int, ...], ...],
        anti: bool = False,
    ):
        vars(self).update(
            source=source, target=target, columns=columns, anti=anti
        )

    def apply(self, coords) -> tuple[int, ...]:
        k = self.target.rank()
        out = [0] * k
        for c, col in zip(coords, self.columns):
            if c:
                for i in range(k):
                    out[i] += c * col[i]
        return self.target.reduce(out)

    def compose(self, inner: "FqfIsometry") -> "FqfIsometry":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition forms do not match")
        cols = tuple(self.apply(col) for col in inner.columns)
        return FqfIsometry(
            inner.source, self.target, cols, anti=self.anti ^ inner.anti
        )

    def inverse(self) -> "FqfIsometry":
        cols = []
        for e in identity(self.source.rank()):
            pre = solve_mod(list(self.columns), e, list(self.target.orders))
            if pre is None:
                raise ValueError("isometry is not invertible")
            cols.append(self.source.reduce(pre))
        return FqfIsometry(self.target, self.source, tuple(cols), anti=self.anti)


def minus_identity_isometry(form: FiniteQuadraticForm) -> FqfIsometry:
    k = form.rank()
    cols = tuple(
        tuple((-1 if i == j else 0) % form.orders[i] for i in range(k))
        for j in range(k)
    )
    return FqfIsometry(form, form, cols, anti=False)


def find_isometry(
    source: FiniteQuadraticForm,
    target: FiniteQuadraticForm,
    anti: bool = False,
) -> FqfIsometry | None:
    """The least isometry (or anti-isometry) from source to target, the
    first leaf of the isometry search, or None."""
    cols = next(_isometry_leaves(source, target, anti)(()), None)
    return None if cols is None else FqfIsometry(source, target, cols, anti=anti)


def _isometry_leaves(source, target, anti):
    """The isometry search as `leaves(prefix)`, a generator of the columns,
    in increasing order, of every isometry (or anti-isometry) that takes
    the first generators of the source to the target elements `prefix`.
    The target's (order, n * q) buckets are built once, for every call."""
    if source.order() != target.order() or source.exponent() != target.exponent():
        return lambda prefix: iter(())
    # Both forms are scaled by the same n, so every test is on integers.
    n = target.exponent()
    keys = {el: (target.order_of(el), target.qn_of(el)) for el in target.elements()}
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for el, key in keys.items():
        buckets.setdefault(key, []).append(el)

    k = source.rank()
    sign = -1 if anti else 1
    want_q = [sign * q % (2 * n) for q in source.qn]
    want_b = [[sign * x % n for x in row] for row in source.bn]
    # A pairing-preserving map out of a nondegenerate form is injective, so
    # with equal orders every leaf is onto; only a degenerate source needs
    # its images to span the target.
    check_onto = not source.is_nondegenerate()

    def leaves(prefix):
        images: list = [None] * k
        duals: list[tuple[int, ...]] = []  # duals[j]: the dual of images[j]

        def extend(i: int):
            if i == k:
                if (
                    not check_onto
                    or subgroup_form(target, images)[0].order() == target.order()
                ):
                    yield tuple(images)
                return
            want = (source.orders[i], want_q[i])
            if i < len(prefix):
                found = [prefix[i]] if keys[prefix[i]] == want else []
            else:
                found = buckets.get(want, [])
            for dual, w in zip(duals, want_b[i]):  # n * b is a dot product
                found = [el for el in found if sum(map(operator.mul, el, dual)) % n == w]
            for el in found:
                images[i] = el
                duals.append(target.dual_of(el))
                yield from extend(i + 1)
                duals.pop()

        return extend(0)

    return leaves


def automorphism_group(form: FiniteQuadraticForm):
    """Aut(form) as a `multigraph.PermutationGroup` on the elements,
    numbered in `elements()` order, with the generators e_0..e_{k-1} as its
    base.  The chain asks for one automorphism fixing e_0..e_{i-1} and
    taking e_i to w, the first leaf of the isometry search with those
    images pinned, so no group element is listed.  Each call builds the
    chain afresh; a caller that needs it twice keeps it."""
    elements = list(form.elements())
    basis = [tuple(e) for e in identity(form.rank())]
    leaves = _isometry_leaves(form, form, False)

    def extend(i, w):
        cols = next(leaves((*basis[:i], elements[w])), None)
        return None if cols is None else element_permutation(form, cols)

    return chain(len(elements), _strides(form.orders), extend)


def _strides(orders) -> list[int]:
    """The index of each generator e_i in `elements()` order; the index of
    any element is the dot product of its coordinates with these."""
    out = [1] * len(orders)
    for i in reversed(range(len(orders) - 1)):
        out[i] = out[i + 1] * orders[i + 1]
    return out


def element_permutation(form: FiniteQuadraticForm, columns) -> tuple[int, ...]:
    """The endomorphism with these columns as a map of the elements,
    numbered in `elements()` order."""
    strides = _strides(form.orders)
    apply = FqfIsometry(form, form, columns).apply
    return tuple(
        sum(map(operator.mul, apply(x), strides)) for x in form.elements()
    )


def permutation_columns(form: FiniteQuadraticForm, perm) -> tuple[tuple[int, ...], ...]:
    """The columns of an element permutation from `element_permutation`."""
    strides = _strides(form.orders)
    return tuple(
        tuple(perm[s] // t % d for t, d in zip(strides, form.orders))
        for s in strides
    )


# -- isometries of lattices --------------------------------------------------


class Isometry(Record):
    """Self-map of a lattice preserving the form: matrixᵀ·G·matrix = G."""

    _fields = ("lattice", "matrix")

    def __init__(self, lattice: Lattice, matrix: tuple[tuple[int, ...], ...]):
        w = [list(r) for r in matrix]
        g = [list(r) for r in lattice.gram]
        if mat_mul(mat_mul(transpose(w), g), w) != g:
            raise ValueError("matrix does not preserve the Gram form")
        vars(self).update(lattice=lattice, matrix=matrix)

    def is_involution(self) -> bool:
        prod = mat_mul([list(r) for r in self.matrix], [list(r) for r in self.matrix])
        return prod == identity(self.lattice.rank)

    def negated(self) -> "Isometry":
        return Isometry(
            self.lattice, tuple(tuple(-x for x in row) for row in self.matrix)
        )


def discriminant_action(data: DiscriminantData, isometry: Isometry) -> FqfIsometry:
    """The automorphism of the discriminant form of `data` that an isometry
    of its lattice induces, through the one map that names the classes
    (`DiscriminantData.class_of`)."""
    if isometry.lattice.gram != data.gram:
        raise ValueError("isometry acts on a different lattice")
    gw = mat_mul(data.gram, isometry.matrix)
    cols = tuple(data.class_of(t) for t in data.generator_pairings(gw))
    return FqfIsometry(data.form, data.form, cols, anti=False)


# Largest box of integer vectors `orthogonal_group_definite` may walk for
# one norm.  Coordinate i ranges over |x_i| <= isqrt(norm·cof_ii / det), so
# the box grows with the square root of the Gram entries: [10^12, 3, 6]
# gives 2.4 million points (5.4 s on a 2-core host) and [10^16, 3, 6]
# 2.4 x 10^8.  The shipped inputs need at most a few dozen points.
MAX_NORM_BOX = 100_000


def _vectors_of_norm(gram_pos, cofactors, det_g, norm: int) -> list[tuple[int, ...]]:
    """The vectors x with x·G·x = norm, searched in the box x_i^2 <=
    cofactors[i] * norm / det_g.  A box of more than `MAX_NORM_BOX` points
    raises CapExceeded before any is tested."""
    n = len(gram_pos)
    bounds = [isqrt(cof * norm // det_g) for cof in cofactors]
    box = prod(2 * b + 1 for b in bounds)
    if box > MAX_NORM_BOX:
        raise CapExceeded(
            f"orthogonal group of a definite lattice: {box} vectors to test "
            f"for norm {norm} exceed the cap of {MAX_NORM_BOX}"
        )
    out = []
    for vec in itertools.product(*(range(-b, b + 1) for b in bounds)):
        val = sum(
            vec[i] * gram_pos[i][j] * vec[j] for i in range(n) for j in range(n)
        )
        if val == norm:
            out.append(vec)
    return out


def orthogonal_group_definite(lattice: Lattice) -> list[Isometry]:
    """The full orthogonal group of a definite lattice of rank at most 4,
    by bounded vector enumeration and Gram-constrained assignment."""
    if not lattice.is_definite() or lattice.rank == 0:
        raise ValueError("orthogonal group enumeration needs a definite lattice")
    if lattice.rank > 4:
        raise ValueError(
            "orthogonal group enumeration is limited to rank <= 4; "
            f"got rank {lattice.rank}"
        )
    n = lattice.rank
    plus = lattice.signature[0] > 0
    gpos = [
        [x if plus else -x for x in row] for row in lattice.gram
    ]
    # Coordinate bound: x_i^2 <= (G^-1)_ii * norm for positive definite G,
    # with (G^-1)_ii the integer cofactor over det G.
    det_g = det(gpos)
    cofactors = [
        det([[gpos[r][c] for c in range(n) if c != i] for r in range(n) if r != i])
        for i in range(n)
    ]
    norms = [gpos[i][i] for i in range(n)]
    candidates = {
        m: _vectors_of_norm(gpos, cofactors, det_g, m) for m in sorted(set(norms))
    }

    results = []
    images: list[tuple[int, ...]] = []

    def extend(i: int):
        if i == n:
            results.append(tuple(zip(*images)))  # the images are columns
            return
        for vec in candidates[norms[i]]:
            if all(
                lattice.pairing(vec, images[j]) == lattice.gram[i][j]
                for j in range(i)
            ):
                images.append(vec)
                extend(i + 1)
                images.pop()

    extend(0)
    results.sort()
    return [Isometry(lattice, mat) for mat in results]


def invariant_sublattice(
    lattice: Lattice, isometry: Isometry
) -> tuple[Lattice, list[list[int]]]:
    """The saturated fixed sublattice of an involution, with a basis given in
    lattice coordinates (one vector per output row)."""
    if not isometry.is_involution():
        raise ValueError("invariant sublattice is defined for involutions")
    n = lattice.rank
    diff = [
        [isometry.matrix[i][j] - (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    basis = integral_kernel(diff)
    sub = [[lattice.pairing(x, y) for y in basis] for x in basis]
    return Lattice.from_rows(sub), [list(v) for v in basis]


# -- transcendental-side representations -------------------------------------


TWO_U_LABELS = ("[2]", "U", "U(2)", "[2]+[-2]", "U+[-2]")


def two_u_involutions() -> tuple[tuple[str, Isometry], ...]:
    """Five involutions of the even unimodular lattice of signature (2,2),
    labeled by the isometry class of their fixed sublattice.  Each reverses
    the positive sign structure, and each fixed sublattice has exactly one
    positive square direction."""
    lat = build_lattice("2U")
    swap = ((0, 1), (1, 0))
    ident = ((1, 0), (0, 1))
    neg = ((-1, 0), (0, -1))
    negswap = ((0, -1), (-1, 0))

    def blocks(a, b):
        return (
            (a[0][0], a[0][1], 0, 0),
            (a[1][0], a[1][1], 0, 0),
            (0, 0, b[0][0], b[0][1]),
            (0, 0, b[1][0], b[1][1]),
        )

    summand_swap = (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    mats = {
        "[2]": blocks(swap, neg),
        "U": blocks(ident, neg),
        "U(2)": summand_swap,
        "[2]+[-2]": blocks(swap, negswap),
        "U+[-2]": blocks(ident, negswap),
    }
    return tuple(
        (label, Isometry(lat, mats[label])) for label in TWO_U_LABELS
    )


class TSideClasses(Record):
    """Involutions on the transcendental discriminant form that honest
    representatives realize.

    `images` holds the realizable involutions pushed to the form.
    `members`, their closure under conjugation by Aut(form), and
    `class_count`, the number of conjugacy classes it meets, are computed
    on first use.  `outside` is the reason given for an involution that
    lands outside `members`.
    """

    _fields = ("form", "images", "outside")

    def __init__(
        self, form: FiniteQuadraticForm, images: frozenset, outside: str
    ):
        vars(self).update(form=form, images=images, outside=outside, _antis={})

    @cached_property
    def _classes(self) -> list[list]:
        form = self.form
        seeds = [element_permutation(form, cols) for cols in sorted(self.images)]
        return [
            [permutation_columns(form, g) for g in orbit]
            for orbit in automorphism_group(form).conjugation_orbits(seeds)
        ]

    @cached_property
    def members(self) -> frozenset:
        return frozenset(x for cls in self._classes for x in cls)

    @property
    def class_count(self) -> int:
        return len(self._classes)

    def gluing(self, source: FiniteQuadraticForm) -> tuple:
        """(phi, phi^-1) for one anti-isometry phi from `source` to the
        form, or (None, None) when there is none; searched and inverted
        once per source form."""
        if source not in self._antis:
            phi = find_isometry(source, self.form, anti=True)
            self._antis[source] = (phi, None if phi is None else phi.inverse())
        return self._antis[source]


def t_side_involution_classes(spec: TranscendentalSpec) -> TSideClasses | None:
    """Realizable sign-reversing involution images on discr T, or None when
    the transcendental data is too generic to derive them.  For a positive
    definite binary T the positive subspace is T itself, so they are the
    isometries of determinant -1, its reflections; for 2U(k) they are the
    five `two_u_involutions`."""
    if isinstance(spec, GenericDiscr):
        return None
    if isinstance(spec, Definite2):
        lat = spec.lattice
        involutions = [
            g for g in orthogonal_group_definite(lat) if det(g.matrix) == -1
        ]
        outside = (
            "no anti-isometry carries the induced involution to a "
            "realizable image"
        )
    elif isinstance(spec, TwoU):
        lat = build_lattice(f"2U({spec.scale})")
        involutions = [Isometry(lat, g.matrix) for _, g in two_u_involutions()]
        outside = (
            "the induced involution lands outside every realizable "
            "conjugacy class"
        )
    else:
        raise InputError(f"unsupported transcendental data {spec!r}")
    data = discriminant_data(lat.gram)
    images = frozenset(discriminant_action(data, g).columns for g in involutions)
    return TSideClasses(data.form, images, outside)


def match_real_structure(
    tau_n: FqfIsometry, tside: TSideClasses | None
) -> tuple[str, str]:
    """Glue test for a candidate real structure: the induced involution on
    the line-side discriminant form must be carried to a realizable
    transcendental-side involution by some anti-isometry phi.

    Any other anti-isometry is g.phi with g in Aut(discr T), and
    `tside.members` is closed under conjugation by Aut(discr T), so one phi
    decides.  Nothing on the transcendental side beyond the images is
    computed when no anti-isometry exists.

    Returns (admissibility, reason)."""
    if tside is None:
        return (UNKNOWN, "no usable transcendental representative")
    phi, phi_inv = tside.gluing(tau_n.source)
    if phi is None:
        return (
            INADMISSIBLE,
            "no anti-isometry between the discriminant forms (genus mismatch)",
        )
    conj = phi.compose(tau_n).compose(phi_inv)
    if conj.columns in tside.members:
        return (
            ADMISSIBLE,
            "a compatible transcendental involution exists",
        )
    return (INADMISSIBLE, tside.outside)
