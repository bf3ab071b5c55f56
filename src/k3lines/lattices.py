"""Even integer lattices presented by Gram matrices.

Provides the text notation for standard constructors (root lattices, the
hyperbolic plane, binary forms, rescaling, repetition, direct sum), the
discriminant form of an even lattice, read off the Gram matrix of a basis or
of any generating system, together with the integer map that names its
classes, orthogonal groups of small definite lattices, the sign action on
orientations of maximal positive subspaces, and fixed sublattices of
involutions.

Root lattices follow the NEGATIVE definite convention: A2 has Gram matrix
[[-2, 1], [1, -2]].  Most references use the positive sign; rescale by -1 to
convert.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from math import isqrt, prod

from .errors import CapExceeded, InputError
from .intmat import (
    block_diag,
    det,
    identity,
    inertia,
    integral_kernel,
    mat_mul,
    mat_vec,
    positive_basis,
    smith_decompose,
    transpose,
)
from .records import Record

# `fqf` is imported inside the functions that build discriminant forms, so
# that a lattice used only for its signature does not load it.


class Lattice(Record):
    """Even lattice given by the Gram matrix of an integer basis."""

    _fields = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]):
        n = len(gram)
        for i, row in enumerate(gram):
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            if row[i] % 2 != 0:
                raise ValueError("Gram diagonal must be even")
            for j in range(n):
                if row[j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        vars(self)["gram"] = gram

    @staticmethod
    def from_rows(rows) -> "Lattice":
        return Lattice(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def determinant(self) -> int:
        return det([list(r) for r in self.gram])

    @cached_property
    def signature(self) -> tuple[int, int, int]:
        """(positive, negative, zero) inertia indices."""
        return inertia([list(r) for r in self.gram])

    def is_nondegenerate(self) -> bool:
        return self.signature[2] == 0

    def is_definite(self) -> bool:
        plus, minus, zero = self.signature
        return zero == 0 and (plus == 0 or minus == 0)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        return Lattice.from_rows(
            block_diag([list(r) for r in self.gram], [list(r) for r in other.gram])
        )

    def rescaled(self, n: int) -> "Lattice":
        if n == 0:
            raise InputError("rescale factor must be nonzero")
        return Lattice.from_rows([[n * x for x in row] for row in self.gram])

    def negated(self) -> "Lattice":
        return self.rescaled(-1)

    def pairing(self, x, y) -> int:
        return sum(
            x[i] * self.gram[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


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


# -- the text notation -------------------------------------------------------

# Largest rank an expression may describe.  The K3 lattice has rank 22 and
# every input the package works with lies far below this; the bound is
# checked before any Gram matrix is built, so an expression like A1000 or
# 500U fails at once instead of starting cubic-time matrix work.
MAX_RANK = 64


def _root_gram(letter: str, n: int) -> list[list[int]]:
    if letter == "A":
        if n < 1:
            raise InputError("A-series needs index >= 1")
        edges = [(i, i + 1) for i in range(n - 1)]
    elif letter == "D":
        if n < 4:
            raise InputError("D-series needs index >= 4")
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif letter == "E":
        if n not in (6, 7, 8):
            raise InputError("E-series index must be 6, 7 or 8")
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    else:
        raise InputError(f"unknown series {letter!r}")
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise InputError(f"lattice notation error at position {self.pos}: {msg}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def check_rank(self, rank: int):
        if rank > MAX_RANK:
            self.error(f"lattice rank {rank} exceeds the limit of {MAX_RANK}")

    def expect(self, c: str):
        if self.peek() != c:
            self.error(f"expected {c!r}")
        self.pos += 1

    def integer(self, signed: bool) -> int:
        c = self.peek()
        neg = False
        if signed and c == "-":
            neg = True
            self.pos += 1
            c = self.peek()
        if not c.isdigit():
            self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            value = int(self.text[start : self.pos])
        except ValueError:  # beyond the interpreter's digit limit
            self.error("integer has too many digits")
        return -value if neg else value

    def expr(self) -> Lattice:
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            term = self.term()
            self.check_rank(out.rank + term.rank)
            out = out.direct_sum(term)
        return out

    def term(self) -> Lattice:
        if self.peek().isdigit():
            count = self.integer(signed=False)
            if count < 1:
                self.error("repetition count must be positive")
            if self.peek() == "*":
                self.pos += 1
            base = self.factor()
            self.check_rank(count * base.rank)
            out = base
            for _ in range(count - 1):
                out = out.direct_sum(base)
            return out
        return self.factor()

    def factor(self) -> Lattice:
        out = self.atom()
        while self.peek() == "(":
            self.pos += 1
            scale = self.integer(signed=True)
            self.expect(")")
            if scale == 0:
                self.error("rescale factor must be nonzero")
            out = out.rescaled(scale)
        return out

    def atom(self) -> Lattice:
        c = self.peek()
        if c == "U":
            self.pos += 1
            return Lattice.from_rows([[0, 1], [1, 0]])
        if c and c in "ADE":
            self.pos += 1
            index = self.integer(signed=False)
            self.check_rank(index)
            return Lattice.from_rows(_root_gram(c, index))
        if c == "[":
            self.pos += 1
            entries = [self.integer(signed=True)]
            while self.peek() == ",":
                self.pos += 1
                entries.append(self.integer(signed=True))
            self.expect("]")
            if len(entries) == 1:
                (n,) = entries
                if n % 2 != 0:
                    self.error("rank-1 lattice entry must be even")
                if n == 0:
                    self.error("rank-1 lattice entry must be nonzero")
                return Lattice.from_rows([[n]])
            if len(entries) == 3:
                a, b, c3 = entries
                if a % 2 != 0 or c3 % 2 != 0:
                    self.error("binary form diagonal entries must be even")
                return Lattice.from_rows([[a, b], [b, c3]])
            self.error("bracket form takes one or three entries")
        self.error("expected a lattice atom")


def build_lattice(spec: str) -> Lattice:
    """Parse the lattice notation: root series A/D/E, the hyperbolic plane U,
    [a,b,c] and [n] bracket forms, postfix (n) rescaling, k* repetition, and
    + for direct sums.  Whitespace-insensitive.  An expression of rank above
    `MAX_RANK` is an `InputError`."""
    parser = _Parser(spec)
    out = parser.expr()
    if parser.peek() != "":
        parser.error("trailing input")
    return out


# -- discriminant forms ------------------------------------------------------


class DiscriminantData(Record):
    """Discriminant form of an even lattice L, with the integer map that
    names its elements.  L is given by the Gram matrix G of a generating
    system, which may be degenerate: the Gram matrix of a basis, or that
    of generators with relations among them.

    Let U·G·V = S be the Smith form of G.  The torsion of coker G is
    dual(L)/L, whether or not G is degenerate.  A class is carried by its
    pairings t with the generators, an integer vector, and its coordinates
    are (U·t)_i mod d_i over the Smith invariants d_i > 1 (`class_of`).
    Generator i is the dual vector V[:, i] / d_i on the generators.
    Isometries of a lattice (`act`) enter through this one map."""

    _fields = ("gram", "form", "smith_u", "smith_v")

    def __init__(
        self,
        gram: tuple[tuple[int, ...], ...],
        form: FiniteQuadraticForm,
        smith_u: tuple[tuple[int, ...], ...],  # the rows of U at each d_i > 1
        smith_v: tuple[tuple[int, ...], ...],  # the columns of V at each d_i > 1
    ):
        vars(self).update(gram=gram, form=form, smith_u=smith_u, smith_v=smith_v)

    def class_of(self, pairings) -> tuple[int, ...]:
        """Coordinates of the class whose pairings with the generators are
        the integers `pairings`."""
        return tuple(
            sum(map(operator.mul, row, pairings)) % d
            for row, d in zip(self.smith_u, self.form.orders)
        )

    def generator_pairings(self, matrix) -> list[list[int]]:
        """matrix·V[:, i] / d_i for each generator i, for an integer matrix
        that takes every generator's dual vector to an integer vector (the
        division is exact).  With matrix = G·W this gives the pairings of
        the generators' images under an isometry W."""
        return _pushed(matrix, self.smith_v, self.form.orders)

    def act(self, isometry: Isometry) -> FqfIsometry:
        """Induced automorphism of the discriminant form."""
        from .fqf import FqfIsometry

        if isometry.lattice.gram != self.gram:
            raise ValueError("isometry acts on a different lattice")
        gw = mat_mul(self.gram, isometry.matrix)
        cols = tuple(self.class_of(t) for t in self.generator_pairings(gw))
        return FqfIsometry(self.form, self.form, cols, anti=False)


def _pushed(matrix, columns, orders) -> list[list[int]]:
    """matrix·col / d for each column and its order; the division is exact."""
    return [
        [x // d for x in mat_vec(matrix, col)] for col, d in zip(columns, orders)
    ]


def discriminant_data(gram) -> DiscriminantData:
    """The discriminant data of the even lattice generated by a system with
    Gram rows `gram`, degenerate or not (`DiscriminantData`)."""
    from .fqf import FiniteQuadraticForm

    gram = tuple(map(tuple, gram))
    s, u, v = smith_decompose(gram)
    keep = [i for i in range(len(gram)) if s[i][i] > 1]
    orders = tuple(s[i][i] for i in keep)
    smith_v = tuple(tuple(row[i] for row in v) for i in keep)
    pairs = _pushed(gram, smith_v, orders)  # G·w for each generator w

    e = orders[-1] if orders else 1  # the exponent of D

    def scaled(a, b) -> int:  # e·w_a·G·w_b
        return sum(map(operator.mul, smith_v[a], pairs[b])) * (e // orders[a])

    k = len(keep)
    # The Smith diagonal is already a divisor chain, so the generators can be
    # used as-is; running them through the normalizing factory could remix
    # them and break alignment with the Smith transforms.
    form = FiniteQuadraticForm(
        orders,
        tuple(scaled(a, a) % (2 * e) for a in range(k)),
        tuple(tuple(scaled(a, b) % e for b in range(k)) for a in range(k)),
    )
    return DiscriminantData(gram, form, tuple(tuple(u[i]) for i in keep), smith_v)


# -- orthogonal groups of small definite lattices ----------------------------


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


# -- sign structure and fixed sublattices ------------------------------------


def sign_structure_action(lattice: Lattice, isometry: Isometry) -> int:
    """+1 if the isometry preserves the orientation of a maximal positive
    definite subspace, -1 if it reverses it."""
    if not lattice.is_nondegenerate():
        raise ValueError("sign structure needs a nondegenerate lattice")
    basis = positive_basis([list(r) for r in lattice.gram])
    if not basis:
        return 1
    images = [mat_vec(isometry.matrix, vec) for vec in basis]
    value = det([[lattice.pairing(u, w) for w in images] for u in basis])
    if value == 0:
        raise ValueError("isometry degenerates the positive subspace pairing")
    return 1 if value > 0 else -1


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
