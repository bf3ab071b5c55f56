"""Even integer lattices presented by Gram matrices.

Provides the text notation for standard constructors (root lattices, the
hyperbolic plane, binary forms, rescaling, repetition, direct sum), the
discriminant form of a nondegenerate lattice together with coordinates for
dual vectors, orthogonal groups of small definite lattices, the sign action
on orientations of maximal positive subspaces, and fixed sublattices of
involutions.

Root lattices follow the NEGATIVE definite convention: A2 has Gram matrix
[[-2, 1], [1, -2]].  Most references use the positive sign; rescale by -1 to
convert.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import InputError
from .fqf import FiniteQuadraticForm, FqfIsometry, fqf_isometries
from .intmat import (
    block_diag,
    det,
    det_fraction,
    identity,
    inertia,
    integral_kernel,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    positive_basis,
    smith_decompose,
    transpose,
)


@dataclass(frozen=True)
class Lattice:
    """Even lattice given by the Gram matrix of an integer basis."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        for i, row in enumerate(self.gram):
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            if row[i] % 2 != 0:
                raise ValueError("Gram diagonal must be even")
            for j in range(n):
                if row[j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

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

    def norm(self, vec) -> int:
        return sum(
            vec[i] * self.gram[i][j] * vec[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def pairing(self, x, y) -> int:
        return sum(
            x[i] * self.gram[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


@dataclass(frozen=True)
class Isometry:
    """Self-map of a lattice preserving the form: matrixᵀ·G·matrix = G."""

    lattice: Lattice
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        w = [list(r) for r in self.matrix]
        g = [list(r) for r in self.lattice.gram]
        if mat_mul(mat_mul(transpose(w), g), w) != g:
            raise ValueError("matrix does not preserve the Gram form")

    def compose(self, inner: "Isometry") -> "Isometry":
        """self after inner."""
        if inner.lattice != self.lattice:
            raise ValueError("isometries act on different lattices")
        prod = mat_mul([list(r) for r in self.matrix], [list(r) for r in inner.matrix])
        return Isometry(self.lattice, tuple(tuple(r) for r in prod))

    def inverse(self) -> "Isometry":
        inv = inverse_unimodular([list(r) for r in self.matrix])
        return Isometry(self.lattice, tuple(tuple(r) for r in inv))

    def is_involution(self) -> bool:
        prod = mat_mul([list(r) for r in self.matrix], [list(r) for r in self.matrix])
        return prod == identity(self.lattice.rank)

    def negated(self) -> "Isometry":
        return Isometry(
            self.lattice, tuple(tuple(-x for x in row) for row in self.matrix)
        )


def identity_isometry_of(lattice: Lattice) -> Isometry:
    return Isometry(lattice, tuple(tuple(r) for r in identity(lattice.rank)))


# -- the text notation -------------------------------------------------------


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
        value = int(self.text[start : self.pos])
        return -value if neg else value

    def expr(self) -> Lattice:
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            out = out.direct_sum(self.term())
        return out

    def term(self) -> Lattice:
        if self.peek().isdigit():
            count = self.integer(signed=False)
            if count < 1:
                self.error("repetition count must be positive")
            if self.peek() == "*":
                self.pos += 1
            base = self.factor()
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
            return Lattice.from_rows(_root_gram(c, self.integer(signed=False)))
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
    + for direct sums.  Whitespace-insensitive."""
    parser = _Parser(spec)
    out = parser.expr()
    if parser.peek() != "":
        parser.error("trailing input")
    return out


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


# -- discriminant forms ------------------------------------------------------


@dataclass(frozen=True)
class DiscriminantData:
    """Discriminant form of a nondegenerate even lattice with coordinate
    machinery: generators are explicit dual vectors, and isometries of the
    lattice push forward to isometries of the form."""

    lattice: Lattice
    form: FiniteQuadraticForm
    dual_vectors: tuple[tuple[Fraction, ...], ...]

    def coordinates(self, dual_vector) -> tuple[int, ...]:
        """Coordinates in the generator presentation of a vector of the dual
        lattice (given in lattice coordinates, rational entries)."""
        g = self.lattice.gram
        n = self.lattice.rank
        w = [Fraction(x) for x in dual_vector]
        pair = [sum(g[i][j] * w[j] for j in range(n)) for i in range(n)]
        for x in pair:
            if x.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
        u = self._smith[1]
        raw = [
            sum(u[i][j] * int(pair[j]) for j in range(n)) for i in range(n)
        ]
        diag = [self._smith[0][i][i] for i in range(n)]
        return tuple(
            raw[i] % diag[i] for i in range(n) if diag[i] > 1
        )

    @cached_property
    def _smith(self):
        s, u, v = smith_decompose([list(r) for r in self.lattice.gram])
        return s, u, v

    def act(self, isometry: Isometry) -> FqfIsometry:
        """Induced automorphism of the discriminant form."""
        if isometry.lattice != self.lattice:
            raise ValueError("isometry acts on a different lattice")
        w = isometry.matrix
        cols = [self.coordinates(mat_vec(w, vec)) for vec in self.dual_vectors]
        return FqfIsometry(self.form, self.form, tuple(cols), anti=False)


def discriminant_data(lattice: Lattice) -> DiscriminantData:
    if not lattice.is_nondegenerate():
        raise InputError("degenerate lattice has no discriminant form")
    n = lattice.rank
    g = [list(r) for r in lattice.gram]
    s, u, v = smith_decompose(g)
    duals = []
    orders = []
    for i in range(n):
        d = s[i][i]
        if d > 1:
            duals.append(tuple(Fraction(v[j][i], d) for j in range(n)))
            orders.append(d)
    qvals = []
    pair = [[Fraction(0)] * len(duals) for _ in range(len(duals))]
    for a, wa in enumerate(duals):
        val = sum(
            wa[i] * lattice.gram[i][j] * wa[j] for i in range(n) for j in range(n)
        )
        qvals.append(val % 2)
        for b, wb in enumerate(duals):
            val = sum(
                wa[i] * lattice.gram[i][j] * wb[j]
                for i in range(n)
                for j in range(n)
            )
            pair[a][b] = val % 1
    # The Smith diagonal is already a divisor chain, so the generators can be
    # used as-is; running them through the normalizing factory could remix
    # them and break alignment with the stored dual vectors.
    form = FiniteQuadraticForm(
        tuple(orders), tuple(qvals), tuple(tuple(row) for row in pair)
    )
    return DiscriminantData(lattice, form, tuple(duals))


def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """The finite quadratic form on dual(L)/L; its order is |det L|."""
    return discriminant_data(lattice).form


# -- orthogonal groups of small definite lattices ----------------------------


def _vectors_of_norm(gram_pos, bound_rows, norm: int) -> list[tuple[int, ...]]:
    n = len(gram_pos)
    out = []
    ranges = []
    for i in range(n):
        limit = bound_rows[i] * norm
        b = isqrt(limit.numerator // limit.denominator) if limit > 0 else 0
        ranges.append(range(-b, b + 1))
    stack = [()]
    for i in range(n):
        nxt = []
        for partial in stack:
            for x in ranges[i]:
                nxt.append(partial + (x,))
        stack = nxt
    for vec in stack:
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
    # Coordinate bound: x_i^2 <= (G^-1)_ii * norm for positive definite G.
    det_g = det_fraction([[Fraction(x) for x in row] for row in gpos])
    ginv_diag = []
    for i in range(n):
        minor = [
            [Fraction(gpos[r][c]) for c in range(n) if c != i]
            for r in range(n)
            if r != i
        ]
        cof = det_fraction(minor) if n > 1 else Fraction(1)
        ginv_diag.append(cof / det_g)
    norms = [gpos[i][i] for i in range(n)]
    candidates = {
        m: _vectors_of_norm(gpos, ginv_diag, m) for m in sorted(set(norms))
    }

    results = []
    images: list[tuple[int, ...]] = []

    def extend(i: int):
        if i == n:
            cols = images[:]
            mat = tuple(
                tuple(cols[j][r] for j in range(n)) for r in range(n)
            )
            results.append(mat)
            return
        for vec in candidates[norms[i]]:
            ok = True
            for j in range(i):
                want = gpos[i][j]
                got = sum(
                    vec[a] * gpos[a][b] * images[j][b]
                    for a in range(n)
                    for b in range(n)
                )
                if got != want:
                    ok = False
                    break
            if ok:
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
    n = lattice.rank
    g = lattice.gram
    w = isometry.matrix
    imgs = [mat_vec(w, vec) for vec in basis]
    mat = [
        [
            sum(
                basis[a][i] * g[i][j] * imgs[b][j]
                for i in range(n)
                for j in range(n)
            )
            for b in range(len(basis))
        ]
        for a in range(len(basis))
    ]
    value = det_fraction(mat)
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
    g = lattice.gram
    sub = [
        [
            sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))
            for y in basis
        ]
        for x in basis
    ]
    return Lattice.from_rows(sub), [list(v) for v in basis]


def invariants_match(a: Lattice, b: Lattice) -> bool:
    """Rank, signature, determinant and discriminant-form isometry class all
    agree.  For the small lattices this package compares (rank <= 3, or any
    indefinite rank where the genus has one class) this decides isometry."""
    if a.rank != b.rank or a.signature != b.signature:
        return False
    if a.determinant != b.determinant:
        return False
    if a.rank == 0:
        return True
    da, db = discriminant_form(a), discriminant_form(b)
    if da.is_trivial() and db.is_trivial():
        return True
    return bool(fqf_isometries(da, db, anti=False))
