"""Even integer lattices presented by Gram matrices.

Provides the text notation for standard constructors (root lattices, the
hyperbolic plane, binary forms, rescaling, repetition, direct sum) and the
discriminant form of an even lattice, read off the Gram matrix of a basis or
of any generating system, together with the integer map that names its
classes.  Isometries of lattices and the automorphisms of the discriminant
form they induce live in `gluing`.  The three kinds of transcendental
lattice data a configuration may carry (`TranscendentalSpec`) are here too:
an explicit positive definite binary lattice, 2U(k), or a discriminant form
with a rank.

Root lattices follow the NEGATIVE definite convention: A2 has Gram matrix
[[-2, 1], [1, -2]].  Most references use the positive sign; rescale by -1 to
convert.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import InputError
from .intmat import block_diag, det, inertia, mat_vec, smith_decompose
from .records import Record

# `fqf` is imported inside the functions that build or check discriminant
# forms, so that a lattice used only for its signature does not load it.


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
    Isometries of a lattice (`gluing.discriminant_action`) enter through
    this one map."""

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


# -- transcendental lattices -------------------------------------------------


class Definite2(Record):
    """Explicit positive definite rank-2 transcendental lattice."""

    _fields = ("lattice",)

    def __init__(self, lattice: Lattice):
        if lattice.rank != 2 or lattice.signature != (2, 0, 0):
            raise InputError(
                "transcendental lattice must be positive definite of rank 2"
            )
        vars(self)["lattice"] = lattice

    def rank(self) -> int:
        return 2


class TwoU(Record):
    """Transcendental lattice 2U(scale): two hyperbolic planes rescaled."""

    _fields = ("scale",)

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise InputError("scale must be a positive integer")
        vars(self)["scale"] = scale

    def rank(self) -> int:
        return 4


class GenericDiscr(Record):
    """Transcendental side known only through its discriminant form and rank.
    No involution data can be derived from this; matching reports UNKNOWN."""

    _fields = ("form", "rank_")

    def __init__(self, form: FiniteQuadraticForm, rank_: int):
        from .fqf import ell, prime_power_factors

        if rank_ < 1:
            raise InputError("rank must be positive")
        for p, _ in prime_power_factors(form.exponent()):
            if ell(form, p) > rank_:
                raise InputError(
                    f"rank {rank_} is below the {p}-length of the form"
                )
        if not form.is_nondegenerate():
            raise InputError("discriminant form must be nondegenerate")
        vars(self).update(form=form, rank_=rank_)

    def rank(self) -> int:
        return self.rank_


TranscendentalSpec = Definite2 | TwoU | GenericDiscr
