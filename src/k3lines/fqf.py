"""Finite quadratic forms: finite abelian groups with a Q/2Z-valued quadratic
form and the Q/Z-valued pairing it polarizes.

These arise as dual quotients of even lattices.  The module provides p-parts
and their length invariants, isometry and anti-isometry search, involution
conjugacy classes, subgroup and isotropic-quotient forms, and a Jordan
splitting of each p-part into cyclic blocks and, at p = 2, the rank-two
blocks u_a and v_a.  The local determinant square classes and the signature
residue mod 8 (the Brown invariant, summed block by block by the oddity
formula and used to cross-check signatures) are folds over those blocks.

Conventions: a form is stored on an independent generating set with orders in
an ascending divisor chain d1 | d2 | ...; quadratic values are reduced to
[0, 2), pairings to [0, 1), so equal forms compare equal structurally.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import CapExceeded
from .intmat import integral_kernel, inverse_unimodular, smith_decompose

ELEMENT_CAP = 10_000
TRIAL_DIVISION_LIMIT = 10**6
_MILLER_RABIN_EXACT = 3_317_044_064_679_887_385_961_981


def prime_power_factors(n: int) -> list[tuple[int, int]]:
    """(p, p**a) for every prime p dividing n, with p**a the exact power of
    p in n, by increasing p; empty for n < 2.

    Trial division stops at TRIAL_DIVISION_LIMIT.  A cofactor left above it
    is accepted only when provably prime (deterministic Miller-Rabin);
    otherwise the factorisation raises CapExceeded."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if p > TRIAL_DIVISION_LIMIT:
            if not _is_prime_above_trial_limit(m):
                raise CapExceeded(
                    f"factoring a {n.bit_length()}-bit number: a "
                    f"{m.bit_length()}-bit cofactor has no prime factor up "
                    f"to {TRIAL_DIVISION_LIMIT} and is not provably prime"
                )
            break
        if m % p == 0:
            power = 1
            while m % p == 0:
                m //= p
                power *= p
            out.append((p, power))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, m))
    return out


def _is_prime_above_trial_limit(m: int) -> bool:
    # Miller-Rabin with the primes up to 41 as bases is exact below
    # _MILLER_RABIN_EXACT (Sorenson and Webster, Math. Comp. 86, 2017); m
    # has no factor up to TRIAL_DIVISION_LIMIT, so it is odd and above 41.
    if m >= _MILLER_RABIN_EXACT:
        return False
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s, d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (m - 1) >> s, m)
        if x != 1 and all(pow(x, 1 << r, m) != m - 1 for r in range(s)):
            return False
    return True


def _scaled(x: Fraction, n: int) -> int:
    """x * n, for an n that x's denominator divides."""
    return x.numerator * (n // x.denominator)


def _basis(k: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for i in range(k)) for j in range(k)]


def _q_scaled(qs, bs, c) -> int:
    """n * q(c), unreduced, for a form given by n * q on generators (`qs`)
    and n * b between them (`bs`)."""
    total = 0
    k = len(c)
    for i, ci in enumerate(c):
        if ci:
            row = bs[i]
            cross = sum(row[j] * c[j] for j in range(i + 1, k) if c[j])
            total += ci * (ci * qs[i] + 2 * cross)
    return total


def _b_scaled(bs, x, y) -> int:
    """n * b(x, y), unreduced, for n * b between generators given by `bs`."""
    return sum(xi * sum(map(operator.mul, bs[i], y)) for i, xi in enumerate(x) if xi)


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Invariant factors with quadratic values on generators and their
    pairing matrix.  Build instances through `finite_quadratic_form`, which
    normalizes arbitrary independent generators into this shape.

    The arithmetic runs on integers: with n the exponent, `_q` holds
    n * q on the generators mod 2n and `_b` holds n * b between them mod n.
    Both are derived from the Fraction fields, so they take no part in
    equality, hashing or repr."""

    orders: tuple[int, ...]
    qvalues: tuple[Fraction, ...]
    pairing: tuple[tuple[Fraction, ...], ...]
    _n: int = field(init=False, compare=False, repr=False)
    _q: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _b: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        k = len(self.orders)
        if len(self.qvalues) != k or len(self.pairing) != k:
            raise ValueError("inconsistent generator data")
        for a, b in zip(self.orders, self.orders[1:]):
            if b % a != 0:
                raise ValueError("orders must form a divisor chain")
        for i, d in enumerate(self.orders):
            if d < 2:
                raise ValueError("orders must exceed 1")
            q = self.qvalues[i]
            if not 0 <= q < 2:
                raise ValueError("quadratic values must be reduced mod 2")
            if d % 2 == 1:
                if (q * d) % 2 != 0:
                    raise ValueError("odd-order generator with invalid square")
            elif (q * d * d) % 2 != 0:
                raise ValueError("generator square incompatible with its order")
            if q % 1 != self.pairing[i][i]:
                raise ValueError("pairing diagonal must equal the square mod 1")
            for j in range(k):
                bij = self.pairing[i][j]
                if not 0 <= bij < 1:
                    raise ValueError("pairing must be reduced mod 1")
                if bij != self.pairing[j][i]:
                    raise ValueError("pairing must be symmetric")
                if (bij * d) % 1 != 0:
                    raise ValueError("pairing denominator must divide the order")
        # Every denominator divides its generator's order, hence n.
        n = self.exponent()
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_q", tuple(_scaled(q, n) for q in self.qvalues))
        object.__setattr__(self, "_b", tuple(
            tuple(_scaled(x, n) for x in row) for row in self.pairing
        ))

    # -- basic queries ---------------------------------------------------

    def rank(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    def is_trivial(self) -> bool:
        return not self.orders

    def exponent(self) -> int:
        return self.orders[-1] if self.orders else 1

    def q_of(self, coords) -> Fraction:
        return Fraction(self._qn(coords), self._n)

    def b_of(self, x, y) -> Fraction:
        return Fraction(_b_scaled(self._b, x, y) % self._n, self._n)

    def _qn(self, coords) -> int:
        """n * q(coords), reduced mod 2n."""
        return _q_scaled(self._q, self._b, coords) % (2 * self._n)

    def _dual(self, y) -> tuple[int, ...]:
        """n * b(e_i, y) mod n for every generator e_i, so that n * b(x, y)
        is the dot product of x with it."""
        n = self._n
        return tuple(sum(map(operator.mul, row, y)) % n for row in self._b)

    def reduce(self, coords) -> tuple[int, ...]:
        return tuple(c % d for c, d in zip(coords, self.orders))

    def order_of(self, coords) -> int:
        n = 1
        for c, d in zip(coords, self.orders):
            n = lcm(n, d // gcd(d, c % d))
        return n

    def elements(self, cap: int | None = ELEMENT_CAP):
        """All coordinate tuples, lexicographically.  Guarded by `cap`."""
        if cap is not None and self.order() > cap:
            raise CapExceeded(
                f"group of order {self.order()} exceeds the cap of {cap}"
            )
        return itertools.product(*[range(d) for d in self.orders])

    def two_torsion(self) -> list[tuple[int, ...]]:
        choices = [(0, d // 2) if d % 2 == 0 else (0,) for d in self.orders]
        return [t for t in itertools.product(*choices)]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    # -- constructions ---------------------------------------------------

    def direct_sum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        zeros1, zeros2 = (0,) * self.rank(), (0,) * other.rank()
        pair = [row + zeros2 for row in self.pairing]
        pair += [zeros1 + row for row in other.pairing]
        return finite_quadratic_form(
            self.orders + other.orders, self.qvalues + other.qvalues, pair
        )

    def negated(self) -> "FiniteQuadraticForm":
        return finite_quadratic_form(
            self.orders,
            [-q % 2 for q in self.qvalues],
            [[-x % 1 for x in row] for row in self.pairing],
        )

    def p_part(self, p: int) -> "FiniteQuadraticForm":
        coords = []
        for i, d in enumerate(self.orders):
            a = 1
            while d % p == 0:
                d //= p
                a *= p
            if a > 1:
                c = [0] * len(self.orders)
                c[i] = d  # the cofactor kills every other primary component
                coords.append(tuple(c))
        return subgroup_form(self, coords)[0]


TRIVIAL_FORM = FiniteQuadraticForm((), (), ())


def finite_quadratic_form(orders, qvalues, pairing) -> FiniteQuadraticForm:
    """Normalize independent generators (arbitrary orders) into the divisor
    chain presentation.  Generators of order 1 are dropped; the rest are split
    into primary components and recombined so the orders form a chain."""
    orders = [int(d) for d in orders]
    k = len(orders)
    qvalues = [Fraction(q) for q in qvalues]
    pairing = [[Fraction(pairing[i][j]) for j in range(k)] for i in range(k)]
    # Exact integer arithmetic over a common multiple n of every order and
    # denominator: n * q mod 2n and n * b mod n.
    n = lcm(
        *(d for d in orders if d > 0),
        *(x.denominator for x in qvalues),
        *(x.denominator for row in pairing for x in row),
    )
    qs = [_scaled(q, n) % (2 * n) for q in qvalues]
    bs = [[_scaled(x, n) % n for x in row] for row in pairing]
    for i in range(k):
        if qs[i] % n != bs[i][i]:
            raise ValueError("pairing diagonal must equal the square mod 1")
        for j in range(k):
            if bs[i][j] != bs[j][i]:
                raise ValueError("pairing must be symmetric")

    new_gens = _chain(list(zip(orders, _basis(k))))
    new_orders = tuple(d for d, _ in new_gens)
    new_q = tuple(Fraction(_q_scaled(qs, bs, c) % (2 * n), n) for _, c in new_gens)
    new_pair = tuple(
        tuple(Fraction(_b_scaled(bs, c1, c2) % n, n) for _, c2 in new_gens)
        for _, c1 in new_gens
    )
    return FiniteQuadraticForm(new_orders, new_q, new_pair)


def _chain(gens) -> list[tuple[int, list[int]]]:
    """Split independent generators, given as (order, coefficient vector),
    into primary components and recombine them slot by slot, so that the
    orders of the resulting (order, vector) pairs form a divisor chain."""
    primary: dict[int, list[tuple[int, list[int]]]] = {}
    for d, vec in gens:
        for p, power in prime_power_factors(d):
            # the CRT idempotent: a multiple of d / power that is 1 mod
            # power, so the parts have orders power and sum back to vec
            e = d // power * pow(d // power, -1, power)
            primary.setdefault(p, []).append((power, [e * c for c in vec]))
    for comps in primary.values():
        comps.sort(key=lambda t: t[0])
    depth = max(map(len, primary.values()), default=0)
    out = []
    for slot in range(depth):
        order, vec = 1, [0] * len(gens[0][1])
        for comps in primary.values():
            at = slot - (depth - len(comps))
            if at >= 0:
                order *= comps[at][0]
                vec = [a + b for a, b in zip(vec, comps[at][1])]
        out.append((order, vec))
    return out


# -- coordinate solving ----------------------------------------------------


def solve_mod(columns, target, orders) -> list[int] | None:
    """Integer coefficients c with sum(c_i * columns_i) = target in the group
    with the given cyclic orders, or None when no solution exists."""
    k = len(orders)
    m = len(columns)
    if k == 0:
        return [0] * m
    mat = [[columns[j][i] for j in range(m)] + [orders[i] if t == i else 0 for t in range(k)]
           for i in range(k)]
    s, u, v = smith_decompose(mat)
    rhs = [sum(u[i][j] * target[j] for j in range(k)) for i in range(k)]
    z = [0] * (m + k)
    for i in range(k):
        d = s[i][i]
        if d == 0:
            if rhs[i] != 0:
                return None
            continue
        if rhs[i] % d != 0:
            return None
        z[i] = rhs[i] // d
    full = [sum(v[i][j] * z[j] for j in range(m + k)) for i in range(m + k)]
    return full[:m]


def subgroup_membership(form: FiniteQuadraticForm, gens, element) -> bool:
    return solve_mod(list(gens), list(element), list(form.orders)) is not None


def subgroup_form(form: FiniteQuadraticForm, gens):
    """The subgroup generated by `gens` (coordinate tuples in `form`), with
    its restricted quadratic form.

    Returns (subform, basis) where basis lists coordinate tuples in `form`
    realizing the subform's generators.
    """
    gens = [form.reduce(g) for g in gens]
    gens = [g for g in gens if form.order_of(g) > 1]
    if not gens:
        return TRIVIAL_FORM, []
    return _presentation(form, gens, [])


def _presentation(form: FiniteQuadraticForm, gens, killed):
    """The form on the subgroup generated by `gens` modulo the subgroup
    generated by `killed`, as (form, basis) with basis in `form`
    coordinates.  The caller ensures the form descends to that quotient."""
    k = form.rank()
    m = len(gens)
    stacked = [
        [gens[j][i] for j in range(m)]
        + [g[i] for g in killed]
        + [form.orders[i] if t == i else 0 for t in range(k)]
        for i in range(k)
    ]
    relations = [vec[:m] for vec in integral_kernel(stacked)]
    # Z^m modulo the relation lattice presents the group; diagonalize the
    # relations to read off a clean cyclic decomposition.
    rel_cols = [[rel[i] for rel in relations] for i in range(m)]
    s, u, v = smith_decompose(rel_cols)
    uinv = inverse_unimodular(u)
    basis = []
    orders = []
    for i in range(m):
        e = s[i][i] if i < min(len(s), len(s[0]) if s else 0) else 0
        if e == 1:
            continue
        if e == 0:
            raise ValueError("relation lattice unexpectedly degenerate")
        combo = [0] * k
        for j in range(m):
            cj = uinv[j][i]
            if cj:
                for t in range(k):
                    combo[t] += cj * gens[j][t]
        orders.append(e)
        basis.append(form.reduce(combo))
    qvals = [form.q_of(c) for c in basis]
    pair = [[form.b_of(c1, c2) for c2 in basis] for c1 in basis]
    sub = finite_quadratic_form(orders, qvals, pair)
    # The normalization inside finite_quadratic_form recombines primary
    # parts; rebuild the matching coordinate representatives.
    if sub.orders != tuple(orders):
        basis = [form.reduce(v) for _, v in _chain(list(zip(orders, basis)))]
        if tuple(form.order_of(c) for c in basis) != sub.orders:
            raise ValueError("subgroup basis reconstruction failed")
    return sub, basis


def orthogonal_subgroup(form: FiniteQuadraticForm, gens) -> list[tuple[int, ...]]:
    """Generators of {x : b(x, g) = 0 for all g in gens}."""
    k = form.rank()
    if k == 0:
        return []
    gens = [form.reduce(g) for g in gens]
    if not gens:
        return _basis(k)
    # n * b(e_t, g) over the least common denominator of the b(e_t, g).
    n = form._n
    rows = [form._dual(g) for g in gens]
    den = lcm(*(n // gcd(n, x) for row in rows for x in row))
    introws = [[x * den // n for x in row] for row in rows]
    m = len(introws)
    stacked = [introws[i] + [den if t == i else 0 for t in range(m)] for i in range(m)]
    sols = [vec[:k] for vec in integral_kernel(stacked)]
    return [form.reduce(v) for v in sols]


def isotropic_quotient(form: FiniteQuadraticForm, kernel_gens):
    """The form on perp(K)/K for the isotropic subgroup K generated by
    `kernel_gens`.  This is the discriminant form of a finite-index
    overlattice whose index subgroup is K.

    Returns (quotient_form, representatives) with representatives giving one
    coordinate tuple in `form` per quotient generator.
    """
    kernel_gens = [form.reduce(g) for g in kernel_gens]
    kernel_gens = [g for g in kernel_gens if form.order_of(g) > 1]
    for i, g in enumerate(kernel_gens):
        if form.q_of(g) != 0:
            raise ValueError("kernel generator with nonzero square")
        for h in kernel_gens[i:]:
            if form.b_of(g, h) != 0:
                raise ValueError("kernel generators do not pair integrally")
    perp = orthogonal_subgroup(form, kernel_gens)
    if not perp:
        return TRIVIAL_FORM, []
    return _presentation(form, perp, kernel_gens)


def ell(form: FiniteQuadraticForm, p: int) -> int:
    """Minimal generator count of the p-part."""
    return sum(1 for d in form.orders if d % p == 0)


# -- signature residue --------------------------------------------------------


def brown_invariant(form: FiniteQuadraticForm) -> int:
    """Signature residue mod 8 of the form: the sum of fixed per-block terms
    over a Jordan splitting of each p-part (the oddity formula; Conway and
    Sloane, *Sphere Packings, Lattices and Groups*, ch. 15).

    For a nondegenerate form this is the residue that matches the signature
    of any even lattice inducing the form.  Degenerate input raises
    ValueError: it has no such splitting.
    """
    total = 0
    for p, _ in prime_power_factors(form.order()):
        for a, cs in _jordan_blocks(form.p_part(p), p):
            if len(cs) == 2:  # q = 2x, 2z over 2**a; 4a for v_a (x * z odd)
                total += a * (cs[0] * cs[1] % 8)
            elif p == 2:  # q = c / 2**a, c odd
                c = cs[0]
                total += c + a * (c * c - 1) // 2
            elif a % 2:  # q = 2w / p**a; Euler's criterion on w
                nonsquare = pow(cs[0] // 2, (p - 1) // 2, p) != 1
                total += 2 * (p % 4 == 3) + 4 * nonsquare
    return total % 8


# -- isometries and anti-isometries -----------------------------------------


@dataclass(frozen=True)
class FqfIsometry:
    """Group isomorphism between two forms, with q(image) = q or q(image) =
    -q according to `anti`.  Columns hold target coordinates of the source
    generators."""

    source: FiniteQuadraticForm
    target: FiniteQuadraticForm
    columns: tuple[tuple[int, ...], ...]
    anti: bool = False

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
        k = self.source.rank()
        cols = []
        for j in range(k):
            e = tuple(1 if i == j else 0 for i in range(k))
            pre = solve_mod(
                list(self.columns), list(e), list(self.target.orders)
            )
            if pre is None:
                raise ValueError("isometry is not invertible")
            cols.append(self.source.reduce(pre))
        return FqfIsometry(self.target, self.source, tuple(cols), anti=self.anti)

    def is_identity(self) -> bool:
        if self.source != self.target or self.anti:
            return False
        k = self.source.rank()
        return all(
            self.columns[j] == tuple(1 if i == j else 0 for i in range(k))
            for j in range(k)
        )


def identity_isometry(form: FiniteQuadraticForm) -> FqfIsometry:
    return FqfIsometry(form, form, tuple(_basis(form.rank())), anti=False)


def minus_identity_isometry(form: FiniteQuadraticForm) -> FqfIsometry:
    k = form.rank()
    cols = tuple(
        tuple((-1 if i == j else 0) % form.orders[i] for i in range(k))
        for j in range(k)
    )
    return FqfIsometry(form, form, cols, anti=False)


def fqf_isometries(
    source: FiniteQuadraticForm,
    target: FiniteQuadraticForm,
    anti: bool = False,
) -> list[FqfIsometry]:
    """All isometries (anti=False) or anti-isometries (anti=True) from
    source to target, sorted canonically.  Enumerates the target group, so
    its order is capped."""
    if source.order() != target.order() or source.exponent() != target.exponent():
        return []
    if source.is_trivial():
        return [FqfIsometry(source, target, (), anti=anti)]
    # Both forms are scaled by the same n, so every test is on integers.
    n = target._n
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for el in target.elements():
        buckets.setdefault((target.order_of(el), target._qn(el)), []).append(el)

    k = source.rank()
    sign = -1 if anti else 1
    order_by = sorted(range(k), key=lambda i: (-source.orders[i], source._q[i]))
    want_q = [sign * q % (2 * n) for q in source._q]
    want_b = [[sign * x % n for x in row] for row in source._b]
    # A pairing-preserving map out of a nondegenerate form is injective, so
    # with equal orders every leaf is onto; only a degenerate source needs
    # the Smith-form check.
    check_onto = not _nondegenerate(source)

    results: list[tuple[tuple[int, ...], ...]] = []
    images: list = [None] * k
    duals: list[tuple[int, tuple[int, ...]]] = []  # (j, dual of images[j])

    def extend(depth: int):
        if depth == k:
            if not check_onto or all(
                subgroup_membership(target, images, e) for e in _basis(k)
            ):
                results.append(tuple(images))
            return
        i = order_by[depth]
        found = buckets.get((source.orders[i], want_q[i]), [])
        for j, dual in duals:  # n * b(el, images[j]) is a dot product
            w = want_b[i][j]
            found = [el for el in found if sum(map(operator.mul, el, dual)) % n == w]
        for el in found:
            images[i] = el
            duals.append((i, target._dual(el)))
            extend(depth + 1)
            duals.pop()

    extend(0)
    results.sort()
    return [FqfIsometry(source, target, cols, anti=anti) for cols in results]


def _nondegenerate(form: FiniteQuadraticForm) -> bool:
    radical = orthogonal_subgroup(form, _basis(form.rank()))
    return all(form.order_of(v) == 1 for v in radical)


_AUT_CACHE: dict[FiniteQuadraticForm, list[FqfIsometry]] = {}


def automorphism_group(form: FiniteQuadraticForm):
    if form not in _AUT_CACHE:
        _AUT_CACHE[form] = fqf_isometries(form, form, anti=False)
    return _AUT_CACHE[form]


@dataclass(frozen=True)
class InvolutionClass:
    representative: FqfIsometry
    size: int
    members: frozenset[tuple[tuple[int, ...], ...]]

    def contains(self, g: FqfIsometry) -> bool:
        return g.columns in self.members


def involution_classes(form: FiniteQuadraticForm) -> list[InvolutionClass]:
    """Conjugacy classes of self-inverse automorphisms, the identity and the
    negation map included.  Sorted by (class size, representative).

    Each class is the conjugation orbit of its least involution under a
    generating set of the group (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, section 4.1), so a class costs
    |class| x |generators| conjugations, not |group|."""
    group = [g.columns for g in automorphism_group(form)]
    orders = form.orders

    def mul(a, b):  # a after b, both given by columns
        rows = tuple(zip(*a))
        return tuple(
            tuple(sum(map(operator.mul, row, col)) % d for row, d in zip(rows, orders))
            for col in b
        )

    ident = identity_isometry(form).columns
    gens = [
        (a, FqfIsometry(form, form, a).inverse().columns)
        for a in greedy_generators(group, mul, ident)
    ]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    classes = []
    for s in group:  # sorted, so s is the least member of its class
        if s in seen or mul(s, s) != ident:
            continue
        seen.add(s)
        orbit = [s]
        for x in orbit:
            for a, a_inv in gens:
                y = mul(a, mul(x, a_inv))
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        rep = FqfIsometry(form, form, s, anti=False)
        classes.append(InvolutionClass(rep, len(orbit), frozenset(orbit)))
    classes.sort(key=lambda c: (c.size, c.representative.columns))
    return classes


def greedy_generators(group, mul, ident) -> list:
    """Elements of `group` that generate it, each picked in list order when
    it lies outside the subgroup the earlier picks generate.  That subgroup
    is grown coset by coset (Dimino's algorithm), so building it costs
    about |group| products."""
    span, inside, gens = [ident], {ident}, []
    for g in group:
        if g in inside:
            continue
        gens.append(g)
        sub, reps = list(span), [g]
        for r in reps:
            if r in inside:
                continue
            coset = [mul(h, r) for h in sub]
            span += coset
            inside.update(coset)
            reps += [mul(r, a) for a in gens]
    return gens


# -- local determinant square classes ----------------------------------------


def square_class_equal(a, b, p: int) -> bool:
    """Whether a and b generate the same square class of p-adic units times
    powers of p (both nonzero rationals)."""
    if prime_power_factors(p) != [(p, p)]:
        raise ValueError(f"{p} is not prime")
    ratio = Fraction(a) / Fraction(b)
    num, den = ratio.numerator, ratio.denominator
    val = 0
    while num % p == 0:
        num //= p
        val += 1
    while den % p == 0:
        den //= p
        val -= 1
    if val % 2 != 0:
        return False
    if p == 2:
        return (num * den) % 8 == 1
    legendre = pow(num % p, (p - 1) // 2, p) * pow(den % p, (p - 1) // 2, p)
    return legendre % p == 1


def _pval(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _require_primary(part: FiniteQuadraticForm, p: int):
    for d in part.orders:
        while d % p == 0:
            d //= p
        if d != 1:
            raise ValueError(f"form is not {p}-primary")


def _jordan_blocks(part: FiniteQuadraticForm, p: int):
    """Yield (a, cs) for each block of an orthogonal splitting of the
    p-primary form `part` into blocks of order p**a (Nikulin, Math. USSR Izv.
    14, 1980, section 1.8): cs holds p**a * q on the block's generators,
    one value for a cyclic block and two for an even rank-two block, which
    occurs only at p = 2.

    Each block is split off at the top order and the rest is its orthogonal
    complement.  Degenerate input raises ValueError."""
    _require_primary(part, p)
    form = part
    while not form.is_trivial():
        n, k = form._n, form.rank()
        basis = _basis(k)
        top = [i for i in range(k) if form.orders[i] == n]
        units = [i for i in top if form._q[i] % p]
        if units:
            block, skip = [basis[units[-1]]], (units[-1],)
        else:
            # no top generator has a unit square: pair one with a partner
            pair = next(
                ((i, j) for i in reversed(top) for j in range(k) if form._b[i][j] % p),
                None,
            )
            if pair is None:
                raise ValueError(f"degenerate {p}-part: no unit block found")
            if p == 2:
                block, skip = [basis[i] for i in pair], pair
            else:  # q(e_i + e_j) = 2 b(e_i, e_j) is a unit
                block, skip = [tuple(int(s in pair) for s in range(k))], ()
        yield _pval(n, p), tuple(form._qn(g) for g in block)
        form = _complement(form, block, skip)


def odd_p_det_class(part: FiniteQuadraticForm, p: int) -> int:
    """A representative of the determinant square class (p odd) of any
    p-adic lattice of rank len(part.orders) inducing `part`."""
    det = 1
    for a, (c,) in _jordan_blocks(part, p):
        det *= c * p**a
    return det


def _complement(form: FiniteQuadraticForm, block, skip) -> FiniteQuadraticForm:
    """The form on the orthogonal complement of `block`, one or two vectors
    whose pairing matrix, scaled by the exponent n, is invertible mod n.
    It is generated by the generators outside `skip`, each minus its
    projection to the block."""
    n, k = form._n, form.rank()
    duals = [form._dual(g) for g in block]
    gram = [[sum(map(operator.mul, d, g)) for g in block] for d in duals]
    if len(block) == 1:
        inv = [[pow(gram[0][0], -1, n)]]
    else:
        (a, b), (_, c) = gram
        dinv = pow(a * c - b * b, -1, n)
        inv = [[c * dinv, -b * dinv], [-b * dinv, a * dinv]]
    rest = []
    for t, e in enumerate(_basis(k)):
        if t not in skip:
            coef = [sum(x * d[t] for x, d in zip(row, duals)) for row in inv]
            proj = [e[s] - sum(x * g[s] for x, g in zip(coef, block)) for s in range(k)]
            rest.append(form.reduce(proj))
    return subgroup_form(form, rest)[0]


def two_adic_det_classes(part: FiniteQuadraticForm) -> list[int]:
    """Representatives of every determinant square class (p = 2) compatible
    with `part` for 2-adic lattices of rank len(part.orders).

    Order-2 blocks of odd square leave their unit ambiguous mod 8, so the
    result can hold several classes; one per class is kept as the blocks
    are folded in.
    """
    classes = [1]
    for a, cs in _jordan_blocks(part, 2):
        if len(cs) == 2:  # 2**a [[2x, u], [u, 2z]], det 4**a (4xz - u*u)
            factors = [3 * 4**a if cs[0] * cs[1] % 8 else -(4**a)]
        elif a == 1:
            factors = [2 * cs[0], 2 * (cs[0] + 4)]
        else:
            factors = [cs[0] * 2**a]
        out: dict[tuple[int, int], int] = {}
        dets = [d * f for d in classes for f in factors]
        for det in sorted(dets, key=lambda n: (abs(n), n)):
            v = _pval(abs(det), 2)
            out.setdefault((v, det // 2**v % 8), det)
        classes = list(out.values())
    return classes
