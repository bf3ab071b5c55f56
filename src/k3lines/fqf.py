"""Finite quadratic forms: finite abelian groups with a Q/2Z-valued quadratic
form and the Q/Z-valued pairing it polarizes.

These arise as dual quotients of even lattices.  The module provides p-parts
and their length invariants, isometry and anti-isometry search, involution
conjugacy classes, subgroup and isotropic-quotient forms, local determinant
square classes, and the Gauss-sum signature residue used for cross-checks.

Conventions: a form is stored on an independent generating set with orders in
an ascending divisor chain d1 | d2 | ...; quadratic values are reduced to
[0, 2), pairings to [0, 1), so equal forms compare equal structurally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CapExceeded
from .intmat import integral_kernel, inverse_unimodular, smith_decompose

ELEMENT_CAP = 10_000
GAUSS_SUM_CAP = 300_000


def prime_power_factors(n: int) -> list[tuple[int, int]]:
    """(p, p**a) for every prime p dividing n, with p**a the exact power of
    p in n, by increasing p.  Trial division; empty for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            power = 1
            while n % p == 0:
                n //= p
                power *= p
            out.append((p, power))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, n))
    return out


def _mod2(x: Fraction) -> Fraction:
    return Fraction(x) % 2


def _mod1(x: Fraction) -> Fraction:
    return Fraction(x) % 1


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Invariant factors with quadratic values on generators and their
    pairing matrix.  Build instances through `finite_quadratic_form`, which
    normalizes arbitrary independent generators into this shape."""

    orders: tuple[int, ...]
    qvalues: tuple[Fraction, ...]
    pairing: tuple[tuple[Fraction, ...], ...]

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
            if _mod1(q) != self.pairing[i][i]:
                raise ValueError("pairing diagonal must equal the square mod 1")
            for j in range(k):
                bij = self.pairing[i][j]
                if not 0 <= bij < 1:
                    raise ValueError("pairing must be reduced mod 1")
                if bij != self.pairing[j][i]:
                    raise ValueError("pairing must be symmetric")
                if (bij * d) % 1 != 0:
                    raise ValueError("pairing denominator must divide the order")

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
        total = Fraction(0)
        k = len(self.orders)
        for i in range(k):
            ci = coords[i]
            if ci:
                total += ci * ci * self.qvalues[i]
                for j in range(i + 1, k):
                    if coords[j]:
                        total += 2 * ci * coords[j] * self.pairing[i][j]
        return _mod2(total)

    def b_of(self, x, y) -> Fraction:
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.pairing[i]
                total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
        return _mod1(total)

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
        k1, k2 = self.rank(), other.rank()
        orders = self.orders + other.orders
        qvals = self.qvalues + other.qvalues
        pair = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
        for i in range(k1):
            for j in range(k1):
                pair[i][j] = self.pairing[i][j]
        for i in range(k2):
            for j in range(k2):
                pair[k1 + i][k1 + j] = other.pairing[i][j]
        return finite_quadratic_form(orders, qvals, pair)

    def negated(self) -> "FiniteQuadraticForm":
        return finite_quadratic_form(
            self.orders,
            [_mod2(-q) for q in self.qvalues],
            [[_mod1(-x) for x in row] for row in self.pairing],
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
    gens = [
        (int(d), _mod2(Fraction(q)))
        for d, q in zip(orders, qvalues)
    ]
    k = len(gens)
    pair = [[_mod1(Fraction(pairing[i][j])) for j in range(k)] for i in range(k)]
    for i in range(k):
        if _mod1(gens[i][1]) != pair[i][i]:
            raise ValueError("pairing diagonal must equal the square mod 1")
        for j in range(k):
            if pair[i][j] != pair[j][i]:
                raise ValueError("pairing must be symmetric")

    def q_combo(coeffs) -> Fraction:
        total = Fraction(0)
        for i in range(k):
            ci = coeffs[i]
            if ci:
                total += ci * ci * gens[i][1]
                for j in range(i + 1, k):
                    if coeffs[j]:
                        total += 2 * ci * coeffs[j] * pair[i][j]
        return _mod2(total)

    def b_combo(c1, c2) -> Fraction:
        total = Fraction(0)
        for i in range(k):
            if c1[i]:
                total += c1[i] * sum(pair[i][j] * c2[j] for j in range(k) if c2[j])
        return _mod1(total)

    # Split every generator into primary components, one coefficient vector
    # per prime power.
    primary: dict[int, list[tuple[int, list[int]]]] = {}
    for i, (d, _) in enumerate(gens):
        for p, power in prime_power_factors(d):
            coeff = [0] * k
            coeff[i] = d // power
            primary.setdefault(p, []).append((power, coeff))

    for p in primary:
        primary[p].sort(key=lambda t: t[0])
    depth = max((len(v) for v in primary.values()), default=0)
    new_gens: list[tuple[int, list[int]]] = []
    for slot in range(depth):
        order = 1
        coeff = [0] * k
        for p, comps in primary.items():
            at = slot - (depth - len(comps))
            if at >= 0:
                order *= comps[at][0]
                for idx in range(k):
                    coeff[idx] += comps[at][1][idx]
        new_gens.append((order, coeff))

    new_orders = tuple(d for d, _ in new_gens)
    new_q = tuple(q_combo(c) for _, c in new_gens)
    new_pair = tuple(
        tuple(b_combo(c1, c2) for _, c2 in new_gens) for _, c1 in new_gens
    )
    return FiniteQuadraticForm(new_orders, new_q, new_pair)


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
        basis = _match_basis(form, basis, orders, sub)
    return sub, basis


def _match_basis(form, basis, orders, sub):
    # Mirror the primary-splitting recombination on explicit coordinates.
    primary: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for d, coords in zip(orders, basis):
        for p, power in prime_power_factors(d):
            cof = d // power
            primary.setdefault(p, []).append(
                (power, form.reduce([cof * c for c in coords]))
            )
    for p in primary:
        primary[p].sort(key=lambda t: t[0])
    depth = max((len(v) for v in primary.values()), default=0)
    out = []
    for slot in range(depth):
        combo = [0] * form.rank()
        for p, comps in primary.items():
            at = slot - (depth - len(comps))
            if at >= 0:
                for idx in range(form.rank()):
                    combo[idx] += comps[at][1][idx]
        out.append(form.reduce(combo))
    if tuple(form.order_of(c) for c in out) != sub.orders:
        raise ValueError("subgroup basis reconstruction failed")
    return out


def orthogonal_subgroup(form: FiniteQuadraticForm, gens) -> list[tuple[int, ...]]:
    """Generators of {x : b(x, g) = 0 for all g in gens}."""
    k = form.rank()
    if k == 0:
        return []
    gens = [form.reduce(g) for g in gens]
    if not gens:
        return [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    den = 1
    rows = []
    for g in gens:
        row = [form.b_of(tuple(1 if i == t else 0 for i in range(k)), g) for t in range(k)]
        for x in row:
            den = lcm(den, x.denominator)
        rows.append(row)
    introws = [[int(x * den) for x in row] for row in rows]
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


# -- Gauss-sum signature residue --------------------------------------------


def brown_invariant(form: FiniteQuadraticForm) -> int:
    """Signature residue mod 8 of the form, via exact Gauss sums.

    For a nondegenerate form this is the residue that matches the signature
    of any even lattice inducing the form.  Degenerate input raises
    ValueError: its Gauss sum never lands on an admissible value.
    """
    total = 0
    for p, _ in prime_power_factors(form.order()):
        total += _brown_p(form.p_part(p), p)
    return total % 8


def _brown_p(part: FiniteQuadraticForm, p: int) -> int:
    if part.is_trivial():
        return 0
    if part.order() > GAUSS_SUM_CAP:
        raise CapExceeded(
            f"Gauss sum over {part.order()} elements exceeds the cap"
        )
    amax = 0
    kexp = 0
    for d in part.orders:
        a = 0
        while d % p == 0:
            d //= p
            a += 1
        amax = max(amax, a)
        kexp += a
    if p == 2:
        return _brown_two(part, amax, kexp)
    return _brown_odd(part, p, amax, kexp)


def _brown_odd(part: FiniteQuadraticForm, p: int, amax: int, kexp: int) -> int:
    # Work in Z[x]/(cyclotomic at p^amax): exponents mod p^amax, then fold
    # the relation x^((p-1)p^(amax-1)) = -(sum of lower p^(amax-1) shifts).
    modulus = p**amax
    step = p ** (amax - 1)
    cut = (p - 1) * step

    def reduce_poly(poly: dict[int, int]) -> tuple[tuple[int, int], ...]:
        red: dict[int, int] = {}
        for e, c in poly.items():
            red[e % modulus] = red.get(e % modulus, 0) + c
        changed = True
        while changed:
            changed = False
            for e in sorted(red):
                if e >= cut and red[e]:
                    c = red.pop(e)
                    base = e - cut
                    for j in range(p - 1):
                        t = base + j * step
                        red[t % modulus] = red.get(t % modulus, 0) - c
                    changed = True
                    break
        return tuple(sorted((e, c) for e, c in red.items() if c))

    hist: dict[int, int] = {}
    for el in part.elements(cap=GAUSS_SUM_CAP):
        q = part.q_of(el)
        t = int(q * modulus / 2) % modulus
        hist[t] = hist.get(t, 0) + 1
    target = reduce_poly(hist)

    gauss: dict[int, int] = {}
    for t in range(p):
        e = (t * t * step) % modulus
        gauss[e] = gauss.get(e, 0) + 1
    candidates: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    if kexp % 2 == 0:
        scale = p ** (kexp // 2)
        candidates.append((0, reduce_poly({0: scale})))
        candidates.append((4, reduce_poly({0: -scale})))
    else:
        scale = p ** ((kexp - 1) // 2)
        plus = reduce_poly({e: c * scale for e, c in gauss.items()})
        minus = reduce_poly({e: -c * scale for e, c in gauss.items()})
        if p % 4 == 1:
            candidates += [(0, plus), (4, minus)]
        else:
            candidates += [(2, plus), (6, minus)]
    for sig, poly in candidates:
        if poly == target:
            return sig
    raise ValueError("degenerate form: Gauss sum matches no signature")


def _brown_two(part: FiniteQuadraticForm, amax: int, kexp: int) -> int:
    # Work in Z[x]/(x^(Q/2) + 1) with Q a multiple of 8, so x represents a
    # primitive Q-th root of unity and x^(Q/8) an eighth root.
    qq = 2 ** max(amax + 1, 3)
    half = qq // 2

    def reduce_poly(poly: dict[int, int]) -> tuple[tuple[int, int], ...]:
        red: dict[int, int] = {}
        for e, c in poly.items():
            e %= qq
            if e >= half:
                e -= half
                c = -c
            red[e] = red.get(e, 0) + c
        return tuple(sorted((e, c) for e, c in red.items() if c))

    hist: dict[int, int] = {}
    unit = qq // 2 ** (amax + 1)
    for el in part.elements(cap=GAUSS_SUM_CAP):
        s = int(part.q_of(el) * 2**amax)
        e = (s * unit) % qq
        hist[e] = hist.get(e, 0) + 1
    target = reduce_poly(hist)

    eighth = qq // 8
    for sig in range(8):
        if kexp % 2 == 0:
            scale = 2 ** (kexp // 2)
            poly = {sig * eighth: scale}
        else:
            scale = 2 ** ((kexp - 1) // 2)
            poly = {}
            for e in ((sig + 1) * eighth, (sig - 1) * eighth):
                poly[e % qq] = poly.get(e % qq, 0) + scale
        if reduce_poly(poly) == target:
            return sig
    raise ValueError("degenerate form: Gauss sum matches no signature")


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
    k = form.rank()
    cols = tuple(tuple(1 if i == j else 0 for i in range(k)) for j in range(k))
    return FqfIsometry(form, form, cols, anti=False)


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
    cap: int = ELEMENT_CAP,
) -> list[FqfIsometry]:
    """All isometries (anti=False) or anti-isometries (anti=True) from
    source to target, sorted canonically.  Enumerates the target group, so
    its order is capped."""
    if source.order() != target.order():
        return []
    if source.is_trivial():
        return [FqfIsometry(source, target, (), anti=anti)]
    elements = list(target.elements(cap=cap))
    info = [(target.order_of(el), target.q_of(el)) for el in elements]
    buckets: dict[tuple[int, Fraction], list[int]] = {}
    for idx, key in enumerate(info):
        buckets.setdefault(key, []).append(idx)

    k = source.rank()
    sign = -1 if anti else 1
    order_by = sorted(
        range(k), key=lambda i: (-source.orders[i], source.qvalues[i])
    )
    want_q = [_mod2(sign * source.qvalues[i]) for i in range(k)]
    want_b = [
        [_mod1(sign * source.pairing[i][j]) for j in range(k)] for i in range(k)
    ]

    results: list[tuple[tuple[int, ...], ...]] = []
    chosen: dict[int, int] = {}

    def full_image(cols: dict[int, int]) -> bool:
        mat = [
            [elements[cols[j]][i] for j in range(k)]
            + [target.orders[i] if t == i else 0 for t in range(target.rank())]
            for i in range(target.rank())
        ]
        s, _, _ = smith_decompose(mat)
        n = min(len(s), len(s[0]) if s else 0)
        prod = 1
        for i in range(n):
            prod *= s[i][i]
        return prod == 1

    def extend(depth: int):
        if depth == k:
            if full_image(chosen):
                results.append(
                    tuple(elements[chosen[j]] for j in range(k))
                )
            return
        i = order_by[depth]
        for idx in buckets.get((source.orders[i], want_q[i]), []):
            el = elements[idx]
            ok = True
            for jdepth in range(depth):
                j = order_by[jdepth]
                if target.b_of(el, elements[chosen[j]]) != want_b[i][j]:
                    ok = False
                    break
            if ok:
                chosen[i] = idx
                extend(depth + 1)
                del chosen[i]

    extend(0)
    results.sort()
    return [FqfIsometry(source, target, cols, anti=anti) for cols in results]


_AUT_CACHE: dict[FiniteQuadraticForm, list[FqfIsometry]] = {}


def automorphism_group(form: FiniteQuadraticForm, cap: int = ELEMENT_CAP):
    if form not in _AUT_CACHE:
        _AUT_CACHE[form] = fqf_isometries(form, form, anti=False, cap=cap)
    return _AUT_CACHE[form]


def _power_inverse(g: FqfIsometry) -> FqfIsometry:
    ident = identity_isometry(g.source)
    prev = ident
    cur = g
    while not cur.is_identity():
        prev = cur
        cur = g.compose(cur)
    return prev if not g.is_identity() else ident


@dataclass(frozen=True)
class InvolutionClass:
    representative: FqfIsometry
    size: int
    members: frozenset[tuple[tuple[int, ...], ...]]

    def contains(self, g: FqfIsometry) -> bool:
        return g.columns in self.members


def involution_classes(
    form: FiniteQuadraticForm, cap: int = ELEMENT_CAP
) -> list[InvolutionClass]:
    """Conjugacy classes of self-inverse automorphisms, the identity and the
    negation map included.  Sorted by (class size, representative)."""
    group = automorphism_group(form, cap=cap)
    involutions = [g for g in group if g.compose(g).is_identity()]
    inverses = [_power_inverse(g) for g in group]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    classes = []
    for s in involutions:
        if s.columns in seen:
            continue
        orbit = set()
        for g, ginv in zip(group, inverses):
            orbit.add(g.compose(s).compose(ginv).columns)
        seen |= orbit
        rep_cols = min(orbit)
        rep = FqfIsometry(form, form, rep_cols, anti=False)
        classes.append(InvolutionClass(rep, len(orbit), frozenset(orbit)))
    classes.sort(key=lambda c: (c.size, c.representative.columns))
    return classes


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


def odd_p_det_class(part: FiniteQuadraticForm, p: int) -> int:
    """A representative of the determinant square class (p odd) of any
    p-adic lattice of rank len(part.orders) inducing `part`."""
    _require_primary(part, p)
    det = 1
    form = part
    while not form.is_trivial():
        k = form.rank()
        dmax = form.exponent()
        pick = None
        for i in range(k - 1, -1, -1):
            if form.orders[i] == dmax and form.qvalues[i].denominator == dmax:
                pick = [0] * k
                pick[i] = 1
                break
        if pick is None:
            # No generator of maximal order has a unit square; adding another
            # maximal-order generator with unit pairing fixes that.
            fixed = None
            for i in range(k - 1, -1, -1):
                if form.orders[i] != dmax:
                    continue
                for j in range(k):
                    if j != i and form.pairing[i][j].denominator == dmax:
                        fixed = (i, j)
                        break
                if fixed:
                    break
            if fixed is None:
                raise ValueError("degenerate p-part: no unit block found")
            i, j = fixed
            pick = [0] * k
            pick[i] = 1
            pick[j] = 1
        g = tuple(pick)
        qg = form.q_of(g)
        if qg.denominator != dmax:
            raise ValueError("degenerate p-part: no unit block found")
        twob = int(qg * dmax)
        det *= twob * dmax
        u = int(_mod1(qg) * dmax) % dmax
        uinv = pow(u, -1, dmax)
        rest = []
        for t in range(k):
            if tuple(1 if s == t else 0 for s in range(k)) == g:
                continue
            e = [1 if s == t else 0 for s in range(k)]
            c = (int(form.b_of(tuple(e), g) * dmax) * uinv) % dmax
            proj = [e[s] - c * g[s] for s in range(k)]
            rest.append(form.reduce(proj))
        form = subgroup_form(form, rest)[0]
    return det


def _unit_times_power(n: int, p: int) -> tuple[int, int]:
    v = _pval(abs(n), p)
    return v, n // p**v


def two_adic_det_classes(part: FiniteQuadraticForm) -> list[int]:
    """Representatives of every determinant square class (p = 2) compatible
    with `part` for 2-adic lattices of rank len(part.orders).

    Order-2 generators of odd square leave the unit of their block ambiguous
    mod 8, so the result can hold several classes.
    """
    _require_primary(part, 2)
    branches = [(1, part)]
    finished: list[int] = []
    while branches:
        det, form = branches.pop()
        if form.is_trivial():
            finished.append(det)
            continue
        k = form.rank()
        dmax = form.exponent()
        pick = None
        for i in range(k - 1, -1, -1):
            if form.orders[i] == dmax and form.qvalues[i].denominator == dmax:
                pick = i
                break
        if pick is not None:
            qg = form.qvalues[pick]
            c = int(qg * dmax)  # odd
            g = tuple(1 if s == pick else 0 for s in range(k))
            u = int(_mod1(qg) * dmax) % dmax
            rest = []
            for t in range(k):
                if t == pick:
                    continue
                e = [1 if s == t else 0 for s in range(k)]
                coeff = (int(form.b_of(tuple(e), g) * dmax) * pow(u, -1, dmax)) % dmax
                proj = [e[s] - coeff * g[s] for s in range(k)]
                rest.append(form.reduce(proj))
            nxt = subgroup_form(form, rest)[0]
            if dmax == 2:
                branches.append((det * 2 * c, nxt))
                branches.append((det * 2 * (c + 4), nxt))
            else:
                branches.append((det * c * dmax, nxt))
            continue
        # Even type at the top order: split off a two-generator block.
        gi = None
        for i in range(k - 1, -1, -1):
            if form.orders[i] == dmax:
                gi = i
                break
        hj = None
        for j in range(k):
            if j != gi and form.pairing[gi][j].denominator == dmax:
                hj = j
                break
        if gi is None or hj is None:
            raise ValueError("degenerate 2-part: no unit block found")
        g = tuple(1 if s == gi else 0 for s in range(k))
        h = tuple(1 if s == hj else 0 for s in range(k))
        block = subgroup_form(form, [g, h])[0]
        a = _pval(dmax, 2)
        hyper = _two_block(a, hyperbolic=True)
        if fqf_isometries(block, hyper):
            factor = -(4**a)
        else:
            skew = _two_block(a, hyperbolic=False)
            if not fqf_isometries(block, skew):
                raise ValueError("unrecognized rank-two 2-adic block")
            factor = 3 * 4**a
        b11 = int(form.pairing[gi][gi] * dmax) % dmax
        b22 = int(form.pairing[hj][hj] * dmax) % dmax
        b12 = int(form.pairing[gi][hj] * dmax) % dmax
        delta = (b11 * b22 - b12 * b12) % dmax
        dinv = pow(delta, -1, dmax)
        rest = []
        for t in range(k):
            if t in (gi, hj):
                continue
            e = [1 if s == t else 0 for s in range(k)]
            r1 = int(form.b_of(tuple(e), g) * dmax) % dmax
            r2 = int(form.b_of(tuple(e), h) * dmax) % dmax
            x = (dinv * (b22 * r1 - b12 * r2)) % dmax
            y = (dinv * (b11 * r2 - b12 * r1)) % dmax
            proj = [e[s] - x * g[s] - y * h[s] for s in range(k)]
            rest.append(form.reduce(proj))
        branches.append((det * factor, subgroup_form(form, rest)[0]))
    out: dict[tuple[int, int], int] = {}
    for det in finished:
        v, u = _unit_times_power(det, 2)
        out.setdefault((v, u % 8), det)
    return sorted(out.values(), key=lambda n: (abs(n), n))


def _two_block(a: int, hyperbolic: bool) -> FiniteQuadraticForm:
    d = 2**a
    q = Fraction(0) if hyperbolic else _mod2(Fraction(2, d))
    pair = [[_mod1(q), Fraction(1, d)], [Fraction(1, d), _mod1(q)]]
    return finite_quadratic_form((d, d), (q, q), pair)
