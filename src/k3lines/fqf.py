"""Finite quadratic forms: finite abelian groups with a Q/2Z-valued quadratic
form and the Q/Z-valued pairing it polarizes.

These arise as dual quotients of even lattices.  The module provides p-parts
read off the divisor chain (`parts`), subgroup and isotropic-quotient forms,
and a Jordan splitting of each p-part into cyclic blocks and, at p = 2, the
rank-two blocks u_a and v_a, each block's complement taken by
`orthogonal_subgroup`.  The local determinant square classes and the
signature residue mod 8 (the Brown invariant, summed block by block by the
oddity formula and used to cross-check signatures) are folds over those
blocks.  Isometries between forms and Aut(D) live in `gluing`, their one
user.

Conventions: a form is stored on an independent generating set with orders in
an ascending divisor chain d1 | d2 | ..., as integers over its exponent n:
n * q on generators reduced to [0, 2n), n * b between them to [0, n), so
equal forms compare equal structurally.  Every computation reads these
integers, an element's through `qn_of` (n * q) and `dual_of` (its n * b row);
rationals enter through `finite_quadratic_form` as numerators and
denominators, and only `qvalues`, which returns them, imports `fractions`.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from math import gcd, lcm

from .errors import ELEMENT_CAP, CapExceeded
from .intmat import integral_kernel, inverse_unimodular, smith_decompose
from .records import Record

TRIAL_DIVISION_LIMIT = 10**6
_MILLER_RABIN_EXACT = 3_317_044_064_679_887_385_961_981


def prime_power_factors(n: int) -> list[tuple[int, int]]:
    """(p, p**a) for every prime p dividing n, with p**a the exact power of
    p in n, by increasing p; empty for n < 2.

    Trial division stops at TRIAL_DIVISION_LIMIT.  A cofactor left above it
    is accepted only when it is a power of a provably prime number (exact
    integer root, then deterministic Miller-Rabin); otherwise the
    factorisation raises CapExceeded."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if p > TRIAL_DIVISION_LIMIT:
            root = _prime_root(m)
            if root is None:
                raise CapExceeded(
                    f"factoring a {n.bit_length()}-bit number: a "
                    f"{m.bit_length()}-bit cofactor has no prime factor up "
                    f"to {TRIAL_DIVISION_LIMIT} and is not a power of a "
                    "provable prime"
                )
            out.append((root, m))
            return out
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


def _prime_root(m: int) -> int | None:
    """The prime p with m = p**k, k >= 1, when p is provably prime, for an m
    with no factor up to TRIAL_DIVISION_LIMIT; else None.  The largest k
    with an exact root gives the least root, the only candidate."""
    for k in reversed(range(1, m.bit_length() // 19 + 1)):  # p > 2**19
        root = _integer_root(m, k)
        if root**k == m:
            return root if _is_prime_above_trial_limit(root) else None
    return None


def _integer_root(m: int, k: int) -> int:
    """The floor of the k-th root of m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


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


class FiniteQuadraticForm(Record):
    """Invariant factors with the quadratic form and its pairing on the
    generators, as integer tables: with n the exponent, `qn` holds n * q on
    the generators mod 2n and `bn` holds n * b between them mod n.  The
    tables are the form's identity (equality, hashing, repr) and all its
    arithmetic, with `qn_of` and `dual_of` as the integer evaluators;
    `qvalues` reads the generators' squares as Fractions for the edges.
    Build instances through `finite_quadratic_form`, which normalizes
    arbitrary independent generators into this shape."""

    _fields = ("orders", "qn", "bn")

    def __init__(self, orders: tuple[int, ...], qn: tuple[int, ...], bn):
        k = len(orders)
        if len(qn) != k or len(bn) != k:
            raise ValueError("inconsistent generator data")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise ValueError("orders must form a divisor chain")
        n = orders[-1] if orders else 1
        for i, d in enumerate(orders):
            if d < 2:
                raise ValueError("orders must exceed 1")
            q = qn[i]
            if not 0 <= q < 2 * n:
                raise ValueError("quadratic values must be reduced mod 2")
            if d % 2 == 1:
                if q * d % (2 * n) != 0:
                    raise ValueError("odd-order generator with invalid square")
            elif q * d * d % (2 * n) != 0:
                raise ValueError("generator square incompatible with its order")
            if q % n != bn[i][i]:
                raise ValueError("pairing diagonal must equal the square mod 1")
            for j in range(k):
                bij = bn[i][j]
                if not 0 <= bij < n:
                    raise ValueError("pairing must be reduced mod 1")
                if bij != bn[j][i]:
                    raise ValueError("pairing must be symmetric")
                if bij * d % n != 0:
                    raise ValueError("pairing denominator must divide the order")
        vars(self).update(orders=orders, qn=qn, bn=bn, _n=n)

    @property
    def qvalues(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple(Fraction(q, self._n) for q in self.qn)

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

    def is_nondegenerate(self) -> bool:
        """Whether the pairing has trivial radical, as the discriminant
        form of every lattice does."""
        radical = orthogonal_subgroup(self, _basis(self.rank()))
        return all(self.order_of(v) == 1 for v in radical)

    def qn_of(self, coords) -> int:
        """n * q(coords), reduced mod 2n."""
        return _q_scaled(self.qn, self.bn, coords) % (2 * self._n)

    def dual_of(self, y) -> tuple[int, ...]:
        """n * b(e_i, y) mod n for every generator e_i, so that n * b(x, y)
        is the dot product of x with it."""
        n = self._n
        return tuple(sum(map(operator.mul, row, y)) % n for row in self.bn)

    def reduce(self, coords) -> tuple[int, ...]:
        return tuple(c % d for c, d in zip(coords, self.orders))

    def order_of(self, coords) -> int:
        n = 1
        for c, d in zip(coords, self.orders):
            n = lcm(n, d // gcd(d, c % d))
        return n

    def elements(self):
        """All coordinate tuples, lexicographically.  Guarded by
        `ELEMENT_CAP`."""
        if self.order() > ELEMENT_CAP:
            raise CapExceeded(
                f"group of order {self.order()} exceeds the cap of {ELEMENT_CAP}"
            )
        return itertools.product(*[range(d) for d in self.orders])

    def two_torsion(self) -> list[tuple[int, ...]]:
        """The elements of order 2; more than `ELEMENT_CAP` raise CapExceeded."""
        count = 2 ** sum(d % 2 == 0 for d in self.orders) - 1
        if count > ELEMENT_CAP:
            raise CapExceeded(
                f"{count} elements of order 2 exceed the cap of {ELEMENT_CAP}"
            )
        choices = [(0, d // 2) if d % 2 == 0 else (0,) for d in self.orders]
        return list(itertools.product(*choices))[1:]  # order 2: all but zero

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    # -- constructions ---------------------------------------------------

    def negated(self) -> "FiniteQuadraticForm":
        return FiniteQuadraticForm(
            self.orders,
            tuple(-q % (2 * self._n) for q in self.qn),
            tuple(tuple(-x % self._n for x in row) for row in self.bn),
        )

    @cached_property
    def parts(self) -> dict[int, "FiniteQuadraticForm"]:
        """The p-part at each prime p of the exponent (the primes of the order),
        by increasing p.  Each e_i of order d and p-power q = p**v > 1 gives
        (d / q) * e_i of order q; these form a chain and present the p-part."""
        basis, out = _basis(self.rank()), {}
        for p, _ in prime_power_factors(self.exponent()):
            powers = [(p ** _pval(d, p), d, e) for d, e in zip(self.orders, basis)]
            chain = [(q, tuple(d // q * x for x in e)) for q, d, e in powers if q > 1]
            out[p] = _form_on(*zip(*chain), self.qn, self.bn, self._n)
        return out

    def p_part(self, p: int) -> "FiniteQuadraticForm":
        """The p-part from `parts`; a p that is not prime raises ValueError."""
        if p not in self.parts:
            _require_prime(p)
        return self.parts.get(p, TRIVIAL_FORM)


TRIVIAL_FORM = FiniteQuadraticForm((), (), ())


def finite_quadratic_form(orders, qvalues, pairing) -> FiniteQuadraticForm:
    """Normalize independent generators (arbitrary orders) into the divisor
    chain presentation.  Generators of order 1 are dropped; the rest are split
    into primary components and recombined so the orders form a chain.
    Values are rationals, read through `.numerator` and `.denominator`."""
    orders = [int(d) for d in orders]
    if any(d < 1 for d in orders):
        raise ValueError("generator orders must be positive")
    k = len(orders)
    # Exact integer arithmetic over a common multiple n of every order and
    # denominator: n * q mod 2n and n * b mod n.
    n = lcm(
        *orders,
        *(x.denominator for x in qvalues),
        *(x.denominator for row in pairing for x in row),
    )
    qs = [q.numerator * (n // q.denominator) % (2 * n) for q in qvalues]
    bs = [[x.numerator * (n // x.denominator) % n for x in row] for row in pairing]
    for i in range(k):
        if qs[i] % n != bs[i][i]:
            raise ValueError("pairing diagonal must equal the square mod 1")
        for j in range(k):
            if bs[i][j] != bs[j][i]:
                raise ValueError("pairing must be symmetric")

    new_gens = _chain(list(zip(orders, _basis(k))))
    return _form_on([d for d, _ in new_gens], [c for _, c in new_gens], qs, bs, n)


def _form_on(orders, gens, qs, bs, n) -> FiniteQuadraticForm:
    """The form on divisor-chain generators `gens` of the given orders, from
    n * q on the coordinates (`qs`) and n * b between them (`bs`).  n * x is
    (n / e) * (e * x) for the exponent e exactly when e * x is an integer,
    as it must be in a form of exponent e."""
    scale = n // (orders[-1] if orders else 1)
    new_q = [_q_scaled(qs, bs, c) % (2 * n) for c in gens]
    new_b = [[_b_scaled(bs, x, y) % n for y in gens] for x in gens]
    if any(x % scale for x in itertools.chain(new_q, *new_b)):
        raise ValueError("a denominator does not divide the group exponent")
    return FiniteQuadraticForm(
        tuple(orders),
        tuple(q // scale for q in new_q),
        tuple(tuple(x // scale for x in row) for row in new_b),
    )


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
    # Z^m modulo the relation lattice presents the group.  The relations
    # include ord(g_j) e_j, so they have full rank m, and their Smith
    # diagonal is a divisor chain of positive orders: the generators of
    # order > 1 present the form as they stand.
    rel_cols = [[rel[i] for rel in relations] for i in range(m)]
    s, u, _ = smith_decompose(rel_cols)
    uinv = inverse_unimodular(u)
    basis = []
    orders = []
    for i in range(m):
        if s[i][i] == 1:
            continue
        combo = [0] * k
        for j in range(m):
            cj = uinv[j][i]
            if cj:
                for t in range(k):
                    combo[t] += cj * gens[j][t]
        orders.append(s[i][i])
        basis.append(form.reduce(combo))
    sub = _form_on(orders, basis, form.qn, form.bn, form._n)
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
    rows = [form.dual_of(g) for g in gens]
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
        if form.qn_of(g):
            raise ValueError("kernel generator with nonzero square")
        dual = form.dual_of(g)
        for h in kernel_gens[i:]:
            if sum(map(operator.mul, h, dual)) % form._n:
                raise ValueError("kernel generators do not pair integrally")
    perp = orthogonal_subgroup(form, kernel_gens)
    if not perp:
        return TRIVIAL_FORM, []
    return _presentation(form, perp, kernel_gens)


def ell(form: FiniteQuadraticForm, p: int) -> int:
    """Rank of the p-part; a p that is not prime raises ValueError."""
    return form.p_part(p).rank()


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
    for p, part in form.parts.items():
        for a, cs in _jordan_blocks(part, p):
            if len(cs) == 2:  # q = 2x, 2z over 2**a; 4a for v_a (x * z odd)
                total += a * (cs[0] * cs[1] % 8)
            elif p == 2:  # q = c / 2**a, c odd
                c = cs[0]
                total += c + a * (c * c - 1) // 2
            elif a % 2:  # q = 2w / p**a; Euler's criterion on w
                nonsquare = pow(cs[0] // 2, (p - 1) // 2, p) != 1
                total += 2 * (p % 4 == 3) + 4 * nonsquare
    return total % 8


# -- local determinant square classes ----------------------------------------


def square_class_equal(a, b, p: int) -> bool:
    """Whether a and b generate the same square class of p-adic units times
    powers of p (both nonzero rationals)."""
    _require_prime(p)
    # a / b times the square (a.denominator * b.numerator) ** 2
    x = a.numerator * a.denominator * b.numerator * b.denominator
    v = _pval(x, p)
    if v % 2 != 0:
        return False
    unit = x // p**v
    if p == 2:
        return unit % 8 == 1
    return pow(unit % p, (p - 1) // 2, p) == 1


def _pval(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _require_prime(p: int) -> None:
    if prime_power_factors(p) != [(p, p)]:
        raise ValueError(f"{p} is not prime")


def _jordan_blocks(part: FiniteQuadraticForm, p: int):
    """Yield (a, cs) for each block of an orthogonal splitting of the
    p-primary form `part` into blocks of order p**a (Nikulin, Math. USSR Izv.
    14, 1980, section 1.8): cs holds p**a * q on the block's generators,
    one value for a cyclic block and two for an even rank-two block, which
    occurs only at p = 2.

    Each block is split off at the top order and the rest is its orthogonal
    complement, from `orthogonal_subgroup`.  Degenerate input raises
    ValueError."""
    form = part
    while not form.is_trivial():
        n, k = form._n, form.rank()
        basis = _basis(k)
        top = [i for i in range(k) if form.orders[i] == n]
        units = [i for i in top if form.qn[i] % p]
        if units:
            block = [basis[units[-1]]]
        else:
            # no top generator has a unit square: pair one with a partner
            pair = next(
                ((i, j) for i in reversed(top) for j in range(k) if form.bn[i][j] % p),
                None,
            )
            if pair is None:
                raise ValueError(f"degenerate {p}-part: no unit block found")
            if p == 2:
                block = [basis[i] for i in pair]
            else:  # q(e_i + e_j) = 2 b(e_i, e_j) is a unit
                block = [tuple(int(s in pair) for s in range(k))]
        yield _pval(n, p), tuple(form.qn_of(g) for g in block)
        # the block's pairing is invertible mod n, so D = block + its perp
        form = subgroup_form(form, orthogonal_subgroup(form, block))[0]


def odd_p_det_class(part: FiniteQuadraticForm, p: int) -> int:
    """A representative of the determinant square class (p odd) of any
    p-adic lattice of rank len(part.orders) inducing `part`."""
    det = 1
    for a, (c,) in _jordan_blocks(part, p):
        det *= c * p**a
    return det


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
