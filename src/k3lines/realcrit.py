"""Arithmetic decision rules for totally real line configurations.

Given the discriminant form of the line lattice N of a polarized K3 surface,
the complementary rank r = 22 - rank N, and det N, the question is whether
some lattice T in the genus determined by that data contains a vector of
square 2 spanning an orthogonal summand ("norm-2 case") or, failing that, a
hyperbolic summand U(2) ("hyperbolic case").  Either containment makes the
configuration realizable with all lines real.

The rules work prime by prime on the discriminant form.  They are exact but
not complete: one 2-adic profile (2-length exactly r-1) falls outside the
stated dichotomy and is reported as UNKNOWN rather than guessed.

The module also provides the structured transcendental-side data used when an
explicit representative T is known: the five standard involutions of the rank
4 even unimodular lattice of signature (2,2), their pushforwards to rescaled
discriminants, and orthogonal-group enumeration for positive definite rank 2
lattices.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import InputError
from .fqf import (
    FiniteQuadraticForm,
    FqfIsometry,
    automorphism_group,
    element_permutation,
    find_isometry,
    odd_p_det_class,
    orthogonal_subgroup,
    permutation_columns,
    square_class_equal,
    subgroup_form,
    two_adic_det_classes,
    ell,
    prime_power_factors,
)
from .lattices import (
    Isometry,
    Lattice,
    build_lattice,
    discriminant_data,
    orthogonal_group_definite,
    sign_structure_action,
)
from .records import Record

VERDICT_YES_2 = "YES_CONTAINS_2"
VERDICT_YES_U2 = "YES_CONTAINS_U2"
VERDICT_NO = "NO"
VERDICT_UNKNOWN = "UNKNOWN"
VERDICT_KINDS = (VERDICT_YES_2, VERDICT_YES_U2, VERDICT_NO, VERDICT_UNKNOWN)

ADMISSIBLE = "ADMISSIBLE"
INADMISSIBLE = "INADMISSIBLE"
UNKNOWN = "UNKNOWN"


class Verdict(Record):
    _fields = ("kind", "reasons")

    def __init__(self, kind: str, reasons: tuple[str, ...]):
        if kind not in VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind {kind!r}")
        vars(self).update(kind=kind, reasons=reasons)


def totally_real_criterion(
    d_n: FiniteQuadraticForm, r: int, det_n: int
) -> Verdict:
    """Decide whether a genus with discriminant form d_n (on the line-lattice
    side), complementary rank r and determinant det_n admits a representative
    containing [2], or failing that U(2).

    The hyperbolic case is evaluated only when the norm-2 case is decidedly
    negative; an undecided norm-2 case propagates as UNKNOWN.  Both cases
    read one 2-part and test its order-2 elements on integer tables.
    """
    if r < 1:
        raise InputError("complementary rank must be at least 1")
    absn = abs(det_n)
    if d_n.order() != absn:
        raise ValueError(
            f"discriminant group order {d_n.order()} does not match |det| = {absn}"
        )
    reasons: list[str] = []
    part2 = d_n.p_part(2)
    two_case = _norm_two_case(d_n, part2, r, absn, reasons)
    if two_case is True:
        reasons.append("verdict: a norm-2 orthogonal summand exists")
        return Verdict(VERDICT_YES_2, tuple(reasons))
    if two_case is None:
        reasons.append(
            "verdict: norm-2 case undecided, hyperbolic case not evaluated"
        )
        return Verdict(VERDICT_UNKNOWN, tuple(reasons))
    if _hyperbolic_case(d_n, part2, r, absn, reasons):
        reasons.append("verdict: a U(2) orthogonal summand exists")
        return Verdict(VERDICT_YES_U2, tuple(reasons))
    reasons.append("verdict: neither summand type exists in the genus")
    return Verdict(VERDICT_NO, tuple(reasons))


def _norm_two_case(d_n, part2, r, absn, reasons) -> bool | None:
    failed = not _odd_prime_rules(
        d_n, r, absn, gap=1, factor=2, case="norm-2", reasons=reasons
    )
    undecided = False
    if r == 1:
        reasons.append(
            "norm-2 case, primes away from det N: length 0 = r-1 would force "
            "-2|det N| to be a square at almost every prime; a negative "
            "number never is: fail"
        )
        failed = True
    else:
        reasons.append("norm-2 case, primes away from det N: r >= 2: pass")
    l2 = part2.rank()
    if l2 <= r - 2:
        reasons.append(f"norm-2 case, p=2: length {l2} <= r-2: pass")
    elif l2 == r - 1:
        reasons.append(
            f"norm-2 case, p=2: length {l2} = r-1 falls outside the stated "
            "dichotomy: undecided"
        )
        undecided = True
    elif l2 == r:
        reason = _norm_two_vector_hunt(part2, absn)
        if reason is None:
            reasons.append(
                f"norm-2 case, p=2: length {l2} = r but no order-2 vector of "
                "square -1/2 works: fail"
            )
            failed = True
        else:
            reasons.append(f"norm-2 case, p=2: length {l2} = r and {reason}: pass")
    else:
        reasons.append(f"norm-2 case, p=2: length {l2} exceeds r: fail")
        failed = True
    if failed:
        return False
    if undecided:
        return None
    return True


def _odd_prime_rules(d_n, r, absn, gap, factor, case, reasons) -> bool:
    """The rule of either case at every odd prime p dividing det N: the
    p-length is below r-gap, or equal to it with a forced local determinant
    in the square class of -factor*|det N|.  Appends one reason per prime
    and returns whether all of them pass."""
    target = "-2|det N|" if factor == 2 else "-|det N|"
    ok = True
    for p in [q for q, _ in prime_power_factors(d_n.exponent()) if q != 2]:
        part = d_n.p_part(p)
        length = part.rank()
        head = f"{case} case, p={p}: length {length}"
        if length < r - gap:
            reasons.append(f"{head} <= r-{gap + 1}: pass")
        elif length == r - gap:
            detcls = odd_p_det_class(part, p)
            if square_class_equal(detcls, -factor * absn, p):
                reasons.append(
                    f"{head} = r-{gap} and the forced local determinant "
                    f"matches {target}: pass"
                )
            else:
                reasons.append(
                    f"{head} = r-{gap} but the forced local determinant "
                    f"differs from {target}: fail"
                )
                ok = False
        else:
            reasons.append(f"{head} exceeds r-{gap}: fail")
            ok = False
    return ok


def _order_two(part2) -> list[tuple]:
    """(u, n·q(u), n·b(-, u) on the generators) for each order-2 element u
    of the 2-part, n its exponent: integers that both 2-adic tests read."""
    return [(u, part2.qn_of(u), part2.dual_of(u)) for u in part2.two_torsion()]


def _norm_two_vector_hunt(part2, absn) -> str | None:
    n, table = part2.exponent(), _order_two(part2)
    for u, _, dual in [t for t in table if t[1] == 3 * n // 2]:  # q(u) = -1/2
        if any(sum(map(operator.mul, v, dual)) % n != qv % n for v, qv, _ in table):
            return "a non-characteristic order-2 vector of square -1/2 exists"
        # b(u, u) = 1/2 is a unit, so x - 2b(x, u)u splits D = <u> + u^perp
        perp, _ = subgroup_form(part2, orthogonal_subgroup(part2, [u]))
        cands = two_adic_det_classes(perp)
        if any(
            square_class_equal(c, sign * 2 * absn, 2)
            for c in cands
            for sign in (1, -1)
        ):
            return (
                "a characteristic order-2 vector of square -1/2 has "
                "orthogonal complement of determinant +-2|det N|"
            )
    return None


def _has_hyperbolic_pair(part2) -> bool:
    """Whether order-2 elements u, v with q(u) = q(v) = 0 have b(u, v) = 1/2."""
    n = part2.exponent()
    isotropic = [(u, dual) for u, qn_u, dual in _order_two(part2) if not qn_u]
    pairs = ((u, dual) for u, _ in isotropic for _, dual in isotropic)
    return any(sum(map(operator.mul, u, dual)) % n == n // 2 for u, dual in pairs)


def _hyperbolic_case(d_n, part2, r, absn, reasons) -> bool:
    ok = _odd_prime_rules(
        d_n, r, absn, gap=2, factor=1, case="hyperbolic", reasons=reasons
    )
    if r <= 2:
        reasons.append(
            "hyperbolic case, primes away from det N: r <= 2 leaves no room "
            "(-|det N| would have to be a square at almost every prime): fail"
        )
        ok = False
    else:
        reasons.append(
            "hyperbolic case, primes away from det N: r >= 3: pass"
        )
    if part2.rank() > r:  # a rank-r lattice has 2-length at most r
        reasons.append(f"hyperbolic case, p=2: length {part2.rank()} exceeds r: fail")
        return False
    if _has_hyperbolic_pair(part2):
        reasons.append(
            "hyperbolic case, p=2: an order-2 pair with zero squares and "
            "half-integer pairing exists: pass"
        )
    else:
        reasons.append(
            "hyperbolic case, p=2: no order-2 pair with zero squares and "
            "half-integer pairing: fail"
        )
        ok = False
    return ok


# -- transcendental-side representations -------------------------------------


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
        if rank_ < 1:
            raise InputError("rank must be positive")
        for p, _ in prime_power_factors(form.exponent()):
            if ell(form, p) > rank_:
                raise InputError(
                    f"rank {rank_} is below the {p}-length of the form"
                )
        vars(self).update(form=form, rank_=rank_)

    def rank(self) -> int:
        return self.rank_


TranscendentalSpec = Definite2 | TwoU | GenericDiscr


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
    the transcendental data is too generic to derive them."""
    if isinstance(spec, GenericDiscr):
        return None
    if isinstance(spec, Definite2):
        lat = spec.lattice
        data = discriminant_data(lat.gram)
        images = frozenset(
            data.act(g).columns
            for g in orthogonal_group_definite(lat)
            if g.is_involution() and sign_structure_action(lat, g) == -1
        )
        return TSideClasses(
            data.form,
            images,
            "no anti-isometry carries the induced involution to a "
            "realizable image",
        )
    if isinstance(spec, TwoU):
        lat = build_lattice(f"2U({spec.scale})")
        data = discriminant_data(lat.gram)
        images = frozenset(
            data.act(Isometry(lat, g.matrix)).columns
            for _, g in two_u_involutions()
        )
        return TSideClasses(
            data.form,
            images,
            "the induced involution lands outside every realizable "
            "conjugacy class",
        )
    raise InputError(f"unsupported transcendental data {spec!r}")


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
