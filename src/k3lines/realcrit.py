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

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .fqf import (
    FiniteQuadraticForm,
    FqfIsometry,
    fqf_isometries,
    involution_classes,
    odd_p_det_class,
    orthogonal_subgroup,
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

VERDICT_YES_2 = "YES_CONTAINS_2"
VERDICT_YES_U2 = "YES_CONTAINS_U2"
VERDICT_NO = "NO"
VERDICT_UNKNOWN = "UNKNOWN"
VERDICT_KINDS = (VERDICT_YES_2, VERDICT_YES_U2, VERDICT_NO, VERDICT_UNKNOWN)

ADMISSIBLE = "ADMISSIBLE"
INADMISSIBLE = "INADMISSIBLE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    kind: str
    reasons: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind {self.kind!r}")


def totally_real_criterion(
    d_n: FiniteQuadraticForm, r: int, det_n: int
) -> Verdict:
    """Decide whether a genus with discriminant form d_n (on the line-lattice
    side), complementary rank r and determinant det_n admits a representative
    containing [2], or failing that U(2).

    The hyperbolic case is evaluated only when the norm-2 case is decidedly
    negative; an undecided norm-2 case propagates as UNKNOWN.
    """
    if r < 1:
        raise InputError("complementary rank must be at least 1")
    absn = abs(det_n)
    if d_n.order() != absn:
        raise ValueError(
            f"discriminant group order {d_n.order()} does not match |det| = {absn}"
        )
    reasons: list[str] = []
    two_case = _norm_two_case(d_n, r, absn, reasons)
    if two_case is True:
        reasons.append("verdict: a norm-2 orthogonal summand exists")
        return Verdict(VERDICT_YES_2, tuple(reasons))
    if two_case is None:
        reasons.append(
            "verdict: norm-2 case undecided, hyperbolic case not evaluated"
        )
        return Verdict(VERDICT_UNKNOWN, tuple(reasons))
    if _hyperbolic_case(d_n, r, absn, reasons):
        reasons.append("verdict: a U(2) orthogonal summand exists")
        return Verdict(VERDICT_YES_U2, tuple(reasons))
    reasons.append("verdict: neither summand type exists in the genus")
    return Verdict(VERDICT_NO, tuple(reasons))


def _norm_two_case(d_n, r, absn, reasons) -> bool | None:
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
    part2 = d_n.p_part(2)
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
        reason = _norm_two_vector_hunt(part2, l2, absn)
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
    for p in [q for q, _ in prime_power_factors(absn) if q != 2]:
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


def _norm_two_vector_hunt(part2, l2, absn) -> str | None:
    twos = [v for v in part2.two_torsion() if part2.order_of(v) == 2]
    half = Fraction(3, 2)  # -1/2 mod 2
    for u in [v for v in twos if part2.q_of(v) == half]:
        if any(part2.b_of(u, v) != part2.q_of(v) % 1 for v in twos):
            return "a non-characteristic order-2 vector of square -1/2 exists"
        perp, _ = subgroup_form(part2, orthogonal_subgroup(part2, [u]))
        if perp.rank() != l2 - 1:
            # u is not an orthogonal direct summand; not admissible as the
            # image of a norm-2 vector.
            continue
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


def _hyperbolic_case(d_n, r, absn, reasons) -> bool:
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
    part2 = d_n.p_part(2)
    twos = [v for v in part2.two_torsion() if part2.order_of(v) == 2]
    pair = None
    for u in twos:
        if part2.q_of(u) != 0:
            continue
        for v in twos:
            if part2.q_of(v) == 0 and part2.b_of(u, v) == Fraction(1, 2):
                pair = (u, v)
                break
        if pair:
            break
    if pair:
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


@dataclass(frozen=True)
class Definite2:
    """Explicit positive definite rank-2 transcendental lattice."""

    lattice: Lattice

    def __post_init__(self):
        if self.lattice.rank != 2 or self.lattice.signature != (2, 0, 0):
            raise InputError(
                "transcendental lattice must be positive definite of rank 2"
            )

    def rank(self) -> int:
        return 2


@dataclass(frozen=True)
class TwoU:
    """Transcendental lattice 2U(scale): two hyperbolic planes rescaled."""

    scale: int = 1

    def __post_init__(self):
        if self.scale < 1:
            raise InputError("scale must be a positive integer")

    def rank(self) -> int:
        return 4


@dataclass(frozen=True)
class GenericDiscr:
    """Transcendental side known only through its discriminant form and rank.
    No involution data can be derived from this; matching reports UNKNOWN."""

    form: FiniteQuadraticForm
    rank_: int

    def __post_init__(self):
        if self.rank_ < 1:
            raise InputError("rank must be positive")
        for p, _ in prime_power_factors(self.form.order()):
            if ell(self.form, p) > self.rank_:
                raise InputError(
                    f"rank {self.rank_} is below the {p}-length of the form"
                )

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


@dataclass(frozen=True)
class TSideClasses:
    """Involution images on the transcendental discriminant form that honest
    representatives realize.

    When conjugation_closed is set, members is a union of full conjugacy
    classes of Aut(form), so one anti-isometry suffices for matching; when
    not, members is the exact image set and matching must try every
    anti-isometry.
    """

    form: FiniteQuadraticForm
    members: frozenset
    conjugation_closed: bool
    class_count: int | None
    note: str


def t_side_involution_classes(spec: TranscendentalSpec) -> TSideClasses | None:
    """Realizable sign-reversing involution images on discr T, or None when
    the transcendental data is too generic to derive them."""
    if isinstance(spec, GenericDiscr):
        return None
    if isinstance(spec, Definite2):
        lat = spec.lattice
        data = discriminant_data(lat)
        members = set()
        for g in orthogonal_group_definite(lat):
            if g.is_involution() and sign_structure_action(lat, g) == -1:
                members.add(data.act(g).columns)
        return TSideClasses(
            data.form,
            frozenset(members),
            conjugation_closed=False,
            class_count=None,
            note="positive definite rank-2 enumeration",
        )
    if isinstance(spec, TwoU):
        lat = build_lattice(f"2U({spec.scale})")
        data = discriminant_data(lat)
        images = []
        for _, g in two_u_involutions():
            scaled = Isometry(lat, g.matrix)
            images.append(data.act(scaled).columns)
        classes = involution_classes(data.form)
        members: set = set()
        count = 0
        for cls in classes:
            if any(img in cls.members for img in images):
                members |= cls.members
                count += 1
        return TSideClasses(
            data.form,
            frozenset(members),
            conjugation_closed=True,
            class_count=count,
            note="hyperbolic-pair construction pushed to the rescaled form",
        )
    raise InputError(f"unsupported transcendental data {spec!r}")


def match_real_structure(
    tau_n: FqfIsometry, tside: TSideClasses | None
) -> tuple[str, str]:
    """Glue test for a candidate real structure: the induced involution on
    the line-side discriminant form must be carried to a realizable
    transcendental-side involution by some anti-isometry.

    Returns (admissibility, reason)."""
    if tside is None:
        return (UNKNOWN, "no usable transcendental representative")
    antis = fqf_isometries(tau_n.source, tside.form, anti=True)
    if not antis:
        return (
            INADMISSIBLE,
            "no anti-isometry between the discriminant forms (genus mismatch)",
        )
    chosen = antis[:1] if tside.conjugation_closed else antis
    for phi in chosen:
        conj = phi.compose(tau_n).compose(phi.inverse())
        if conj.columns in tside.members:
            return (
                ADMISSIBLE,
                "a compatible transcendental involution exists",
            )
    if tside.conjugation_closed:
        return (
            INADMISSIBLE,
            "the induced involution lands outside every realizable "
            "conjugacy class",
        )
    return (
        INADMISSIBLE,
        "no anti-isometry carries the induced involution to a realizable "
        "image",
    )
