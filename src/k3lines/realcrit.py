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

This is the existence criterion alone.  Whether one given real structure
glues to an explicit representative T is decided in `gluing`.
"""

from __future__ import annotations

import operator

from .errors import InputError
from .fqf import (
    FiniteQuadraticForm,
    odd_p_det_class,
    orthogonal_subgroup,
    prime_power_factors,
    square_class_equal,
    subgroup_form,
    two_adic_det_classes,
)
from .records import Record

VERDICT_YES_2 = "YES_CONTAINS_2"
VERDICT_YES_U2 = "YES_CONTAINS_U2"
VERDICT_NO = "NO"
VERDICT_UNKNOWN = "UNKNOWN"
VERDICT_KINDS = (VERDICT_YES_2, VERDICT_YES_U2, VERDICT_NO, VERDICT_UNKNOWN)


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
