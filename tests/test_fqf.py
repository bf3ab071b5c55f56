"""Finite quadratic form machinery: construction, the Brown invariant against
Gauss sums, isometries, subquotients, local determinant classes."""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3lines import fqf
from k3lines.configio import load_configuration
from k3lines.errors import CapExceeded
from k3lines.fqf import (
    TRIAL_DIVISION_LIMIT,
    TRIVIAL_FORM,
    brown_invariant,
    ell,
    finite_quadratic_form,
    isotropic_quotient,
    odd_p_det_class,
    orthogonal_subgroup,
    prime_power_factors,
    solve_mod,
    square_class_equal,
    subgroup_form,
    two_adic_det_classes,
)
from k3lines.gluing import (
    automorphism_group,
    element_permutation,
    minus_identity_isometry,
    permutation_columns,
)
from k3lines.lattices import (
    Lattice,
    build_lattice,
    discriminant_data,
)

from helpers import (
    b_of,
    coordinates,
    direct_sum,
    discriminant_form,
    fqf_isometries,
    group_contains,
    group_elements,
    involution_classes,
    is_identity,
    pairing,
    q_of,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def cyclic(d, q):
    q = F(q) % 2
    return finite_quadratic_form((d,), (q,), [[q % 1]])


def hyperbolic_two(a=1):
    d = 2**a
    return finite_quadratic_form(
        (d, d), (0, 0), [[F(0), F(1, d)], [F(1, d), F(0)]]
    )


def test_factory_normalizes_into_divisor_chain():
    # Independent generators of coprime orders merge into one cyclic factor.
    form = finite_quadratic_form(
        (2, 3), (F(1, 2), F(2, 3)), [[F(1, 2), 0], [0, F(2, 3)]]
    )
    assert form.orders == (6,)
    assert form.qvalues == (F(1, 2) + F(2, 3),)

    # Mixed orders produce the ascending chain.
    form = finite_quadratic_form(
        (4, 6), (F(1, 4), F(1, 6)), [[F(1, 4), 0], [0, F(1, 6)]]
    )
    assert form.orders == (2, 12)
    assert form.order() == 24


def test_factory_drops_trivial_generators():
    form = finite_quadratic_form((1, 2), (0, F(1, 2)), [[0, 0], [0, F(1, 2)]])
    assert form.orders == (2,)


def test_factory_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        # order 2 with quarter-integer square
        cyclic(2, F(1, 4))
    with pytest.raises(ValueError):
        # odd order with half-integer square
        cyclic(3, F(1, 3))
    with pytest.raises(ValueError):
        # asymmetric pairing
        finite_quadratic_form(
            (2, 2), (0, 0), [[0, F(1, 2)], [0, 0]]
        )
    with pytest.raises(ValueError):
        # diagonal not matching the square
        finite_quadratic_form((2,), (F(1, 2),), [[F(0)]])


def test_factory_rejects_nonpositive_orders():
    # order 0 would be an infinite cyclic group, not a trivial one
    for d in (0, -2):
        with pytest.raises(ValueError, match="orders must be positive"):
            finite_quadratic_form((d,), (F(1, 2),), [[F(1, 2)]])


def fraction_normal_form(orders, qvalues, pairing):
    """(orders, qvalues, pairing) of the normalized form, worked entirely in
    Fractions: the values are reduced, carried to the `fqf._chain`
    generators and checked as a divisor-chain form on Fraction values.
    Raises ValueError where a check fails."""
    k = len(orders)
    q = [F(x) % 2 for x in qvalues]
    b = [[F(x) % 1 for x in row] for row in pairing]
    for i in range(k):
        if q[i] % 1 != b[i][i] or any(b[i][j] != b[j][i] for j in range(k)):
            raise ValueError("inconsistent pairing")
    gens = fqf._chain(
        [(d, [int(i == j) for i in range(k)]) for j, d in enumerate(orders)]
    )
    out_orders = tuple(d for d, _ in gens)
    out_q = tuple(
        sum(c[i] * c[j] * (q[i] if i == j else b[i][j])
            for i in range(k) for j in range(k)) % 2
        for _, c in gens
    )
    out_b = tuple(
        tuple(sum(x[i] * y[j] * b[i][j] for i in range(k) for j in range(k)) % 1
              for _, y in gens)
        for _, x in gens
    )
    # the chain, the reductions and the symmetry hold by construction
    for i, d in enumerate(out_orders):
        qi = out_q[i]
        if (qi * d if d % 2 else qi * d * d) % 2 != 0:
            raise ValueError("generator square incompatible with its order")
        if qi % 1 != out_b[i][i]:
            raise ValueError("pairing diagonal must equal the square mod 1")
        if any(x * d % 1 != 0 for x in out_b[i]):
            raise ValueError("pairing denominator must divide the order")
    return out_orders, out_q, out_b


@st.composite
def generator_data(draw):
    """Orders 1-12 with rational squares and pairings, mostly those of a
    form on independent generators, sometimes with one entry replaced by an
    arbitrary fraction or one order redrawn; values are shifted off their
    reduced range."""
    k = draw(st.integers(0, 3))
    orders = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    q, b = [], [[F(0)] * k for _ in range(k)]
    for i, d in enumerate(orders):
        m = draw(st.integers(0, 2 * d - 1))
        q.append(F(m - m % 2 if d % 2 else m, d) + 2 * draw(st.integers(-1, 1)))
        b[i][i] = q[i] % 1 + draw(st.integers(-1, 1))
        for j in range(i):
            g = math.gcd(d, orders[j])
            b[i][j] = b[j][i] = F(draw(st.integers(0, g - 1)), g)
    if k and draw(st.integers(0, 3)) == 0:
        bad = F(draw(st.integers(-30, 30)), draw(st.integers(1, 24)))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        where = draw(st.sampled_from(("order", "q", "b", "both")))
        if where == "order":
            orders[i] = draw(st.integers(1, 12))
        elif where == "q":
            q[i] = bad
        else:
            b[i][j] = bad
            if where == "both":
                b[j][i] = bad
    return orders, q, b


@settings(derandomize=True, max_examples=400, deadline=None)
@given(generator_data())
def test_property_integer_constructor_matches_fraction_oracle(data):
    try:
        expected = fraction_normal_form(*data)
    except ValueError:
        expected = None
    try:
        form = finite_quadratic_form(*data)
    except ValueError:
        assert expected is None
    else:
        assert (form.orders, form.qvalues, pairing(form)) == expected
        assert all(type(x) is int for x in (*form.qn, *sum(form.bn, ())))


def test_quadratic_form_polarization():
    rng = random.Random(7)
    form = discriminant_form(build_lattice("[8,4,8]"))
    for _ in range(40):
        x = tuple(rng.randrange(d) for d in form.orders)
        y = tuple(rng.randrange(d) for d in form.orders)
        s = tuple((a + b) % d for a, b, d in zip(x, y, form.orders))
        lhs = q_of(form, s)
        rhs = (q_of(form, x) + q_of(form, y) + 2 * b_of(form, x, y)) % 2
        assert lhs == rhs


def test_element_enumeration_cap():
    form = cyclic(4, F(1, 4))
    for _ in range(4):
        form = direct_sum(form, form)
    assert form.order() == 4**16
    with pytest.raises(CapExceeded):
        list(form.elements())


def test_p_part_reassembly():
    for spec in ("[8,4,8]", "U(2)+A2", "[-6]+U(3)", "[2,1,4]"):
        form = discriminant_form(build_lattice(spec))
        total = TRIVIAL_FORM
        n = form.order()
        p = 2
        while n > 1:
            while n % p and p * p <= n:
                p += 1
            if n % p:
                p = n
            total = direct_sum(total, form.p_part(p))
            while n % p == 0:
                n //= p
        assert total.order() == form.order()
        assert fqf_isometries(form, total), spec


def test_ell_counts_primary_generators():
    form = discriminant_form(build_lattice("[8,4,8]"))
    assert form.orders == (4, 12)
    assert ell(form, 2) == 2
    assert ell(form, 3) == 1
    assert ell(form, 5) == 0


def test_brown_invariant_frozen_values():
    assert brown_invariant(TRIVIAL_FORM) == 0
    assert brown_invariant(cyclic(2, F(1, 2))) == 1  # discr [2]
    assert brown_invariant(cyclic(2, F(3, 2))) == 7  # discr [-2]
    assert brown_invariant(cyclic(3, F(4, 3))) == 6  # discr A2 (negative)
    assert brown_invariant(cyclic(3, F(2, 3))) == 2  # discr A2(-1)
    assert brown_invariant(hyperbolic_two()) == 0  # discr U(2)
    assert brown_invariant(cyclic(4, F(1, 4))) == 1  # discr [4]
    assert brown_invariant(cyclic(4, F(7, 4))) == 7  # discr [-4]


def test_brown_invariant_matches_signature_smoke():
    for spec in ("A2", "E7", "E8(-1)", "U(2)", "[8,4,8]", "U+A2", "2U(3)"):
        lat = build_lattice(spec)
        plus, minus, _ = lat.signature
        assert brown_invariant(discriminant_form(lat)) == (plus - minus) % 8, spec


def test_brown_invariant_rejects_degenerate():
    # q = 0 on Z/2 cannot come from a nondegenerate rank-profile: its Gauss
    # sum is 2, matching no eighth root of unity times sqrt(2).
    degenerate = finite_quadratic_form((2,), (F(0),), [[F(0)]])
    with pytest.raises(ValueError):
        brown_invariant(degenerate)


def test_solve_mod_roundtrip():
    rng = random.Random(11)
    orders = [2, 4, 12]
    for _ in range(60):
        cols = [
            tuple(rng.randrange(d) for d in orders)
            for _ in range(rng.randrange(1, 4))
        ]
        coeffs = [rng.randrange(-6, 7) for _ in cols]
        target = [
            sum(c * col[i] for c, col in zip(coeffs, cols)) % orders[i]
            for i in range(len(orders))
        ]
        found = solve_mod(cols, target, orders)
        assert found is not None
        rebuilt = [
            sum(c * col[i] for c, col in zip(found, cols)) % orders[i]
            for i in range(len(orders))
        ]
        assert rebuilt == target


def test_solve_mod_detects_unsolvable():
    # 2x = 1 has no solution mod 4.
    assert solve_mod([(2,)], (1,), [4]) is None


def test_subgroup_form_frozen():
    eighth = discriminant_form(build_lattice("[8]"))
    assert eighth.orders == (8,)
    assert eighth.qvalues == (F(1, 8),)
    sub, basis = subgroup_form(eighth, [(2,)])
    assert sub.orders == (4,)
    assert sub.qvalues == (F(1, 2),)
    # The representative must generate the same subgroup of Z/8.
    assert {(c * basis[0][0]) % 8 for c in range(4)} == {0, 2, 4, 6}
    sub, _ = subgroup_form(eighth, [(4,)])
    assert sub.orders == (2,)
    assert sub.qvalues == (F(0),)
    sub, _ = subgroup_form(eighth, [(0,)])
    assert sub.is_trivial()


def test_subgroup_form_handles_redundant_generators():
    form = discriminant_form(build_lattice("U(2)"))
    sub, basis = subgroup_form(form, [(1, 0), (1, 0), (0, 1), (1, 1)])
    assert sub.order() == 4
    assert fqf_isometries(sub, form)


def test_orthogonal_subgroup():
    eighth = discriminant_form(build_lattice("[8]"))
    gens = orthogonal_subgroup(eighth, [(4,)])
    sub, _ = subgroup_form(eighth, gens)
    assert sub.orders == (4,)  # multiples of 2 in Z/8


def test_isotropic_quotient_frozen():
    eighth = discriminant_form(build_lattice("[8]"))
    quot, reps = isotropic_quotient(eighth, [(4,)])
    assert quot.orders == (2,)
    assert quot.qvalues == (F(1, 2),)
    assert reps == [(2,)]
    assert quot.order() * 4 * 4 == eighth.order() * 4  # |D| / |K|^2 times |K|


def test_isotropic_quotient_rejects_non_isotropic():
    eighth = discriminant_form(build_lattice("[8]"))
    with pytest.raises(ValueError):
        isotropic_quotient(eighth, [(2,)])  # q = 1/2, not isotropic


def test_isotropic_quotient_matches_overlattice():
    # Index-2 overlattice of U(2)+U(2) glued along (u1+u2)/2.
    big = build_lattice("2U(2)")
    data = discriminant_data(big.gram)
    kappa = coordinates(data, (F(1, 2), F(0), F(1, 2), F(0)))
    quot, _ = isotropic_quotient(data.form, [kappa])
    # Explicit Gram of the overlattice in basis (kappa, v1, u2, v2).
    from k3lines.lattices import Lattice

    over = Lattice.from_rows(
        [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 2], [1, 0, 2, 0]]
    )
    assert abs(over.determinant) * 4 == abs(big.determinant)
    target = discriminant_form(over)
    assert quot.order() == target.order()
    assert fqf_isometries(quot, target)


def test_fqf_isometries_frozen_examples():
    u2 = discriminant_form(build_lattice("U(2)"))
    split = discriminant_form(build_lattice("[2]+[-2]"))
    assert fqf_isometries(u2, split) == []
    auts = fqf_isometries(u2, u2)
    assert len(auts) == 2  # identity and the generator swap
    a2 = discriminant_form(build_lattice("A2"))
    a2neg = discriminant_form(build_lattice("A2(-1)"))
    assert len(fqf_isometries(a2, a2neg, anti=True)) == 2
    assert fqf_isometries(a2, a2neg, anti=False) == []
    assert len(fqf_isometries(a2, a2, anti=False)) == 2


def test_fqf_isometries_are_bijective_form_preserving():
    form = discriminant_form(build_lattice("[8,4,8]"))
    rng = random.Random(3)
    for iso in fqf_isometries(form, form):
        seen = set()
        for _ in range(30):
            x = tuple(rng.randrange(d) for d in form.orders)
            y = tuple(rng.randrange(d) for d in form.orders)
            assert q_of(form, iso.apply(x)) == q_of(form, x)
            assert b_of(form, iso.apply(x), iso.apply(y)) == b_of(form, x, y)
        for el in form.elements():
            seen.add(iso.apply(el))
        assert len(seen) == form.order()


def test_automorphisms_form_a_group():
    form = discriminant_form(build_lattice("U(2)+[2]"))
    group = fqf_isometries(form, form)
    columns = {g.columns for g in group}
    ident = minus_identity_isometry(form).compose(minus_identity_isometry(form))
    assert ident.columns in columns
    for g in group:
        assert g.inverse().columns in columns
        for h in group[:6]:
            assert g.compose(h).columns in columns


def test_involution_classes_frozen():
    two = discriminant_form(build_lattice("[2]"))
    assert len(involution_classes(two)) == 1
    u2 = discriminant_form(build_lattice("U(2)"))
    classes = involution_classes(u2)
    # Aut is the order-2 swap group, abelian, so two singleton classes.
    assert [c.size for c in classes] == [1, 1]


def test_involution_classes_partition():
    form = discriminant_form(build_lattice("U(2)+[2]"))
    group = fqf_isometries(form, form)
    brute = [g for g in group if is_identity(g.compose(g))]
    classes = involution_classes(form)
    assert sum(c.size for c in classes) == len(brute)
    covered = set()
    for c in classes:
        assert c.representative.columns in c.members
        assert not (covered & c.members)
        covered |= c.members
    assert covered == {g.columns for g in brute}


def test_square_class_frozen():
    assert square_class_equal(2, 3, 5) is True
    assert square_class_equal(1, 7, 2) is False
    for p in (2, 3, 5, 7):
        assert square_class_equal(18, 2, p) is True
    assert square_class_equal(2, 2, 2) is True
    assert square_class_equal(-1, 1, 2) is False
    assert square_class_equal(F(1, 3), 3, 3) is True  # ratio 1/9
    with pytest.raises(ValueError):
        square_class_equal(1, 1, 6)


def fraction_square_class_equal(a, b, p) -> bool:
    """The square-class test as it was written, on the reduced Fraction
    a / b."""
    ratio = F(a) / F(b)
    vnum, vden = fqf._pval(ratio.numerator, p), fqf._pval(ratio.denominator, p)
    if (vnum - vden) % 2 != 0:
        return False
    num, den = ratio.numerator // p**vnum, ratio.denominator // p**vden
    if p == 2:
        return (num * den) % 8 == 1
    legendre = pow(num % p, (p - 1) // 2, p) * pow(den % p, (p - 1) // 2, p)
    return legendre % p == 1


nonzero_rationals = st.builds(
    F, st.integers(-200, 200).filter(bool), st.integers(1, 200)
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(nonzero_rationals, nonzero_rationals, st.sampled_from((2, 3, 5, 7)))
def test_property_square_class_matches_the_fraction_ratio(a, b, p):
    assert square_class_equal(a, b, p) == fraction_square_class_equal(a, b, p)


def test_odd_p_det_class_frozen():
    a2 = discriminant_form(build_lattice("A2"))
    value = odd_p_det_class(a2, 3)
    assert square_class_equal(value, 3, 3)
    nine = discriminant_form(build_lattice("[18]")).p_part(3)
    assert nine.orders == (9,)
    assert square_class_equal(odd_p_det_class(nine, 3), 2 * 9, 3)


def test_odd_p_det_class_property():
    # Lattices whose rank equals the 3-length of their discriminant: the
    # 3-adic determinant class is forced and must match exactly.
    rng = random.Random(5)
    blocks = ["[6]", "[-6]", "[12]", "[18]", "[-18]", "[24]", "A2(3)"]
    for _ in range(40):
        spec = "+".join(rng.choice(blocks) for _ in range(rng.randrange(1, 4)))
        lat = build_lattice(spec)
        form = discriminant_form(lat)
        part = form.p_part(3)
        assert len(part.orders) == lat.rank, spec
        value = odd_p_det_class(part, 3)
        assert square_class_equal(value, lat.determinant, 3), spec


def test_two_adic_det_classes_frozen():
    two = discriminant_form(build_lattice("[2]"))
    classes = two_adic_det_classes(two)
    assert len(classes) == 2
    assert any(square_class_equal(c, 2, 2) for c in classes)
    assert any(square_class_equal(c, 10, 2) for c in classes)
    u2 = discriminant_form(build_lattice("U(2)"))
    classes = two_adic_det_classes(u2)
    assert len(classes) == 1
    assert square_class_equal(classes[0], -4, 2)
    mixed = discriminant_form(build_lattice("[2]+[-2]"))
    classes = two_adic_det_classes(mixed)
    assert len(classes) == 2
    assert any(square_class_equal(c, -4, 2) for c in classes)
    assert any(square_class_equal(c, 12, 2) for c in classes)
    skew = discriminant_form(build_lattice("A2(-2)")).p_part(2)
    classes = two_adic_det_classes(skew)
    assert len(classes) == 1
    assert square_class_equal(classes[0], 12, 2)


def test_two_adic_det_classes_property():
    # Lattices whose rank equals the 2-length of their discriminant: the true
    # determinant must be among the candidate classes.
    rng = random.Random(13)
    blocks = ["[2]", "[-2]", "[4]", "[-4]", "[8]", "U(2)", "U(4)", "A2(-2)", "[8,4,8]"]
    for _ in range(40):
        spec = "+".join(rng.choice(blocks) for _ in range(rng.randrange(1, 4)))
        lat = build_lattice(spec)
        part = discriminant_form(lat).p_part(2)
        assert len(part.orders) == lat.rank, spec
        classes = two_adic_det_classes(part)
        assert any(
            square_class_equal(c, lat.determinant, 2) for c in classes
        ), spec


def test_brown_invariant_of_twenty_halves_is_fast():
    # 2**20 elements: the budget fails any method that sums over the group
    big = cyclic(2, F(1, 2))
    for _ in range(19):
        big = direct_sum(big, cyclic(2, F(1, 2)))
    start = time.process_time()
    assert brown_invariant(big) == 4
    assert time.process_time() - start < 2.0


@pytest.mark.parametrize("a", range(1, 11))
def test_milgram_identity_on_two_adic_rank_two_blocks(a):
    # U(2**a) induces u_a, A2(-2**a) induces v_a at 2 (and a 3-part)
    for spec in (f"U({2**a})", f"A2({-(2**a)})"):
        lat = build_lattice(spec)
        plus, minus, _ = lat.signature
        assert brown_invariant(discriminant_form(lat)) == (plus - minus) % 8, spec


def test_two_adic_det_classes_of_large_rank_two_blocks():
    for spec in ("U(128)", "A2(-128)"):
        lat = build_lattice(spec)
        part = discriminant_form(lat).p_part(2)
        assert part.orders == (128, 128)
        classes = two_adic_det_classes(part)
        assert len(classes) == 1, spec
        assert square_class_equal(classes[0], lat.determinant, 2), spec


def test_prime_power_factors_accepts_one_large_prime_cofactor():
    # above the limit but below its square: trial division settles it
    p = 1_000_000_007
    assert TRIAL_DIVISION_LIMIT < p < TRIAL_DIVISION_LIMIT**2
    assert prime_power_factors(2 * p) == [(2, 2), (p, p)]
    assert prime_power_factors(12 * p) == [(2, 4), (3, 3), (p, p)]
    # above the square of the limit: Miller-Rabin proves it prime
    mersenne = 2**61 - 1
    assert mersenne > TRIAL_DIVISION_LIMIT**2
    assert prime_power_factors(5 * mersenne) == [(5, 5), (mersenne, mersenne)]
    assert prime_power_factors(1) == []
    assert prime_power_factors(2**20 * 3**5) == [(2, 2**20), (3, 3**5)]


def test_prime_power_factors_accepts_a_power_of_one_large_prime():
    # the cofactor is an exact power of a provable prime
    p = 1_000_000_007
    assert prime_power_factors(p**2) == [(p, p**2)]
    assert prime_power_factors(p**3) == [(p, p**3)]
    assert prime_power_factors(6 * p**2) == [(2, 2), (3, 3), (p, p**2)]
    assert prime_power_factors(1_000_003**2) == [(1_000_003, 1_000_003**2)]
    mersenne = 2**61 - 1
    assert prime_power_factors(mersenne**2) == [(mersenne, mersenne**2)]


def test_prime_power_factors_caps_two_large_prime_factors():
    with pytest.raises(CapExceeded, match="factoring a 61-bit number"):
        prime_power_factors(2 * 1_000_000_007 * 998_244_353)
    # a product of two primes just above the limit is no prime power
    with pytest.raises(CapExceeded, match="factoring"):
        prime_power_factors(1_000_003 * 1_000_033)
    # nor is the square of such a product
    with pytest.raises(CapExceeded, match="not a power of a provable prime"):
        prime_power_factors((1_000_000_007 * 998_244_353) ** 2)
    # a prime beyond the proven range of the Miller-Rabin bases is refused
    with pytest.raises(CapExceeded, match="factoring a 91-bit number"):
        prime_power_factors(3 * (2**89 - 1))


# -- the integer path against Fraction oracles -------------------------------


@st.composite
def even_lattices(draw, max_rank=3):
    """Nondegenerate even lattices from small random Gram matrices."""
    r = draw(st.integers(1, max_rank))
    diag = [2 * draw(st.integers(-3, 3)) for _ in range(r)]
    off = {
        (i, j): draw(st.integers(-2, 2)) for i in range(r) for j in range(i + 1, r)
    }
    gram = tuple(
        tuple(diag[i] if i == j else off[min(i, j), max(i, j)] for j in range(r))
        for i in range(r)
    )
    lat = Lattice(gram)
    assume(lat.determinant != 0)
    return lat


def fraction_q(form, c):
    """q(c) recomputed in Fractions from the stored generator values."""
    k = form.rank()
    total = sum(c[i] * c[i] * form.qvalues[i] for i in range(k))
    total += 2 * sum(
        c[i] * c[j] * pairing(form)[i][j] for i in range(k) for j in range(i + 1, k)
    )
    return F(total) % 2


def fraction_b(form, x, y):
    """b(x, y) recomputed in Fractions from the stored pairing."""
    k = form.rank()
    total = sum(x[i] * y[j] * pairing(form)[i][j] for i in range(k) for j in range(k))
    return F(total) % 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(even_lattices(max_rank=4), st.randoms(use_true_random=False))
def test_property_q_and_b_match_fraction_recomputation(lat, rng):
    form = discriminant_form(lat)
    for _ in range(20):
        # unreduced coordinates exercise the reduction mod 2n and mod n
        x = tuple(rng.randrange(-2 * d, 2 * d) for d in form.orders)
        y = tuple(rng.randrange(-2 * d, 2 * d) for d in form.orders)
        assert q_of(form, x) == fraction_q(form, x)
        assert b_of(form, x, y) == fraction_b(form, x, y)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(even_lattices(max_rank=3), even_lattices(max_rank=3))
def test_property_normalization_is_idempotent(a, b):
    # direct_sum normalizes once; normalizing again must change nothing,
    # also where a generator of order 10 or 15 is split into primary parts
    form = direct_sum(discriminant_form(a), discriminant_form(b))
    assert finite_quadratic_form(form.orders, form.qvalues, pairing(form)) == form
    assert direct_sum(form, TRIVIAL_FORM) == form


@settings(derandomize=True, max_examples=100, deadline=None)
@given(even_lattices(max_rank=4), st.randoms(use_true_random=False))
def test_property_invariant_under_a_change_of_generators(lat, rng):
    # random automorphisms of the group move the generators: a unit
    # multiple, or adding to one generator a multiple of another whose
    # order divides the first one's; then the generators are shuffled
    form = discriminant_form(lat)
    k = form.rank()
    assume(k)
    orders = list(form.orders)
    gens = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    for _ in range(8):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            unit = rng.choice(
                [u for u in range(1, orders[i]) if math.gcd(u, orders[i]) == 1]
            )
            gens[i] = form.reduce([unit * x for x in gens[i]])
        else:
            c = orders[i] // math.gcd(orders[i], orders[j]) * rng.randrange(4)
            gens[j] = form.reduce([a + c * b for a, b in zip(gens[j], gens[i])])
    shuffled = rng.sample(range(k), k)
    gens = [gens[i] for i in shuffled]
    orders = [orders[i] for i in shuffled]
    assert [form.order_of(g) for g in gens] == orders
    changed = finite_quadratic_form(
        orders,
        [q_of(form, g) for g in gens],
        [[b_of(form, g, h) for h in gens] for g in gens],
    )
    assert changed.orders == form.orders
    assert fqf_isometries(form, changed)
    # the Jordan splittings of the two presentations may differ (at p = 2
    # they are not unique), but not the invariants folded over them
    assert brown_invariant(changed) == brown_invariant(form)
    for p, _ in prime_power_factors(form.order()):
        if p > 2:
            assert square_class_equal(
                odd_p_det_class(changed.p_part(p), p),
                odd_p_det_class(form.p_part(p), p),
                p,
            )

    def two_adic_square_classes(f):
        classes = set()
        for c in two_adic_det_classes(f.p_part(2)):
            v = (c & -c).bit_length() - 1
            classes.add((v % 2, c >> v & 7))
        return classes

    assert two_adic_square_classes(changed) == two_adic_square_classes(form)


def gauss_sum_brown(form):
    """Brown invariant from the Gauss sum S = sum of exp(pi i q(x)) over the
    group, or None for a degenerate form: the form is nondegenerate exactly
    when |S|**2 = |D|, and then S = sqrt|D| exp(2 pi i Brown / 8)."""
    total = sum(cmath.exp(1j * cmath.pi * q_of(form, x)) for x in form.elements())
    if abs(abs(total) ** 2 - form.order()) > 1e-6 * form.order():
        return None
    return round(cmath.phase(total) / (cmath.pi / 4)) % 8


def skew_two(a=1):
    """v_a: (Z/2**a)**2 with q = 2/2**a on both generators."""
    d = 2**a
    q = F(2, d) % 2
    return finite_quadratic_form(
        (d, d), (q, q), [[q % 1, F(1, d)], [F(1, d), q % 1]]
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    even_lattices(max_rank=4),
    st.sampled_from((1, 2, 3, 4)),
    st.sampled_from((0, 1, 2, 3)),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_property_brown_invariant_matches_gauss_sum_on_subgroups(
    lat, scale, a, skew, rng
):
    # rescaling raises the block orders; a summand u_a or v_a makes sure
    # the rank-two 2-adic blocks occur
    form = discriminant_form(Lattice(tuple(
        tuple(scale * x for x in row) for row in lat.gram
    )))
    if a:
        form = direct_sum(form, skew_two(a) if skew else hyperbolic_two(a))
    assume(form.order() <= 5000)
    gens = [
        tuple(rng.randrange(d) for d in form.orders)
        for _ in range(rng.randrange(1, form.rank() + 2))
    ]
    sub, _ = subgroup_form(form, gens)
    expected = gauss_sum_brown(sub)
    if expected is None:
        with pytest.raises(ValueError):
            brown_invariant(sub)
    else:
        assert brown_invariant(sub) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(even_lattices(max_rank=4))
def test_property_milgram_identity(lat):
    form = discriminant_form(lat)
    assume(form.order() <= 5000)
    plus, minus, _ = lat.signature
    assert brown_invariant(form) == (plus - minus) % 8


def brute_force_isometries(source, target, anti):
    """Column tuples of every (anti-)isometry source -> target: each tuple of
    generator images that kills the source orders is kept when the map it
    defines is bijective and carries q to +q or -q on every element."""
    sign = -1 if anti else 1
    target_q = {y: fraction_q(target, y) for y in target.elements()}
    source_els = list(source.elements())
    source_q = [sign * fraction_q(source, x) % 2 for x in source_els]
    choices = [
        [y for y in target_q if target.reduce([d * c for c in y]) == target.zero()
         and target_q[y] == sign * q % 2]  # cheap necessary conditions first
        for d, q in zip(source.orders, source.qvalues)
    ]
    found = []
    for images in itertools.product(*choices):
        image = [
            target.reduce([sum(c * y[i] for c, y in zip(x, images))
                           for i in range(target.rank())])
            for x in source_els
        ]
        if len(set(image)) == target.order() and all(
            target_q[y] == q for y, q in zip(image, source_q)
        ):
            found.append(images)
    return sorted(found)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(even_lattices(max_rank=3), st.booleans(), st.booleans())
def test_property_isometries_match_brute_force(lat, anti, negate):
    form = discriminant_form(lat)
    assume(not form.is_trivial() and form.order() <= 64)
    target = form.negated() if negate else form
    got = [g.columns for g in fqf_isometries(form, target, anti=anti)]
    assert got == brute_force_isometries(form, target, anti)
    assert all(g.anti == anti for g in fqf_isometries(form, target, anti=anti))


def test_isometries_out_of_a_degenerate_form_must_be_onto():
    # On (Z/2)^2 with q = 0 and b = 0 every pair of nonzero images preserves
    # the form; only the 6 invertible ones are isometries.
    zero = finite_quadratic_form((2, 2), (0, 0), [[0, 0], [0, 0]])
    auts = fqf_isometries(zero, zero)
    assert len(auts) == 6
    assert [g.columns for g in auts] == brute_force_isometries(zero, zero, False)


def test_isometries_need_equal_exponents():
    four = direct_sum(cyclic(4, F(1, 4)), cyclic(4, F(1, 4)))
    two_eight = direct_sum(cyclic(2, F(1, 2)), cyclic(8, F(1, 8)))
    assert four.order() == two_eight.order()
    assert fqf_isometries(four, two_eight) == []
    assert fqf_isometries(two_eight, four, anti=True) == []


# -- involution classes against conjugation by every element ----------------


def all_elements_involution_classes(form):
    """(size, least member, members) of every involution class, sorted, by
    conjugating with every automorphism and its Smith-form inverse."""
    group = fqf_isometries(form, form)
    inverses = [g.inverse() for g in group]
    seen, out = set(), []
    for s in group:
        if s.columns in seen or not is_identity(s.compose(s)):
            continue
        members = frozenset(
            g.compose(s).compose(g_inv).columns for g, g_inv in zip(group, inverses)
        )
        seen |= members
        out.append((len(members), min(members), members))
    return sorted(out, key=lambda t: t[:2])


def assert_chain_matches_the_listing(form):
    group = automorphism_group(form)
    listed = fqf_isometries(form, form)
    assert group.order() == len(listed)
    assert 2 ** len(group.strong) <= group.order()
    for iso in listed:
        perm = element_permutation(form, iso.columns)
        assert group_contains(group, perm)
        assert permutation_columns(form, perm) == iso.columns
    got = [
        (c.size, c.representative.columns, c.members) for c in involution_classes(form)
    ]
    assert got == all_elements_involution_classes(form)


@pytest.mark.parametrize(
    "spec, order", [("2U(3)", 1152), ("A2(3)", None), ("3A1", None), ("U(2)+[2]", None)]
)
def test_involution_classes_match_all_elements_oracle(spec, order):
    form = discriminant_form(build_lattice(spec))
    assert_chain_matches_the_listing(form)
    if order is not None:
        group = automorphism_group(form)
        assert group.order() == order
        assert len(group.strong) <= 10
        # the strong generators generate the listed group
        listed = fqf_isometries(form, form)
        assert group_elements(group) == sorted(
            element_permutation(form, g.columns) for g in listed
        )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(even_lattices(max_rank=3), st.booleans())
def test_property_chain_matches_the_isometry_listing(lat, negate):
    form = discriminant_form(lat)
    assume(not form.is_trivial() and form.order() <= 64)
    assert_chain_matches_the_listing(form.negated() if negate else form)


# -- the integer tables are the identity --------------------------------------


def test_integer_tables_are_the_identity():
    # Three presentations of Z/6 with q = 7/6; the last is worked over the
    # common denominator 12 because of its order-1 generator.
    a = finite_quadratic_form(
        (2, 3), (F(1, 2), F(2, 3)), [[F(1, 2), 0], [0, F(2, 3)]]
    )
    b = finite_quadratic_form((6,), (F(7, 6),), [[F(1, 6)]])
    c = finite_quadratic_form((6, 1), (F(7, 6), F(5, 4)), [[F(1, 6), 0], [0, F(1, 4)]])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    tables = [(f._n, f.qn, f.bn) for f in (a, b, c)]
    assert tables == [(6, (7,), ((1,),))] * 3
    assert repr(a) == "FiniteQuadraticForm(orders=(6,), qn=(7,), bn=((1,),))"


def test_generic_discr_block_reads_the_same_through_configio():
    # The corpus block's last generator has order 10; normalization splits
    # it into its 2- and 5-parts and sums them back to the same generator.
    form = load_configuration(
        (CORPUS / "k33_generic.json").read_text()
    ).transcendental.form
    assert {
        "factors": list(form.orders),
        "qvalues": [str(q) for q in form.qvalues],
        "pairing": [[str(x) for x in row] for row in pairing(form)],
    } == {
        "factors": [2, 2, 2, 10],
        "qvalues": ["1", "1", "1", "9/5"],
        "pairing": [
            ["0", "1/2", "0", "0"],
            ["1/2", "0", "0", "0"],
            ["0", "0", "0", "1/2"],
            ["0", "0", "1/2", "4/5"],
        ],
    }
    assert (form._n, form.qn) == (10, (10, 10, 10, 18))
    assert form.bn == ((0, 5, 0, 0), (5, 0, 0, 0), (0, 0, 0, 5), (0, 0, 5, 8))
