"""Finite quadratic form machinery: construction, the Brown invariant against
Gauss sums, isometries, subquotients, local determinant classes."""

import cmath
import itertools
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
    FqfIsometry,
    automorphism_group,
    brown_invariant,
    ell,
    finite_quadratic_form,
    fqf_isometries,
    greedy_generators,
    identity_isometry,
    involution_classes,
    isotropic_quotient,
    odd_p_det_class,
    orthogonal_subgroup,
    prime_power_factors,
    solve_mod,
    square_class_equal,
    subgroup_form,
    two_adic_det_classes,
)
from k3lines.lattices import (
    Lattice,
    build_lattice,
    discriminant_data,
    discriminant_form,
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


def test_quadratic_form_polarization():
    rng = random.Random(7)
    form = discriminant_form(build_lattice("[8,4,8]"))
    for _ in range(40):
        x = tuple(rng.randrange(d) for d in form.orders)
        y = tuple(rng.randrange(d) for d in form.orders)
        s = tuple((a + b) % d for a, b, d in zip(x, y, form.orders))
        lhs = form.q_of(s)
        rhs = (form.q_of(x) + form.q_of(y) + 2 * form.b_of(x, y)) % 2
        assert lhs == rhs


def test_element_enumeration_cap():
    form = cyclic(4, F(1, 4))
    for _ in range(4):
        form = form.direct_sum(form)
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
            total = total.direct_sum(form.p_part(p))
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
    data = discriminant_data(big)
    kappa = data.coordinates((F(1, 2), F(0), F(1, 2), F(0)))
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
            assert form.q_of(iso.apply(x)) == form.q_of(x)
            assert form.b_of(iso.apply(x), iso.apply(y)) == form.b_of(x, y)
        for el in form.elements():
            seen.add(iso.apply(el))
        assert len(seen) == form.order()


def test_automorphisms_form_a_group():
    form = discriminant_form(build_lattice("U(2)+[2]"))
    group = automorphism_group(form)
    columns = {g.columns for g in group}
    ident = identity_isometry(form)
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
    group = automorphism_group(form)
    brute = [g for g in group if g.compose(g).is_identity()]
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
        big = big.direct_sum(cyclic(2, F(1, 2)))
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


def test_prime_power_factors_caps_two_large_prime_factors():
    with pytest.raises(CapExceeded, match="factoring a 61-bit number"):
        prime_power_factors(2 * 1_000_000_007 * 998_244_353)
    # the square of a prime just above the limit is not provably prime
    with pytest.raises(CapExceeded, match="factoring"):
        prime_power_factors(1_000_003**2)
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
        c[i] * c[j] * form.pairing[i][j] for i in range(k) for j in range(i + 1, k)
    )
    return F(total) % 2


def fraction_b(form, x, y):
    """b(x, y) recomputed in Fractions from the stored pairing."""
    k = form.rank()
    total = sum(x[i] * y[j] * form.pairing[i][j] for i in range(k) for j in range(k))
    return F(total) % 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(even_lattices(max_rank=4), st.randoms(use_true_random=False))
def test_property_q_and_b_match_fraction_recomputation(lat, rng):
    form = discriminant_form(lat)
    for _ in range(20):
        # unreduced coordinates exercise the reduction mod 2n and mod n
        x = tuple(rng.randrange(-2 * d, 2 * d) for d in form.orders)
        y = tuple(rng.randrange(-2 * d, 2 * d) for d in form.orders)
        assert form.q_of(x) == fraction_q(form, x)
        assert form.b_of(x, y) == fraction_b(form, x, y)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(even_lattices(max_rank=3), even_lattices(max_rank=3))
def test_property_normalization_is_idempotent(a, b):
    # direct_sum normalizes once; normalizing again must change nothing,
    # also where a generator of order 10 or 15 is split into primary parts
    form = discriminant_form(a).direct_sum(discriminant_form(b))
    assert finite_quadratic_form(form.orders, form.qvalues, form.pairing) == form
    assert form.direct_sum(TRIVIAL_FORM) == form


def gauss_sum_brown(form):
    """Brown invariant from the Gauss sum S = sum of exp(pi i q(x)) over the
    group, or None for a degenerate form: the form is nondegenerate exactly
    when |S|**2 = |D|, and then S = sqrt|D| exp(2 pi i Brown / 8)."""
    total = sum(cmath.exp(1j * cmath.pi * form.q_of(x)) for x in form.elements())
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
        form = form.direct_sum(skew_two(a) if skew else hyperbolic_two(a))
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
    four = cyclic(4, F(1, 4)).direct_sum(cyclic(4, F(1, 4)))
    two_eight = cyclic(2, F(1, 2)).direct_sum(cyclic(8, F(1, 8)))
    assert four.order() == two_eight.order()
    assert fqf_isometries(four, two_eight) == []
    assert fqf_isometries(two_eight, four, anti=True) == []


# -- involution classes against conjugation by every element ----------------


def all_elements_involution_classes(form):
    """(size, least member, members) of every involution class, sorted, by
    conjugating with every automorphism and its Smith-form inverse."""
    group = automorphism_group(form)
    inverses = [g.inverse() for g in group]
    seen, out = set(), []
    for s in group:
        if s.columns in seen or not s.compose(s).is_identity():
            continue
        members = frozenset(
            g.compose(s).compose(g_inv).columns for g, g_inv in zip(group, inverses)
        )
        seen |= members
        out.append((len(members), min(members), members))
    return sorted(out, key=lambda t: t[:2])


@pytest.mark.parametrize(
    "spec, order", [("2U(3)", 1152), ("A2(3)", None), ("3A1", None)]
)
def test_involution_classes_match_all_elements_oracle(spec, order):
    form = discriminant_form(build_lattice(spec))
    if order is not None:
        assert len(automorphism_group(form)) == order
    got = [
        (c.size, c.representative.columns, c.members) for c in involution_classes(form)
    ]
    assert got == all_elements_involution_classes(form)
    # the orbits grow under greedy generators: at most log2 |Aut| of them,
    # and they generate Aut
    group = [g.columns for g in automorphism_group(form)]

    def mul(a, b):
        return FqfIsometry(form, form, a).compose(FqfIsometry(form, form, b)).columns

    ident = identity_isometry(form).columns
    gens = greedy_generators(group, mul, ident)
    assert 2 ** len(gens) <= len(group)
    span, frontier = {ident}, [ident]
    for x in frontier:
        for y in (mul(x, a) for a in gens):
            if y not in span:
                span.add(y)
                frontier.append(y)
    assert sorted(span) == group


# -- the integer tables stay out of identity ---------------------------------


def test_integer_tables_do_not_leak_into_identity():
    # Three presentations of Z/6 with q = 7/6; the last is worked over the
    # common denominator 12 because of its order-1 generator.
    a = finite_quadratic_form(
        (2, 3), (F(1, 2), F(2, 3)), [[F(1, 2), 0], [0, F(2, 3)]]
    )
    b = finite_quadratic_form((6,), (F(7, 6),), [[F(1, 6)]])
    c = finite_quadratic_form((6, 1), (F(7, 6), F(5, 4)), [[F(1, 6), 0], [0, F(1, 4)]])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    tables = [(f._n, f._q, f._b) for f in (a, b, c)]
    assert tables == [(6, (7,), ((1,),))] * 3
    group = automorphism_group(a)
    assert b in fqf._AUT_CACHE and c in fqf._AUT_CACHE
    assert automorphism_group(b) is group and automorphism_group(c) is group
    assert repr(a) == (
        "FiniteQuadraticForm(orders=(6,), qvalues=(Fraction(7, 6),), "
        "pairing=((Fraction(1, 6),),))"
    )


def test_generic_discr_block_reads_the_same_through_configio():
    # The corpus block's last generator has order 10; normalization splits
    # it into its 2- and 5-parts and sums them back to the same generator.
    form = load_configuration(
        (CORPUS / "k33_generic.json").read_text()
    ).transcendental.form
    assert {
        "factors": list(form.orders),
        "qvalues": [str(q) for q in form.qvalues],
        "pairing": [[str(x) for x in row] for row in form.pairing],
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
    assert (form._n, form._q) == (10, (10, 10, 10, 18))
    assert form._b == ((0, 5, 0, 0), (5, 0, 0, 0), (0, 0, 0, 5), (0, 0, 5, 8))
