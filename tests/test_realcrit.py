"""Totally-real decision rules, the five standard involutions of the rank-4
hyperbolic sum, transcendental-side involution classes, and the Fermat
quartic's real structures as an oracle for the gluing answers."""

import collections
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lines import gluing, realcrit
from k3lines.configio import load_configuration
from k3lines.errors import InputError
from k3lines.fano import Analysis
from k3lines.fqf import (
    TRIVIAL_FORM,
    finite_quadratic_form,
    orthogonal_subgroup,
    square_class_equal,
    subgroup_form,
    two_adic_det_classes,
)
from k3lines.gluing import (
    ADMISSIBLE,
    INADMISSIBLE,
    UNKNOWN,
    FqfIsometry,
    Isometry,
    TWO_U_LABELS,
    discriminant_action,
    find_isometry,
    invariant_sublattice,
    match_real_structure,
    orthogonal_group_definite,
    t_side_involution_classes,
    two_u_involutions,
    _vectors_of_norm,
)
from k3lines.lattices import (
    Definite2,
    GenericDiscr,
    Lattice,
    TwoU,
    build_lattice,
    discriminant_data,
)
from k3lines.realcrit import Verdict, totally_real_criterion

from helpers import (
    b_of,
    direct_sum,
    discriminant_form,
    fqf_isometries,
    fermat_equations,
    fermat_image,
    fermat_line_image,
    fermat_lines,
    fermat_lines_meet,
    fermat_real_structures,
    group_contains,
    invariants_match,
    involution_classes,
    q_of,
    read_configuration,
    sign_structure_action,
)


def cyclic(d, q):
    q = F(q) % 2
    return finite_quadratic_form((d,), (q,), [[q % 1]])


# -- the decision rules -------------------------------------------------------


def test_verdict_kind_is_checked():
    with pytest.raises(ValueError):
        Verdict("MAYBE", ())


def test_trivial_discriminant_large_rank_contains_norm_two():
    v = totally_real_criterion(TRIVIAL_FORM, 12, 1)
    assert v.kind == "YES_CONTAINS_2"
    assert any("norm-2" in r for r in v.reasons)


def test_schur_quartic_discriminant_is_no():
    # Line side of the classical 64-line quartic: the complementary rank-2
    # genus is represented only by [8,4,8], which has minimum 4 and, being
    # positive definite, no hyperbolic sublattice.
    d_n = discriminant_form(build_lattice("[8,4,8]")).negated()
    v = totally_real_criterion(d_n, 2, -48)
    assert v.kind == "NO"
    assert v.reasons


def test_binary_form_oracle_confirms_the_no():
    # Enumerate all reduced even positive definite binary forms of
    # determinant 48 and check directly: the ones whose discriminant form is
    # anti-isometric to the line-side form have no vector of square 2 (and a
    # positive definite lattice has no isotropic vector, hence no U(2)).
    d_n = discriminant_form(build_lattice("[8,4,8]")).negated()
    reduced = []
    for a in range(2, 15, 2):
        for b in range(0, a // 2 + 1):
            c, rem = divmod(48 + b * b, a)
            if rem == 0 and c % 2 == 0 and c >= a:
                reduced.append((a, b, c))
    assert (8, 4, 8) in reduced and (2, 0, 24) in reduced
    genus = []
    for a, b, c in reduced:
        lat = Lattice(((a, b), (b, c)))
        if fqf_isometries(d_n, discriminant_form(lat), anti=True):
            genus.append((a, b, c))
    assert genus == [(8, 4, 8)]
    # Coordinate bound x_i^2 <= (G^-1)_ii * norm; here (G^-1)_ii = 8 / 48,
    # the integer cofactor over det G.
    assert _vectors_of_norm([[8, 4], [4, 8]], [8, 8], 48, 2) == []


def test_hyperbolic_plus_three_torsion_contains_norm_two():
    # Rank 4 with 2-length 2 passes the norm-2 case outright, so the weaker
    # hyperbolic containment is never consulted.
    d_n = direct_sum(discriminant_form(build_lattice("U(2)")), cyclic(3, F(2, 3)))
    v = totally_real_criterion(d_n, 4, 12)
    assert v.kind == "YES_CONTAINS_2"


def test_doubled_hyperbolic_pair_is_u2_case():
    # T = 2U(2): every square in the 2-part is an integer, so no norm-2
    # summand exists, but the hyperbolic pair is right there.
    d_n = discriminant_form(build_lattice("2U(2)")).negated()
    v = totally_real_criterion(d_n, 4, 16)
    assert v.kind == "YES_CONTAINS_U2"
    assert any("hyperbolic case, p=2" in r and "pass" in r for r in v.reasons)


def test_two_length_r_minus_one_is_unknown():
    v = totally_real_criterion(cyclic(2, F(1, 2)), 2, 2)
    assert v.kind == "UNKNOWN"
    assert any("undecided" in r for r in v.reasons)


def test_unknown_is_not_masked_by_the_hyperbolic_case():
    # 2-length 3 = r-1: even though the hyperbolic pair is present, the
    # undecided norm-2 case must surface as UNKNOWN, not as a weaker YES.
    d_n = direct_sum(discriminant_form(build_lattice("U(2)")), cyclic(2, F(1, 2)))
    v = totally_real_criterion(d_n, 4, 8)
    assert v.kind == "UNKNOWN"


def test_rank_one_complement_fails_both_cases():
    v = totally_real_criterion(TRIVIAL_FORM, 1, 1)
    assert v.kind == "NO"


def test_input_validation():
    with pytest.raises(InputError):
        totally_real_criterion(TRIVIAL_FORM, 0, 1)
    with pytest.raises(ValueError):
        totally_real_criterion(cyclic(3, F(2, 3)), 2, 5)


def test_odd_prime_determinant_branch():
    # T = [2] + [6]: the 3-length equals r-1, so the forced 3-adic
    # determinant has to match -2|det N|, and it does.
    d_n = discriminant_form(build_lattice("[2]+[6]")).negated()
    v = totally_real_criterion(d_n, 2, 12)
    assert v.kind == "YES_CONTAINS_2"
    assert any("p=3" in r and "r-1" in r and "pass" in r for r in v.reasons)


def test_odd_prime_determinant_branch_fails():
    # T = [4] + [6]: the 3-length equals r-1 again, but the forced 3-adic
    # determinant is in the wrong class.  Oracle: the only [2] + [c] of
    # determinant 24 is [2] + [12], and its form is not isometric to T's.
    d_t = discriminant_form(build_lattice("[4]+[6]"))
    assert not fqf_isometries(discriminant_form(build_lattice("[2]+[12]")), d_t)
    v = totally_real_criterion(d_t.negated(), 2, 24)
    assert v.kind == "NO"
    assert (
        "norm-2 case, p=3: length 1 = r-1 but the forced local determinant "
        "differs from -2|det N|: fail"
    ) in v.reasons


def test_characteristic_vector_determinant_branch():
    # T = [2] + [4]: the only order-2 vector of square -1/2 is
    # characteristic, so the complement determinant test has to fire.
    d_n = discriminant_form(build_lattice("[2]+[4]")).negated()
    v = totally_real_criterion(d_n, 2, 8)
    assert v.kind == "YES_CONTAINS_2"
    assert any("characteristic" in r for r in v.reasons)


# -- the 2-adic tests against the Fraction scans ------------------------------


def reference_norm_two_vector_hunt(part2, absn):
    """The norm-2 test at p = 2 as it was written in Fractions: q_of and
    b_of on every order-2 element."""
    twos = part2.two_torsion()
    half = F(3, 2)  # -1/2 mod 2
    for u in [v for v in twos if q_of(part2, v) == half]:
        if any(b_of(part2, u, v) != q_of(part2, v) % 1 for v in twos):
            return "a non-characteristic order-2 vector of square -1/2 exists"
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


def reference_hyperbolic_pair(part2) -> bool:
    """The pair scan of the hyperbolic case as it was written in
    Fractions."""
    twos = part2.two_torsion()
    for u in twos:
        if q_of(part2, u) != 0:
            continue
        for v in twos:
            if q_of(part2, v) == 0 and b_of(part2, u, v) == F(1, 2):
                return True
    return False


@st.composite
def two_adic_jordan_sums(draw):
    """A direct sum of 2-adic Jordan blocks: cyclic 2^a with q = c / 2^a, c
    odd, and the rank-two u_a (q = 0, 0) and v_a (q = 2 / 2^a, 2 / 2^a),
    each with pairing 1 / 2^a between its generators; 2-length at most 7."""
    orders, qs, blocks = [], [], []
    while len(orders) < 7 and draw(st.integers(0, 2)):
        a = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("cyclic", "u", "v")))
        if kind == "cyclic":
            orders.append(2**a)
            qs.append(F(draw(st.sampled_from((1, 3, 5, 7))), 2**a))
            blocks.append((len(orders) - 1,))
        elif len(orders) < 6:
            square = F(0) if kind == "u" else F(2, 2**a)
            orders += [2**a, 2**a]
            qs += [square, square]
            blocks.append((len(orders) - 2, len(orders) - 1))
    pairing = [[F(0)] * len(qs) for _ in qs]
    for block in blocks:
        for i in block:
            pairing[i][i] = qs[i] % 1
        if len(block) == 2:
            i, j = block
            pairing[i][j] = pairing[j][i] = F(1, orders[i])
    return finite_quadratic_form(orders, qs, pairing)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(two_adic_jordan_sums(), st.sampled_from((1, 3, 5, 7)))
def test_property_two_adic_tests_match_the_fraction_scans(part2, odd):
    absn = part2.order() * odd
    assert realcrit._norm_two_vector_hunt(part2, absn) == (
        reference_norm_two_vector_hunt(part2, absn)
    )
    assert realcrit._has_hyperbolic_pair(part2) == reference_hyperbolic_pair(part2)


@pytest.mark.parametrize(
    "expr, hunt, pair",
    [
        # [2]: its order-2 vector has square 1/2, not -1/2
        ("[2]", "none", False),
        # [-2] + [-4]: the one vector of square -1/2 is characteristic
        ("[-2]+[-4]", "a characteristic", False),
        # [-2] + [-2]: each vector of square -1/2 pairs 0 with the other
        ("2[-2]", "a non-characteristic", False),
        # U(2): the hyperbolic pair itself
        ("U(2)", "none", True),
    ],
)
def test_two_adic_tests_reach_every_outcome(expr, hunt, pair):
    part2 = discriminant_form(build_lattice(expr)).p_part(2)
    reason = realcrit._norm_two_vector_hunt(part2, part2.order())
    assert reason == reference_norm_two_vector_hunt(part2, part2.order())
    assert (reason or "none").startswith(hunt)
    assert realcrit._has_hyperbolic_pair(part2) is pair


def test_hyperbolic_scan_budget():
    # (Z/4)^9 with q = 1/4 on each generator and r = 9: the 511 order-2
    # elements are scanned in pairs for a hyperbolic pair, and there is
    # none.  Two Fractions per pair took about 1.2 s of CPU; integer
    # tables take a few hundredths.
    k = 9
    form = finite_quadratic_form(
        (4,) * k,
        (F(1, 4),) * k,
        [[F(1, 4) if i == j else 0 for j in range(k)] for i in range(k)],
    )
    start = time.process_time()
    verdict = totally_real_criterion(form, k, 4**k)
    spent = time.process_time() - start
    assert verdict.kind == "NO"
    assert verdict.reasons[-2] == (
        "hyperbolic case, p=2: no order-2 pair with zero squares and "
        "half-integer pairing: fail"
    )
    assert spent <= 0.25


def _random_positive_times_negative(rng, extra):
    """Even lattice of signature (1, extra): one positive square or a
    hyperbolic plane, padded with negative even squares."""
    if rng.random() < 0.5:
        head = build_lattice(f"[{2 * rng.randint(1, 3)}]")
        tail_count = extra
    else:
        head = build_lattice("U")
        tail_count = extra - 1
    if tail_count < 0:
        return None
    lat = head
    for _ in range(tail_count):
        lat = lat.direct_sum(build_lattice(f"[{-2 * rng.randint(1, 3)}]"))
    return lat


def test_norm_two_soundness_suite():
    # T = [2] + T' with T' of signature (1, s) really does contain a norm-2
    # summand, so the rules must never answer NO on its invariants.
    rng = random.Random(20260818)
    done = 0
    while done < 60:
        t_prime = _random_positive_times_negative(rng, rng.randint(0, 3))
        if t_prime is None:
            continue
        t = build_lattice("[2]").direct_sum(t_prime)
        v = totally_real_criterion(
            discriminant_form(t).negated(), t.rank, t.determinant
        )
        assert v.kind != "NO", (t.gram, v.reasons)
        done += 1


def test_hyperbolic_soundness_suite():
    # Likewise T = U(2) + T' always contains U(2).
    rng = random.Random(20260819)
    done = 0
    while done < 60:
        t_prime = _random_positive_times_negative(rng, rng.randint(0, 3))
        if t_prime is None:
            continue
        t = build_lattice("U(2)").direct_sum(t_prime)
        v = totally_real_criterion(
            discriminant_form(t).negated(), t.rank, t.determinant
        )
        assert v.kind != "NO", (t.gram, v.reasons)
        done += 1


# -- the five involutions -----------------------------------------------------


def test_two_u_involutions_labels_and_basic_shape():
    pairs = two_u_involutions()
    assert tuple(label for label, _ in pairs) == TWO_U_LABELS
    for label, g in pairs:
        assert g.is_involution()
        assert sign_structure_action(g.lattice, g) == -1


def test_two_u_fixed_sublattices_match_their_labels():
    two_u = build_lattice("2U")
    for label, g in two_u_involutions():
        fixed, _ = invariant_sublattice(two_u, g)
        assert invariants_match(fixed, build_lattice(label)), label
        assert fixed.signature[0] == 1


def test_two_u_fixed_sublattices_are_pairwise_distinct():
    fixed = [
        invariant_sublattice(build_lattice("2U"), g)[0]
        for _, g in two_u_involutions()
    ]
    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            assert not invariants_match(fixed[i], fixed[j])


# -- transcendental-side classes ----------------------------------------------


def test_t_side_generic_is_unknown():
    spec = GenericDiscr(cyclic(3, F(2, 3)), 4)
    assert t_side_involution_classes(spec) is None


def test_generic_discr_validates_lengths():
    with pytest.raises(InputError):
        GenericDiscr(discriminant_form(build_lattice("U(2)")), 1)
    with pytest.raises(InputError):
        GenericDiscr(cyclic(3, F(2, 3)), 0)


def test_definite2_requires_positive_definite_rank_two():
    with pytest.raises(InputError):
        Definite2(build_lattice("U"))
    with pytest.raises(InputError):
        Definite2(build_lattice("A2"))
    with pytest.raises(InputError):
        Definite2(build_lattice("[2]+[2]+[2]"))


def test_two_u_requires_positive_scale():
    with pytest.raises(InputError):
        TwoU(0)


def test_t_side_for_unscaled_two_u_is_trivial():
    tside = t_side_involution_classes(TwoU(1))
    assert tside.form.is_trivial()
    assert tside.members == frozenset({()})
    assert tside.class_count == 1


def test_t_side_for_scaled_two_u_hits_three_classes():
    tside = t_side_involution_classes(TwoU(3))
    assert tside.class_count == 3
    classes = involution_classes(tside.form)
    hit = [c for c in classes if c.members & tside.members]
    assert len(hit) == 3
    assert sum(c.size for c in hit) == len(tside.members)
    # Recomputation is deterministic.
    again = t_side_involution_classes(TwoU(3))
    assert again == tside


def test_t_side_for_definite_rank_two():
    tside = t_side_involution_classes(Definite2(build_lattice("[8,4,8]")))
    assert tside.members
    square = t_side_involution_classes(Definite2(build_lattice("[2,0,2]")))
    assert square.members


def test_definite_t_side_reflections_are_the_sign_reversing_involutions():
    # oracle: the involutions that reverse the orientation of a maximal
    # positive subspace, found by the Fraction congruence reduction
    rng = random.Random(30303)
    grams = set()
    while len(grams) < 300:
        a, c = 2 * rng.randint(1, 8), 2 * rng.randint(1, 8)
        b = rng.randint(-8, 8)
        if a * c > b * b:
            grams.add((a, b, c))
    grams |= {(8, 0, 8), (8, 4, 8), (6, 3, 6)}  # (6, 3, 6): triangle_def2
    start = time.process_time()
    for a, b, c in sorted(grams):
        lat = Lattice(((a, b), (b, c)))
        data = discriminant_data(lat.gram)
        filtered = frozenset(
            discriminant_action(data, g).columns
            for g in orthogonal_group_definite(lat)
            if g.is_involution() and sign_structure_action(lat, g) == -1
        )
        assert t_side_involution_classes(Definite2(lat)).images == filtered
    assert time.process_time() - start < 1


# -- gluing -------------------------------------------------------------------


def test_match_unknown_without_transcendental_data():
    d_n = discriminant_form(build_lattice("U(2)"))
    tau = discriminant_action(
        discriminant_data(build_lattice("U(2)").gram),
        Isometry(build_lattice("U(2)"), ((-1, 0), (0, -1))),
    )
    status, _ = match_real_structure(tau, None)
    assert status == UNKNOWN


def test_match_reports_genus_mismatch():
    lat = build_lattice("[2]")
    tau = discriminant_action(discriminant_data(lat.gram), Isometry(lat, ((-1,),)))
    status, reason = match_real_structure(tau, t_side_involution_classes(TwoU(3)))
    assert status == INADMISSIBLE
    assert "genus mismatch" in reason


def test_match_admits_a_glued_involution():
    # Push the summand swap to the discriminant of 2U(3) and match it against
    # the transcendental classes of the same lattice: the swap is one of the
    # five constructions, so it must glue.
    lat = build_lattice("2U(3)")
    data = discriminant_data(lat.gram)
    swap = Isometry(
        lat,
        (
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
        ),
    )
    tau = discriminant_action(data, swap)
    status, _ = match_real_structure(tau, t_side_involution_classes(TwoU(3)))
    assert status == ADMISSIBLE


# -- one anti-isometry against every anti-isometry ----------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FERMAT = Path(__file__).resolve().parent / "data" / "fermat48.json"


def every_anti_isometry_verdict(tau, tside) -> str:
    """The gluing verdict by the route that needs no closure: try every
    anti-isometry phi and look phi tau phi^-1 up among the realizable
    images themselves."""
    if tside is None:
        return UNKNOWN
    antis = fqf_isometries(tau.source, tside.form, anti=True)
    for phi in antis:
        if phi.compose(tau).compose(phi.inverse()).columns in tside.images:
            return ADMISSIBLE
    return INADMISSIBLE


def test_two_u_closure_agrees_with_every_anti_isometry():
    # D_N = D_T(-1): tau runs over the involution classes of D_N, so the
    # genus matches and every verdict goes through the closure
    statuses = []
    for scale in (2, 3):
        tside = t_side_involution_classes(TwoU(scale))
        d_n = discriminant_form(build_lattice(f"2U({scale})")).negated()
        for cls in involution_classes(d_n):
            tau = cls.representative
            status, _ = match_real_structure(tau, tside)
            assert status == every_anti_isometry_verdict(tau, tside)
            statuses.append(status)
    # all 4 classes of 2U(2) glue; 3 of the 8 of 2U(3) do
    assert statuses.count(ADMISSIBLE) == 7
    assert statuses.count(INADMISSIBLE) == 5


TWO_U_FIVE = """
import time
from k3lines.gluing import automorphism_group, t_side_involution_classes
from k3lines.lattices import TwoU
tside = t_side_involution_classes(TwoU(5))
assert len(tside.members) == 570
assert tside.gluing(tside.form.negated())[0] is not None
group = automorphism_group(tside.form)
assert len(group.conjugation_orbits(group.involutions())) == 8
print(time.process_time())
"""


TWO_U_SEVEN = """
import time
from k3lines.gluing import t_side_involution_classes
from k3lines.lattices import TwoU
tside = t_side_involution_classes(TwoU(7))
assert (tside.class_count, len(tside.members)) == (3, 1904)
print(time.process_time())
"""


TWO_U_SEVEN_WALK = """
import time
from k3lines.gluing import automorphism_group
from k3lines.lattices import build_lattice, discriminant_data
group = automorphism_group(discriminant_data(build_lattice("2U(7)").gram).form)
start = time.process_time()
involutions = group.involutions()
spent = time.process_time() - start
assert len(involutions) == 3124
print(spent)
"""


def process_cpu(script: str) -> float:
    """Process CPU seconds, measured by `script` in a fresh interpreter and
    printed as its only output."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(proc.stdout)


def test_two_u_five_closure_budget():
    # |Aut(D_T)| = 28,800: a listing of the group fails the budget
    assert process_cpu(TWO_U_FIVE) <= 1.5


def test_two_u_seven_closure_budget():
    # D_T has 2,401 elements: conjugating whole permutations of them to
    # close the five images takes about 1.2-1.7 s, keys of their 4 base
    # images about 0.5 s
    assert process_cpu(TWO_U_SEVEN) <= 1.0


def test_two_u_seven_involution_walk_budget():
    # the walk alone, on Aut(D_T) built beforehand: composing every partial
    # product and scanning it for the preimages of the base points took
    # about 3 s
    assert process_cpu(TWO_U_SEVEN_WALK) <= 1.5


def candidate_actions(cfg):
    analysis = Analysis(cfg)
    return [
        analysis.candidate_action(sigma)
        for sigma in analysis.involution_classes
    ]


def with_transcendental(path, transcendental):
    doc = json.loads(path.read_text())
    doc["transcendental"] = transcendental
    return load_configuration(json.dumps(doc))


def fermat_with_definite2():
    return with_transcendental(FERMAT, {"definite2": [8, 0, 8]})


@pytest.mark.parametrize(
    "name",
    sorted(
        p.name
        for p in CORPUS.glob("*.json")
        if "transcendental" in json.loads(p.read_text())
    ),
)
def test_one_anti_isometry_agrees_with_every_one_on_the_corpus(name):
    cfg = read_configuration(CORPUS / name)
    tside = t_side_involution_classes(cfg.transcendental)
    for tau in candidate_actions(cfg):
        status, _ = match_real_structure(tau, tside)
        assert status == every_anti_isometry_verdict(tau, tside)


def test_one_anti_isometry_agrees_with_every_one_on_the_fermat_lines():
    cfg = fermat_with_definite2()
    tside = t_side_involution_classes(cfg.transcendental)
    statuses = []
    for tau in candidate_actions(cfg):
        status, _ = match_real_structure(tau, tside)
        assert status == every_anti_isometry_verdict(tau, tside)
        statuses.append(status)
    assert statuses.count(ADMISSIBLE) == 7
    assert statuses.count(INADMISSIBLE) == 21


def test_one_anti_isometry_agrees_with_every_one_on_random_pairs():
    # N = T(-1), so D_N and D_T are anti-isometric; tau runs over the
    # involutions of O(N) pushed to D_N
    rng = random.Random(424242)
    seen = {ADMISSIBLE: 0, INADMISSIBLE: 0}
    outside_images = 0
    for _ in range(40):
        a = 2 * rng.randint(1, 6)
        c = 2 * rng.randint(1, 6)
        b = rng.randint(-2, 2)
        if a * c - b * b <= 0:
            continue
        t = Lattice(((a, b), (b, c)))
        n = t.negated()
        data = discriminant_data(n.gram)
        tside = t_side_involution_classes(Definite2(t))
        phi = tside.gluing(data.form)[0]
        for g in orthogonal_group_definite(n):
            if not g.is_involution():
                continue
            tau = discriminant_action(data, g)
            status, reason = match_real_structure(tau, tside)
            assert status == every_anti_isometry_verdict(tau, tside)
            seen[status] += 1
            if status == ADMISSIBLE:
                image = phi.compose(tau).compose(phi.inverse()).columns
                outside_images += image not in tside.images
            else:
                assert reason == tside.outside
    assert seen[ADMISSIBLE] and seen[INADMISSIBLE]
    # some verdicts need the closure: phi carries tau outside the images
    assert outside_images


def test_fermat_totally_real_no_by_binary_forms():
    # The 48 Fermat lines have rank N = 20, so T would be an even positive
    # definite binary lattice of determinant |det N| = 64 with D_T
    # anti-isometric to D_N.  Enumerate every reduced form [a, b, c],
    # 2|b| <= a <= c: then a^2 <= ac = 64 + b^2 <= 64 + a^2 / 4, so a <= 9.
    # The genus must come out as diag(8, 8) alone, with no vector of
    # norm 2 (and, being definite, no U(2)), so NO is the right verdict.
    analysis = Analysis(read_configuration(FERMAT))
    assert (analysis.rank_n, analysis.r, analysis.det_n) == (20, 2, -64)
    verdict = totally_real_criterion(analysis.dn, analysis.r, analysis.det_n)
    assert verdict.kind == "NO"
    reduced = []
    for a in range(2, 10, 2):
        for b in range(-(a // 2), a // 2 + 1):
            c, rem = divmod(64 + b * b, a)
            if rem == 0 and c % 2 == 0 and c >= a:
                reduced.append((a, b, c))
    assert reduced == [(2, 0, 32), (4, 0, 16), (8, -4, 10), (8, 0, 8), (8, 4, 10)]
    genus = [
        (a, b, c)
        for a, b, c in reduced
        if fqf_isometries(
            analysis.dn, discriminant_form(Lattice(((a, b), (b, c)))), anti=True
        )
    ]
    assert genus == [(8, 0, 8)]
    for a, b, c in genus:
        # a x^2 + 2b xy + c y^2 = ((a x + b y)^2 + 64 y^2) / a, and the
        # same with x and y swapped: norm 2 needs 64 y^2 <= 2a, 64 x^2 <= 2c
        xbox = range(-isqrt(2 * c // 64), isqrt(2 * c // 64) + 1)
        ybox = range(-isqrt(2 * a // 64), isqrt(2 * a // 64) + 1)
        assert not [
            (x, y)
            for x in xbox
            for y in ybox
            if a * x * x + 2 * b * x * y + c * y * y == 2
        ]


def test_fermat_real_searches_for_an_anti_isometry_once(monkeypatch):
    calls = []

    def counted(source, target, anti=False):
        calls.append(anti)
        return find_isometry(source, target, anti=anti)

    monkeypatch.setattr(gluing, "find_isometry", counted)
    cfg = fermat_with_definite2()
    candidates = Analysis(cfg).real_structure_candidates(cfg.transcendental)
    assert len(candidates) == 28
    assert calls == [True]


def test_fermat_real_inverts_the_anti_isometry_once(monkeypatch):
    # the 28 candidates share one phi, and each conjugates by phi^-1
    inverses = []
    invert = FqfIsometry.inverse

    def counted(phi):
        inverses.append(phi)
        return invert(phi)

    monkeypatch.setattr(FqfIsometry, "inverse", counted)
    cfg = fermat_with_definite2()
    candidates = Analysis(cfg).real_structure_candidates(cfg.transcendental)
    assert len(candidates) == 28
    assert len(inverses) == 1


def test_genus_mismatch_computes_no_closure(monkeypatch):
    def refused(form):
        raise AssertionError("Aut(D_T) computed for a genus mismatch")

    monkeypatch.setattr(gluing, "automorphism_group", refused)
    for cfg in (
        read_configuration(CORPUS / "k33_twou3.json"),
        with_transcendental(CORPUS / "k33.json", {"twoU": 7}),
    ):
        candidates = Analysis(cfg).real_structure_candidates(cfg.transcendental)
        assert candidates
        assert all("genus mismatch" in c.reason for c in candidates)


def test_inadmissible_reasons_keep_their_wording():
    definite = t_side_involution_classes(Definite2(build_lattice("[8,0,8]")))
    assert definite.outside == (
        "no anti-isometry carries the induced involution to a realizable image"
    )
    assert t_side_involution_classes(TwoU(3)).outside == (
        "the induced involution lands outside every realizable conjugacy class"
    )


# -- the Fermat quartic's real structures, from its equation ------------------


FERMAT_DEFINITE2 = Path(__file__).resolve().parent / "data" / "fermat48_definite2.json"


def test_fermat_line_labels_give_the_recorded_edges():
    lines = fermat_lines()
    edges = [
        [x, y, 1]
        for x, y in itertools.combinations(range(len(lines)), 2)
        if fermat_lines_meet(lines[x], lines[y])
    ]
    assert edges == json.loads(FERMAT_DEFINITE2.read_text())["edges"]


def test_fermat_real_structures_are_the_admissible_candidates():
    # An oracle from geometry for the gluing answers (ROADMAP item 5): each
    # real structure x -> D·P·conj(x) of the quartic acts on its 48 lines
    # as a member of S, and the classes they hit must be exactly those the
    # gluing to T = [8,0,8] admits, with the numR and numRR that the 24
    # planes x_i = z^a x_j, each cut in 4 lines, give.
    start = time.process_time()
    cfg = read_configuration(FERMAT_DEFINITE2)
    analysis = Analysis(cfg)
    candidates = analysis.real_structure_candidates(cfg.transcendental)
    stabilizer = analysis.stabilizer
    class_of = {
        member: index
        for index, orbit in enumerate(
            stabilizer.conjugation_orbits(
                [c.isometry.permutation for c in candidates]
            )
        )
        for member in orbit
    }
    lines = fermat_lines()
    index = {line: x for x, line in enumerate(lines)}
    planes = {}  # (i, j, a) -> the 4 lines in x_i = z^a x_j
    for x, line in enumerate(lines):
        for equation in fermat_equations(line):
            planes.setdefault(equation, set()).add(x)
    assert sorted(map(sorted, planes.values())) == sorted(
        sorted(f.vertices) for f in analysis.fragments
    )

    structures = fermat_real_structures()
    assert len(structures) == 64 + 6 * 16 + 3 * 8
    hits = collections.Counter()
    for structure in structures:
        sigma = tuple(index[fermat_line_image(structure, line)] for line in lines)
        assert group_contains(stabilizer, sigma)
        cls = class_of[sigma]
        real = [e for e in planes if fermat_image(structure, e) == e]
        num_rr = sum(all(sigma[x] == x for x in planes[e]) for e in real)
        assert (len(real), num_rr) == (candidates[cls].num_r, candidates[cls].num_rr)
        hits[cls] += 1
        if structure == ((0, 1, 2, 3), (0, 0, 0, 0)):
            standard = cls
    admissible = {i for i, c in enumerate(candidates) if c.admissibility == ADMISSIBLE}
    assert set(hits) == admissible
    assert sorted(
        ((candidates[cls].num_r, candidates[cls].num_rr), count)
        for cls, count in hits.items()
    ) == sorted([
        ((8, 8), 12), ((6, 2), 48), ((8, 0), 24), ((0, 0), 12),
        ((4, 0), 48), ((6, 0), 32), ((0, 0), 8),
    ])
    # the standard conjugation: the real Fermat quartic has no real point
    assert (candidates[standard].num_r, hits[standard]) == (0, 8)
    assert time.process_time() - start < 2.0

