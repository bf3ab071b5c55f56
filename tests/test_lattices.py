"""Lattice constructors, discriminant forms, orthogonal groups, sign action,
fixed sublattices."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lines.errors import InputError
from k3lines.fqf import brown_invariant
from k3lines.gluing import (
    Isometry,
    discriminant_action,
    invariant_sublattice,
    orthogonal_group_definite,
)
from k3lines.intmat import identity, mat_vec
from k3lines.lattices import Lattice, build_lattice, discriminant_data

from helpers import (
    BUILTIN_SPECS,
    compose_isometries,
    coordinates,
    direct_sum,
    discriminant_form,
    dual_vectors,
    fqf_isometries,
    identity_isometry,
    inverse_isometry,
    invariants_match,
    is_identity,
    norm,
    pairing,
    sign_structure_action,
)


def test_parser_frozen_grams():
    assert build_lattice("U(2)").gram == ((0, 2), (2, 0))
    assert build_lattice("[8,4,8]").gram == ((8, 4), (4, 8))
    assert build_lattice("2U(3)").gram == (
        (0, 3, 0, 0),
        (3, 0, 0, 0),
        (0, 0, 0, 3),
        (0, 0, 3, 0),
    )
    assert build_lattice("A2").gram == ((-2, 1), (1, -2))
    assert build_lattice("[2]").gram == ((2,),)
    assert build_lattice("[-2]").gram == ((-2,),)
    assert build_lattice(" 2 * U ( 3 ) ").gram == build_lattice("2U(3)").gram
    assert build_lattice("2U").gram == build_lattice("U+U").gram
    assert build_lattice("E8(-1)").gram == tuple(
        tuple(-x for x in row) for row in build_lattice("E8").gram
    )


def test_parser_rejects_malformed_input():
    bad = [
        "[3]",
        "[0]",
        "[2,1,3]",
        "[2,1]",
        "[2,1,4,6]",
        "U(0)",
        "A0",
        "D3",
        "E5",
        "E9",
        "Q",
        "U+",
        "2U)",
        "",
        "0*U",
        "U(2",
        "[2",
    ]
    for spec in bad:
        with pytest.raises(InputError):
            build_lattice(spec)


def dynkin_gram(letter: str, n: int) -> list[list[int]]:
    """Negative definite root lattice: a path on the first vertices, and for
    D and E the last vertex hung from vertex n-3 and vertex 2."""
    edges = [(i, i + 1) for i in range(n - (1 if letter == "A" else 2))]
    if letter == "D":
        edges.append((n - 3, n - 1))
    if letter == "E":
        edges.append((2, n - 1))
    gram = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return gram


def blocks(*grams) -> list[list[int]]:
    n = sum(len(g) for g in grams)
    out, at = [[0] * n for _ in range(n)], 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at : at + len(row)] = row
        at += len(g)
    return out


@st.composite
def lattice_expressions(draw):
    """A random expression of the lattice grammar, with optional spaces
    between tokens, and the Gram matrix it names, built block by block."""

    def gap():
        return draw(st.sampled_from(("", "", " ", "  ")))

    def atom():
        kind = draw(st.sampled_from("UADE[]"))
        if kind == "U":
            return "U", [[0, 1], [1, 0]]
        if kind in "ADE":
            low, high = {"A": (1, 5), "D": (4, 6), "E": (6, 8)}[kind]
            n = draw(st.integers(low, high))
            return f"{kind}{gap()}{n}", dynkin_gram(kind, n)
        if kind == "[":
            n = 2 * draw(st.integers(-4, 4).filter(bool))
            return f"[{gap()}{n}{gap()}]", [[n]]
        a, c = (2 * draw(st.integers(-4, 4)) for _ in range(2))
        b = draw(st.integers(-5, 5))
        return f"[{a},{gap()}{b}{gap()},{c}]", [[a, b], [b, c]]

    def term():
        text, gram = atom()
        for scale in draw(st.lists(st.integers(-3, 3).filter(bool), max_size=2)):
            text += f"{gap()}({gap()}{scale}{gap()})"
            gram = [[scale * x for x in row] for row in gram]
        count = draw(st.integers(1, 2))
        if count > 1 or draw(st.booleans()):
            star = draw(st.sampled_from(("", "*")))
            text = f"{count}{gap()}{star}{gap()}{text}"
            gram = blocks(*[gram] * count)
        return text, gram

    terms = [term() for _ in range(draw(st.integers(1, 3)))]
    text = f"{gap()}+{gap()}".join(t for t, _ in terms)
    return f"{gap()}{text}{gap()}", blocks(*(g for _, g in terms))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lattice_expressions())
def test_property_parser_round_trips_the_grammar(case):
    text, gram = case
    assert build_lattice(text).gram == tuple(map(tuple, gram))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="UADE[](),+*- 0123456789", max_size=16),
        st.text(max_size=8),
    )
)
def test_property_malformed_notation_raises_only_input_error(text):
    try:
        lattice = build_lattice(text)
    except InputError:
        return
    assert isinstance(lattice, Lattice)


def test_root_lattice_determinants_and_signatures():
    for n in range(1, 7):
        lat = build_lattice(f"A{n}")
        assert abs(lat.determinant) == n + 1
        assert lat.signature == (0, n, 0)
    for n in range(4, 8):
        assert abs(build_lattice(f"D{n}").determinant) == 4
    for n, d in ((6, 3), (7, 2), (8, 1)):
        lat = build_lattice(f"E{n}")
        assert abs(lat.determinant) == d
        assert lat.signature == (0, n, 0)


def test_lattice_rejects_bad_grams():
    with pytest.raises(ValueError):
        Lattice.from_rows([[1]])  # odd diagonal
    with pytest.raises(ValueError):
        Lattice.from_rows([[2, 1], [0, 2]])  # asymmetric
    with pytest.raises(ValueError):
        Lattice.from_rows([[2, 1]])  # not square


def test_signature_and_determinant_frozen():
    u = build_lattice("U")
    assert u.signature == (1, 1, 0)
    assert u.determinant == -1
    schur = build_lattice("[8,4,8]")
    assert schur.signature == (2, 0, 0)
    assert schur.determinant == 48
    k3 = build_lattice("2E8+3U")
    assert k3.rank == 22
    assert k3.signature == (3, 19, 0)
    assert k3.determinant == -1


def test_discriminant_frozen_examples():
    u2 = discriminant_form(build_lattice("U(2)"))
    assert u2.orders == (2, 2)
    assert u2.qvalues == (F(0), F(0))
    assert pairing(u2)[0][1] == F(1, 2)
    schur = discriminant_form(build_lattice("[8,4,8]"))
    assert schur.orders == (4, 12)
    assert discriminant_form(build_lattice("E8")).is_trivial()
    assert discriminant_form(build_lattice("[2]")).qvalues == (F(1, 2),)
    e7 = discriminant_form(build_lattice("E7"))
    assert e7.orders == (2,)
    assert e7.qvalues == (F(1, 2),)
    a2 = discriminant_form(build_lattice("A2"))
    assert a2.orders == (3,)
    assert a2.qvalues == (F(4, 3),)


def test_degenerate_gram_gives_the_form_of_the_lattice_it_generates():
    # e1 = e2 modulo the radical of [[2, 2], [2, 2]], so it generates [2];
    # a, b and a + b in A2 generate A2.  A degenerate lattice given as one
    # is refused by the `lattice` command, not here.
    for gram, spec in (
        (((2, 2), (2, 2)), "[2]"),
        (((-2, 1, -1), (1, -2, -1), (-1, -1, -2)), "A2"),
    ):
        form = discriminant_data(gram).form
        assert fqf_isometries(form, discriminant_form(build_lattice(spec)))


def _random_even_lattice(rng, max_rank=6, bound=8, det_cap=600):
    while True:
        n = rng.randrange(1, max_rank + 1)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randrange(-bound // 2, bound // 2 + 1)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randrange(-bound, bound + 1)
        lat = Lattice.from_rows(g)
        if lat.determinant != 0 and abs(lat.determinant) <= det_cap:
            return lat


def test_discriminant_identities_on_builtins_and_random():
    rng = random.Random(2024)
    pool = [build_lattice(s) for s in BUILTIN_SPECS]
    pool += [_random_even_lattice(rng) for _ in range(100)]
    for lat in pool:
        form = discriminant_form(lat)
        assert form.order() == abs(lat.determinant)
        negd = discriminant_form(lat.negated())
        assert negd.orders == form.orders
        if form.order() <= 400:
            assert fqf_isometries(negd, form.negated())
    for _ in range(25):
        a = _random_even_lattice(rng, max_rank=3, det_cap=20)
        b = _random_even_lattice(rng, max_rank=3, det_cap=20)
        ds = discriminant_form(a.direct_sum(b))
        expect = direct_sum(discriminant_form(a), discriminant_form(b))
        assert ds.order() == expect.order()
        assert fqf_isometries(ds, expect)


def test_coordinates_roundtrip():
    for spec in ("[8,4,8]", "U(2)+A2", "2U(3)"):
        data = discriminant_data(build_lattice(spec).gram)
        n = len(data.gram)
        duals = dual_vectors(data)
        for el in data.form.elements():
            vec = [
                sum(F(c) * duals[i][j] for i, c in enumerate(el))
                for j in range(n)
            ]
            assert coordinates(data, vec) == el


def test_coordinates_rejects_non_dual_vectors():
    data = discriminant_data(build_lattice("U(2)").gram)
    with pytest.raises(ValueError):
        coordinates(data, (F(1, 3), F(0)))


def test_act_pushes_isometries_to_the_form():
    schur = build_lattice("[8,4,8]")
    data = discriminant_data(schur.gram)
    group = orthogonal_group_definite(schur)
    ident = identity_isometry(schur)
    assert is_identity(discriminant_action(data, ident))
    minus = ident.negated()
    pushed = discriminant_action(data, minus)
    assert not is_identity(pushed)
    assert is_identity(pushed.compose(pushed))
    for g in group[:6]:
        for h in group[:6]:
            lhs = discriminant_action(data, compose_isometries(g, h))
            rhs = discriminant_action(data, g).compose(discriminant_action(data, h))
            assert lhs.columns == rhs.columns


def rational_act(data, isometry):
    """Columns of the induced automorphism by the rational route: each
    generator's dual vector pushed through the isometry in Fractions."""
    return tuple(
        coordinates(data, mat_vec(isometry.matrix, vec)) for vec in dual_vectors(data)
    )


def _isometries_of_double(lat):
    """Isometries of lat + lat: a sign on each summand, with or without the
    swap of the summands, and O(lat) on the first summand when lat is small
    and definite."""
    n = lat.rank
    double = lat.direct_sum(lat)
    out = []
    for s1, s2, swap in itertools.product((1, -1), (1, -1), (False, True)):
        m = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            if swap:
                m[n + i][i], m[i][n + i] = s1, s2
            else:
                m[i][i], m[n + i][n + i] = s1, s2
        out.append(Isometry(double, tuple(map(tuple, m))))
    if lat.is_definite():
        for g in orthogonal_group_definite(lat)[:8]:
            m = [list(row) + [0] * n for row in g.matrix]
            m += [[0] * n + row for row in identity(n)]
            out.append(Isometry(double, tuple(map(tuple, m))))
    return double, out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_property_integer_class_map_matches_the_rational_route(seed):
    rng = random.Random(seed)
    lat = _random_even_lattice(rng, max_rank=3, det_cap=60)
    data = discriminant_data(lat.gram)
    n = lat.rank
    duals = dual_vectors(data)
    for _ in range(10):
        # a dual vector with known coordinates, shifted by a lattice vector
        el = tuple(rng.randrange(-2 * d, 2 * d) for d in data.form.orders)
        w = [
            sum(c * duals[i][j] for i, c in enumerate(el))
            + rng.randrange(-3, 4)
            for j in range(n)
        ]
        pairings = [int(x) for x in mat_vec(lat.gram, w)]
        assert data.class_of(pairings) == coordinates(data, w) == data.form.reduce(el)
    double, isometries = _isometries_of_double(lat)
    data = discriminant_data(double.gram)
    for g in isometries:
        assert discriminant_action(data, g).columns == rational_act(data, g)


def test_orthogonal_group_frozen_orders():
    assert len(orthogonal_group_definite(build_lattice("[2]"))) == 2
    assert len(orthogonal_group_definite(build_lattice("[8,4,8]"))) == 12
    assert len(orthogonal_group_definite(build_lattice("A2"))) == 12
    assert len(orthogonal_group_definite(build_lattice("A3"))) == 48


def test_orthogonal_group_norm_vector_oracle():
    # Six norm-8 vectors in [8,4,8]; every isometry permutes them, and the
    # backtracking search over those assignments gives exactly the group.
    schur = build_lattice("[8,4,8]")
    vectors = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if norm(schur, (x, y)) == 8
    ]
    assert len(vectors) == 6
    oracle = 0
    for a in vectors:
        for b in vectors:
            if schur.pairing(a, b) == 4:
                oracle += 1
    assert oracle == len(orthogonal_group_definite(schur))


def test_orthogonal_group_axioms():
    for spec in ("A2", "[8,4,8]", "[2]+[2]"):
        lat = build_lattice(spec)
        group = orthogonal_group_definite(lat)
        mats = {g.matrix for g in group}
        n = lat.rank
        ident = tuple(tuple(r) for r in identity(n))
        assert ident in mats
        assert tuple(tuple(-x for x in row) for row in ident) in mats
        for g in group:
            assert inverse_isometry(g).matrix in mats
            for h in group[:5]:
                assert compose_isometries(g, h).matrix in mats


def test_orthogonal_group_rejections():
    with pytest.raises(ValueError):
        orthogonal_group_definite(build_lattice("U"))
    with pytest.raises(ValueError):
        orthogonal_group_definite(build_lattice("5[2]"))
    with pytest.raises(ValueError):
        orthogonal_group_definite(build_lattice("E6"))


def _swap_of_u() -> Isometry:
    return Isometry(build_lattice("U"), ((0, 1), (1, 0)))


def _summand_swap_2u() -> Isometry:
    lat = build_lattice("2U")
    mat = (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    return Isometry(lat, mat)


def test_sign_structure_frozen():
    u = build_lattice("U")
    ident = identity_isometry(u)
    assert sign_structure_action(u, ident) == 1
    assert sign_structure_action(u, ident.negated()) == -1
    two_u = build_lattice("2U")
    assert sign_structure_action(two_u, _summand_swap_2u()) == -1
    a2 = build_lattice("A2")
    assert sign_structure_action(a2, identity_isometry(a2).negated()) == 1
    two = build_lattice("[2]")
    assert sign_structure_action(two, identity_isometry(two).negated()) == -1


def test_sign_structure_homomorphism_on_2u():
    lat = build_lattice("2U")
    ident = identity_isometry(lat)
    gens = [
        ident.negated(),
        _summand_swap_2u(),
        Isometry(lat, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
        Isometry(lat, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))),
    ]
    rng = random.Random(17)

    def random_word():
        out = ident
        for _ in range(rng.randrange(1, 6)):
            out = compose_isometries(out, rng.choice(gens))
        return out

    for _ in range(30):
        g, h = random_word(), random_word()
        assert sign_structure_action(
            lat, compose_isometries(g, h)
        ) == sign_structure_action(lat, g) * sign_structure_action(lat, h)


def test_invariant_sublattice_frozen():
    u = build_lattice("U")
    fixed, basis = invariant_sublattice(u, _swap_of_u())
    assert fixed.gram == ((2,),)
    assert basis in ([[1, 1]], [[-1, -1]])
    two_u = build_lattice("2U")
    fixed, _ = invariant_sublattice(two_u, _summand_swap_2u())
    assert invariants_match(fixed, build_lattice("U(2)"))
    whole, _ = invariant_sublattice(u, identity_isometry(u))
    assert invariants_match(whole, u)
    nothing, basis = invariant_sublattice(u, identity_isometry(u).negated())
    assert nothing.rank == 0
    assert basis == []


def test_invariant_sublattice_rejects_non_involutions():
    a2 = build_lattice("A2")
    rot = Isometry(a2, ((0, -1), (1, -1)))  # order 3
    with pytest.raises(ValueError):
        invariant_sublattice(a2, rot)


def test_invariant_rank_additivity():
    lat = build_lattice("2U")
    involutions = [
        identity_isometry(lat),
        identity_isometry(lat).negated(),
        _summand_swap_2u(),
        _summand_swap_2u().negated(),
    ]
    for g in involutions:
        plus, _ = invariant_sublattice(lat, g)
        minus, _ = invariant_sublattice(lat, g.negated())
        assert plus.rank + minus.rank == lat.rank
        if plus.rank:
            assert plus.determinant != 0
        if minus.rank:
            assert minus.determinant != 0


def test_invariants_match_distinguishes_rank2_pairs():
    assert not invariants_match(build_lattice("U(2)"), build_lattice("[2]+[-2]"))
    assert invariants_match(build_lattice("A2(-4)"), build_lattice("[8,4,8]"))
    assert invariants_match(build_lattice("U"), build_lattice("U"))


def test_milgram_on_builtins():
    for spec in BUILTIN_SPECS:
        lat = build_lattice(spec)
        plus, minus, zero = lat.signature
        assert zero == 0, spec
        assert brown_invariant(discriminant_form(lat)) == (plus - minus) % 8, spec


def test_isometry_validation():
    u = build_lattice("U")
    with pytest.raises(ValueError):
        Isometry(u, ((1, 1), (0, 1)))
