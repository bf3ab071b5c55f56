"""Tests for line configurations: Fano gram matrices, fragment enumeration,
polarized stabilizers, and real-structure candidate screening.

The brute-force oracles here re-derive fragment sets by exhaustive subset
search and module membership by Smith reduction, independently of the
production code paths.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3lines import fano, intmat, lattices
from k3lines.errors import CapExceeded, InputError
from k3lines.fano import (
    Analysis,
    LineConfiguration,
    catalog_graph,
    catalog_names,
    classify_fragment,
    enumerate_fragments,
)
from k3lines.fqf import isotropic_quotient, solve_mod, subgroup_form
from k3lines.gluing import (
    ADMISSIBLE,
    INADMISSIBLE,
    UNKNOWN,
    FqfIsometry,
    Isometry,
    discriminant_action,
    find_isometry,
    minus_identity_isometry,
)
from k3lines.intmat import (
    integral_kernel,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    smith_decompose,
    transpose,
)
from k3lines.lattices import (
    Definite2,
    GenericDiscr,
    Lattice,
    TwoU,
    discriminant_data,
)
from k3lines.multigraph import (
    Multigraph,
    PermutationGroup,
    compose_perm,
    graph_automorphism_group,
    invert_perm,
)

from helpers import (
    b_of,
    class_sum_in_radical,
    dual_vectors,
    group_contains,
    group_elements,
    kernel_vectors,
    matrix_rank,
    q_of,
    read_configuration,
    relabel,
)


def empty_graph(n: int) -> Multigraph:
    return Multigraph(tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def disjoint_union(*graphs: Multigraph, extra=()) -> Multigraph:
    """The graphs side by side, then the (i, j, multiplicity) edges of
    `extra` on the combined labels."""
    n = sum(g.n for g in graphs)
    mult = [[0] * n for _ in range(n)]
    offset = 0
    for g in graphs:
        for i in range(g.n):
            for j in range(g.n):
                mult[offset + i][offset + j] = g.mult[i][j]
        offset += g.n
    for i, j, m in extra:
        mult[i][j] = mult[j][i] = m
    return Multigraph(tuple(tuple(row) for row in mult))


def two_prisms() -> Multigraph:
    return disjoint_union(catalog_graph("prism"), catalog_graph("prism"))


def prism_plus_k33() -> Multigraph:
    return disjoint_union(catalog_graph("prism"), catalog_graph("K33"))


def random_configuration(rng: random.Random) -> LineConfiguration:
    n = rng.randrange(2, 11)
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = rng.choice((0, 0, 0, 1, 1, 2, 3))
    graph = Multigraph(tuple(tuple(row) for row in mult))
    degree = rng.choice((2, 4, 6, 8))
    return LineConfiguration(degree, graph)


def brute_force_fragments(cfg: LineConfiguration) -> list[tuple[int, ...]]:
    """All vertex subsets of size 2d whose intra-subset weighted valency is
    exactly three at every member."""
    graph = cfg.graph
    out = []
    if cfg.degree > graph.n:
        return out
    for subset in combinations(range(graph.n), cfg.degree):
        ok = True
        for v in subset:
            if sum(graph.mult[v][w] for w in subset) != 3:
                ok = False
                break
        if ok:
            out.append(subset)
    return out


def all_elements_involution_classes(group) -> list[tuple[int, ...]]:
    """Least representatives of the involution classes, in increasing
    order, by conjugating each involution with every group element."""
    elems = list(group)
    ident = tuple(range(len(elems[0])))
    invs = [g for g in elems if compose_perm(g, g) == ident]
    seen: set[tuple[int, ...]] = set()
    reps = []
    for g in sorted(invs):
        if g in seen:
            continue
        seen |= {
            compose_perm(compose_perm(a, g), invert_perm(a)) for a in elems
        }
        reps.append(g)
    return reps


def in_integer_span(rows, vec) -> bool:
    """vec lies in the Z-span of the rational rows (Smith reduction)."""
    denom = 1
    for row in rows:
        for x in row:
            denom = denom * Fraction(x).denominator // __import__(
                "math"
            ).gcd(denom, Fraction(x).denominator)
    for x in vec:
        denom = denom * Fraction(x).denominator // __import__("math").gcd(
            denom, Fraction(x).denominator
        )
    a = [[int(Fraction(x) * denom) for x in row] for row in rows]
    target = [int(Fraction(x) * denom) for x in vec]
    # x in row-span(a) iff A^T y = x^T has an integer solution
    at = [[a[r][c] for r in range(len(a))] for c in range(len(a[0]))]
    s, u, _ = smith_decompose(at)
    c = [
        sum(u[i][j] * target[j] for j in range(len(target)))
        for i in range(len(u))
    ]
    for i in range(len(at)):
        pivot = s[i][i] if i < len(s) and i < len(s[i]) else 0
        if pivot:
            if c[i] % pivot:
                return False
        elif c[i]:
            return False
    return True


class TestLineConfigurationValidation:
    def test_rejects_odd_degree(self):
        with pytest.raises(InputError):
            LineConfiguration(3, catalog_graph("K33"))

    def test_rejects_degree_below_two(self):
        with pytest.raises(InputError):
            LineConfiguration(0, catalog_graph("K33"))

    def test_rejects_multiplicity_above_three(self):
        g = Multigraph.from_edges(2, [(0, 1, 4)])
        with pytest.raises(InputError):
            LineConfiguration(2, g)

    def test_rejects_wrong_kernel_length(self):
        g = catalog_graph("K33")
        with pytest.raises(InputError):
            LineConfiguration(6, g, kernel=((Fraction(1, 2),) * 6,))

    def test_rejects_non_integral_kernel_pairing(self):
        g = empty_graph(2)
        # pairing of e0/2 with h is 1/2
        vec = (Fraction(1, 2), 0, 0)
        with pytest.raises(InputError):
            LineConfiguration(2, g, kernel=(vec,))

    def test_rejects_odd_kernel_square(self):
        g = empty_graph(2)
        # (e0 + e1)/2 pairs integrally but has square -1
        vec = (Fraction(1, 2), Fraction(1, 2), 0)
        with pytest.raises(InputError):
            LineConfiguration(2, g, kernel=(vec,))

    def test_accepts_valid_kernel(self):
        g = empty_graph(4)
        vec = (Fraction(1, 2),) * 4 + (0,)
        cfg = LineConfiguration(2, g, kernel=(vec,))
        assert cfg.line_count == 4

    def test_rejects_fractional_cross_pairing(self):
        g = empty_graph(4)
        v1 = (Fraction(1, 2),) * 4 + (0,)
        v2 = (Fraction(1, 4),) * 4 + (0,)
        with pytest.raises(InputError):
            LineConfiguration(2, g, kernel=(v1, v2))


class TestFanoLattice:
    def test_single_line_on_a_quadric(self):
        g = empty_graph(1)
        data = Analysis(LineConfiguration(2, g))
        assert data.gram == ((-2, 1), (1, 2))
        assert len(data.gram) - data.rank_n == 0
        assert data.quotient_signature == (1, 1)
        assert data.warnings == ()

    def test_k33_radical_and_signature(self):
        # a radical of rank 1 holding the primitive vector (1, ..., 1, -1)
        # is spanned by it: the six lines sum to h
        data = Analysis(LineConfiguration(6, catalog_graph("K33")))
        assert len(data.gram) - data.rank_n == 1
        assert mat_vec(data.gram, (1, 1, 1, 1, 1, 1, -1)) == [0] * 7
        assert data.quotient_signature == (1, 5)
        assert data.warnings == ()

    def test_prism_radical_and_signature(self):
        data = Analysis(LineConfiguration(6, catalog_graph("prism")))
        assert len(data.gram) - data.rank_n == 1
        assert data.quotient_signature == (1, 5)
        assert data.warnings == ()

    def test_disjoint_union_not_hyperbolic(self):
        data = Analysis(LineConfiguration(6, prism_plus_k33()))
        assert data.quotient_signature == (2, 11)
        assert len(data.warnings) == 1
        assert "no polarized K3" in data.warnings[0]


class TestClassSumInRadical:
    def test_k33_full_vertex_set(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        assert class_sum_in_radical(cfg, range(6))

    def test_k33_proper_subset(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        assert not class_sum_in_radical(cfg, (0, 1, 2))

    def test_fragment_sum_need_not_be_radical(self):
        # inside a disjoint union the K33 block is a fragment, yet its class
        # sum pairs nontrivially with the other component
        cfg = LineConfiguration(6, two_prisms())
        assert not class_sum_in_radical(cfg, range(6))

    def test_rejects_vertices_outside_the_lines(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        for bad in ((0, 6), (-1, 2), (0, 1, 2, 3, 4, 5, 6)):
            with pytest.raises(InputError, match="outside 0..5"):
                class_sum_in_radical(cfg, bad)

    def test_matches_the_rank_of_the_stacked_radical(self):
        # the radical of the Fano form by Smith reduction, and x in it
        # exactly when stacking x on it leaves the rank unchanged
        rng = random.Random(98)
        configs = [
            LineConfiguration(degree, catalog_graph(name))
            for name, degree in TestFragmentEnumeration.HOME.items()
        ]
        for _ in range(40):
            n = rng.randrange(2, 8)
            mult = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    mult[i][j] = mult[j][i] = rng.choice((0, 1, 1, 2))
            configs.append(LineConfiguration(
                rng.choice((2, 4, 6)), Multigraph(tuple(map(tuple, mult)))
            ))
        seen = {True: 0, False: 0}
        for cfg in configs:
            n = cfg.graph.n
            radical = integral_kernel(fano_gram(cfg))
            for size in range(n + 1):
                for subset in combinations(range(n), size):
                    x = [int(v in subset) for v in range(n)] + [-1]
                    want = matrix_rank(radical + [x]) == matrix_rank(radical)
                    assert class_sum_in_radical(cfg, subset) == want
                    seen[want] += 1
        assert seen[True] >= 3

    def test_sum_condition_forces_a_fragment(self):
        rng = random.Random(97)
        checked = 0
        # connected cubic catalog graphs: the full vertex set qualifies
        for name, degree in TestFragmentEnumeration.HOME.items():
            graph = catalog_graph(name)
            cfg = LineConfiguration(degree, graph)
            full = tuple(range(graph.n))
            if class_sum_in_radical(cfg, full):
                assert graph.n == degree
                assert full in {f.vertices for f in enumerate_fragments(cfg)}
                checked += 1
        for _ in range(60):
            n = rng.randrange(2, 8)
            mult = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    mult[i][j] = mult[j][i] = rng.choice((0, 0, 1, 1, 2, 3))
            graph = Multigraph(tuple(tuple(r) for r in mult))
            degree = rng.choice((2, 4, 6))
            cfg = LineConfiguration(degree, graph)
            fragset = {f.vertices for f in enumerate_fragments(cfg)}
            for size in range(1, n + 1):
                for subset in combinations(range(n), size):
                    if class_sum_in_radical(cfg, subset):
                        assert size == degree
                        assert subset in fragset
                        checked += 1
        assert checked >= 3


class TestFragmentEnumeration:
    HOME = {
        "tritangent-pair": 2,
        "K4": 4,
        "prism": 6,
        "K33": 6,
        "K3+K32": 8,
        "wagner": 8,
        "cube": 8,
    }

    def test_catalog_graphs_at_home_degree(self):
        for name, degree in self.HOME.items():
            graph = catalog_graph(name)
            frs = enumerate_fragments(LineConfiguration(degree, graph))
            assert len(frs) == 1, name
            assert frs[0].vertices == tuple(range(graph.n))
            assert frs[0].type_label == name

    def test_k33_at_wrong_degree(self):
        cfg = LineConfiguration(8, catalog_graph("K33"))
        assert enumerate_fragments(cfg) == []

    def test_empty_graph_has_no_fragments(self):
        cfg = LineConfiguration(6, empty_graph(6))
        assert enumerate_fragments(cfg) == []

    def test_disjoint_union_finds_both(self):
        frs = enumerate_fragments(LineConfiguration(6, prism_plus_k33()))
        assert [(f.vertices, f.type_label) for f in frs] == [
            (tuple(range(6)), "prism"),
            (tuple(range(6, 12)), "K33"),
        ]

    def test_two_prisms(self):
        frs = enumerate_fragments(LineConfiguration(6, two_prisms()))
        assert [f.vertices for f in frs] == [
            tuple(range(6)),
            tuple(range(6, 12)),
        ]
        assert {f.type_label for f in frs} == {"prism"}

    def test_matches_brute_force(self):
        rng = random.Random(20260818)
        for trial in range(220):
            cfg = random_configuration(rng)
            got = enumerate_fragments(cfg)
            assert [f.vertices for f in got] == brute_force_fragments(
                cfg
            ), trial
            for fr in got:
                sub = cfg.graph.induced(fr.vertices)
                assert fr.type_label == classify_fragment(sub)

    # Fragments with several components: the search starts each component
    # at its lowest vertex, so relabelings interleave the components.
    MULTI_COMPONENT = {
        "five tritangent pairs": disjoint_union(
            *[catalog_graph("tritangent-pair")] * 5
        ),
        "K4 and three tritangent pairs": disjoint_union(
            catalog_graph("K4"), *[catalog_graph("tritangent-pair")] * 3
        ),
        # three K4 on 0-3, 4-7, 8-11 with one edge between the last two;
        # lines 12 and 13 meet one vertex of every K4
        "three K4 with cross edges": disjoint_union(
            *[catalog_graph("K4")] * 3,
            empty_graph(2),
            extra=[(5, 9, 1)] + [(12, v, 1) for v in (0, 4, 8)]
            + [(13, v, 1) for v in (1, 6, 11)],
        ),
        # two K4 on 0-3 and 4-7; lines 8-11 close up to a 3-regular piece
        # only through two more edges into the first K4
        "two K4 and a cap on one": disjoint_union(
            *[catalog_graph("K4")] * 2,
            empty_graph(4),
            extra=[(8, 9, 1), (9, 10, 1), (9, 11, 1), (10, 11, 2),
                   (0, 8, 1), (1, 8, 1)],
        ),
        "prism, K4 and a tritangent pair": disjoint_union(
            catalog_graph("prism"),
            catalog_graph("K4"),
            catalog_graph("tritangent-pair"),
            extra=[(0, 6, 1)],
        ),
    }

    def test_multi_component_fragments_match_brute_force(self):
        rng = random.Random(8)
        counts = {}
        for name, graph in self.MULTI_COMPONENT.items():
            for trial in range(6):
                perm = list(range(graph.n))
                if trial:
                    rng.shuffle(perm)
                cfg = LineConfiguration(8, relabel(graph, perm))
                got = [f.vertices for f in enumerate_fragments(cfg)]
                assert got == brute_force_fragments(cfg), (name, trial)
                counts[name] = len(got)
        assert counts == {
            "five tritangent pairs": 5,
            "K4 and three tritangent pairs": 3,
            "three K4 with cross edges": 2,
            "two K4 and a cap on one": 1,
            "prism, K4 and a tritangent pair": 1,
        }

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sampled_from((0, 0, 0, 1, 1, 2, 3)),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                ),
            )
        ),
        st.sampled_from((2, 4, 6, 8)),
    )
    def test_property_matches_brute_force(self, graph_data, degree):
        n, flat = graph_data
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graph = Multigraph.from_edges(
            n, [(i, j, m) for (i, j), m in zip(pairs, flat) if m]
        )
        cfg = LineConfiguration(degree, graph)
        got = [f.vertices for f in enumerate_fragments(cfg)]
        assert got == brute_force_fragments(cfg)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from(("tritangent-pair", "K4", "prism", "K33")),
            min_size=1,
            max_size=4,
        ).filter(lambda names: sum(catalog_graph(x).n for x in names) <= 14),
        st.lists(
            st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=3
        ),
        st.randoms(use_true_random=False),
        st.sampled_from((4, 6, 8)),
    )
    def test_property_unions_of_fragments_match_brute_force(
        self, names, extra, rng, degree
    ):
        graph = disjoint_union(*map(catalog_graph, names))
        extra = {
            (min(i, j), max(i, j), 1)
            for i, j in extra
            if i != j and max(i, j) < graph.n and not graph.mult[i][j]
        }
        graph = disjoint_union(graph, extra=sorted(extra))
        perm = list(range(graph.n))
        rng.shuffle(perm)
        cfg = LineConfiguration(degree, relabel(graph, perm))
        got = [f.vertices for f in enumerate_fragments(cfg)]
        assert got == brute_force_fragments(cfg)


class TestClassifyFragment:
    def test_rejects_non_regular(self):
        with pytest.raises(InputError):
            classify_fragment(empty_graph(3))

    def test_relabeled_prism(self):
        g = catalog_graph("prism")
        perm = (3, 5, 1, 0, 4, 2)
        assert classify_fragment(relabel(g, perm)) == "prism"

    def test_unknown_type_reports_certificate(self):
        # Petersen graph: cubic, not in the catalog
        edges = [(i, (i + 1) % 5, 1) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
        edges += [(i, i + 5, 1) for i in range(5)]
        petersen = Multigraph.from_edges(10, edges)
        label = classify_fragment(petersen)
        assert label.startswith("10|")
        assert label not in catalog_names()

    def test_certifies_only_catalog_graphs_of_the_fragment_size(self):
        fano._catalog_certificates.cache_clear()
        assert classify_fragment(catalog_graph("K4")) == "K4"
        assert sorted(fano._catalog_certificates(4).values()) == ["K4"]
        assert fano._catalog_certificates.cache_info().currsize == 1
        for name in catalog_names():
            assert classify_fragment(catalog_graph(name)) == name
        assert sorted(fano._catalog_certificates(8).values()) == [
            "K3+K32", "cube", "wagner"
        ]


class TestGraphInvariants:
    """(lines-Gram rank, girth, |Aut|), the invariants `fragments` prints,
    as items of the `Analysis`."""

    EXPECTED = {
        "tritangent-pair": (2, 2, 2),
        "K4": (4, 3, 24),
        "prism": (6, 3, 12),
        "K33": (6, 4, 72),
        "K3+K32": (8, 3, 12),
        "wagner": (8, 4, 16),
        "cube": (8, 4, 48),
    }

    @staticmethod
    def invariants(graph):
        analysis = Analysis(LineConfiguration(2, graph))
        return (analysis.lines_rank, analysis.girth, analysis.automorphisms.order())

    def test_catalog_values(self):
        for name, triple in self.EXPECTED.items():
            assert self.invariants(catalog_graph(name)) == triple, name

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 14), st.randoms(use_true_random=False))
    def test_rank_matches_the_smith_form(self, n, rng):
        # the rank is read off the inertia; the Smith form is the oracle
        mult = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            mult[i][j] = mult[j][i] = rng.choice((0, 0, 0, 1, 1, 2, 3))
        graph = Multigraph(tuple(map(tuple, mult)))
        lines_gram = [
            [-2 if i == j else mult[i][j] for j in range(n)] for i in range(n)
        ]
        analysis = Analysis(LineConfiguration(2, graph))
        assert analysis.lines_rank == matrix_rank(lines_gram)


K33_ISOTROPIC_KERNEL = (
    Fraction(0),
    Fraction(-1, 2),
    Fraction(-1, 2),
    Fraction(-1, 2),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(0),
)


class TestPolarizedStabilizer:
    def test_empty_kernel_skips_enumeration(self):
        analysis = Analysis(LineConfiguration(6, catalog_graph("K33")))
        stab = analysis.stabilizer
        assert stab is analysis.automorphisms
        assert 2 * stab.order() == 144
        assert group_contains(stab, (1, 0, 2, 4, 3, 5))

    def test_invariant_kernel_keeps_full_group(self):
        # (sum of lines - h)/2 lies in the radical's rational span, so its
        # discriminant class is trivial and every automorphism survives
        vec = tuple([Fraction(1, 2)] * 6 + [Fraction(-1, 2)])
        analysis = Analysis(
            LineConfiguration(6, catalog_graph("K33"), kernel=(vec,))
        )
        stab = analysis.stabilizer
        assert stab is not analysis.automorphisms
        assert 2 * stab.order() == 144

    def test_symmetry_breaking_kernel(self):
        cfg = LineConfiguration(
            6, catalog_graph("K33"), kernel=(K33_ISOTROPIC_KERNEL,)
        )
        stab = Analysis(cfg).stabilizer
        assert isinstance(stab, PermutationGroup)
        assert 2 * stab.order() == 16
        assert len(group_elements(stab)) == 8

    def test_symmetry_breaking_kernel_against_module_oracle(self):
        # a permutation preserves the extension exactly when it maps the
        # glue vector into the extended module and conversely
        for degree, graph, kernel in (
            (6, catalog_graph("K33"), K33_ISOTROPIC_KERNEL),
            # lines 0-3 of an edgeless graph tied together by a half-sum
            (2, empty_graph(6), (Fraction(1, 2),) * 4 + (Fraction(0),) * 3),
        ):
            cfg = LineConfiguration(degree, graph, kernel=(kernel,))
            stab = Analysis(cfg).stabilizer
            group = graph_automorphism_group(cfg.graph)
            m = graph.n + 1
            basis = [
                [1 if i == j else 0 for j in range(m)] for i in range(m)
            ]
            expected = set()
            assert group.order() <= 1000
            for perm in group_elements(group):
                full = list(perm) + [m - 1]
                moved = [Fraction(0)] * m
                for i in range(m):
                    moved[full[i]] = kernel[i]
                fwd = in_integer_span(basis + [list(kernel)], moved)
                back = in_integer_span(basis + [moved], list(kernel))
                if fwd and back:
                    expected.add(perm)
            assert set(group_elements(stab)) == expected

    def test_involution_classes_match_all_elements_conjugation(self):
        # S7, kernel-free, so the orbits run under the chain generators
        analysis = Analysis(LineConfiguration(2, empty_graph(7)))
        stab = analysis.stabilizer
        assert stab is analysis.automorphisms
        assert 2 * stab.order() == 2 * 5040
        reps = list(analysis.involution_classes)
        # identity and one, two and three disjoint transpositions
        assert len(reps) == 4
        assert reps == all_elements_involution_classes(group_elements(stab))

    def test_fermat_involution_classes_match_all_elements_conjugation(self):
        # |Aut| = 6144, kernel-free: 28 classes under the strong generators
        analysis = Analysis(
            read_configuration(Path(__file__).parent / "data" / "fermat48.json")
        )
        stab = analysis.stabilizer
        assert stab is analysis.automorphisms
        assert 2 * stab.order() == 2 * 6144
        reps = list(analysis.involution_classes)
        assert len(reps) == 28
        assert reps == all_elements_involution_classes(group_elements(stab))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edgeless_involution_classes_are_the_cycle_types(self, n):
        # Sym(n): the product of k disjoint transpositions, k = 0..n/2, a
        # class of n! / (2^k k! (n-2k)!) involutions
        analysis = Analysis(LineConfiguration(2, empty_graph(n)))
        stab = analysis.stabilizer
        reps = analysis.involution_classes
        assert len(reps) == n // 2 + 1
        moved = lambda g: sum(x != i for i, x in enumerate(g)) // 2
        assert sorted(map(moved, reps)) == list(range(n // 2 + 1))
        invs = stab.involutions()
        for k in range(n // 2 + 1):
            assert sum(moved(g) == k for g in invs) == math.factorial(n) // (
                2**k * math.factorial(k) * math.factorial(n - 2 * k)
            )

    def test_involution_classes_under_subgroup_generators(self):
        # kernel stabilizers: the glued K33, and the lines 0-3 of an
        # edgeless graph tied together by a half-sum
        half = tuple([Fraction(1, 2)] * 4 + [Fraction(0)] * 3)
        for cfg in (
            read_configuration(
                Path(__file__).parent.parent / "corpus" / "k33_glued.json"
            ),
            LineConfiguration(2, empty_graph(6), kernel=(half,)),
        ):
            analysis = Analysis(cfg)
            stab = analysis.stabilizer
            assert stab is not analysis.automorphisms
            gens = stab.strong
            assert 2 ** len(gens) <= len(group_elements(stab))
            closure = {tuple(range(cfg.graph.n))}
            frontier = list(closure)
            for x in frontier:
                for g in gens:
                    y = compose_perm(x, g)
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            assert closure == set(group_elements(stab))
            assert list(analysis.involution_classes) == (
                all_elements_involution_classes(group_elements(stab))
            )

    def test_half_sums_on_eight_lines_against_every_permutation(self):
        # lines 0-3 and 4-7 each tied by a half-sum: S = S4 wr S2, found
        # without listing the 40,320 elements of Aut = Sym(8)
        cfg = read_configuration(Path(__file__).parent / "data" / "halves8.json")
        analysis = Analysis(cfg)
        kept = sorted(DescentRoute(cfg).stabilizer(permutations(range(8))))
        assert analysis.stabilizer.order() == len(kept) == 1152
        assert group_elements(analysis.stabilizer) == kept
        reps = list(analysis.involution_classes)
        assert len(reps) == 7
        assert reps == all_elements_involution_classes(kept)

    def test_half_sum_on_eight_lines_against_every_permutation(self):
        # lines 0-3 tied by one half-sum: S = S4 x S4, found although each
        # of b_0's four images outside its orbit heads a coset of 7!
        # automorphisms with no kept element; the chain asks for one of
        # them and skips the other three, which lie in its orbit under
        # the strong generators found by then
        cfg = read_configuration(Path(__file__).parent / "data" / "half8.json")
        analysis = Analysis(cfg)
        kept = sorted(DescentRoute(cfg).stabilizer(permutations(range(8))))
        assert analysis.stabilizer.order() == len(kept) == 576
        assert group_elements(analysis.stabilizer) == kept
        reps = list(analysis.involution_classes)
        assert len(reps) == 9
        assert reps == all_elements_involution_classes(kept)

    def test_enumeration_cap_is_honest(self):
        vec = tuple([Fraction(1, 2)] * 4 + [Fraction(0)] * 9)
        cfg = LineConfiguration(2, empty_graph(12), kernel=(vec,))
        with pytest.raises(CapExceeded, match="polarized stabilizer"):
            Analysis(cfg).stabilizer


class TestCountFragmentsUnder:
    def test_k33_identity(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        assert Analysis(cfg).count_fragments_under(tuple(range(6))) == (1, 1)

    def test_prism_triangle_swap(self):
        cfg = LineConfiguration(6, catalog_graph("prism"))
        assert Analysis(cfg).count_fragments_under((3, 4, 5, 0, 1, 2)) == (1, 0)

    def test_two_prisms_component_swap(self):
        cfg = LineConfiguration(6, two_prisms())
        analysis = Analysis(cfg)
        swap = tuple(list(range(6, 12)) + list(range(6)))
        assert analysis.count_fragments_under(swap) == (0, 0)
        assert analysis.count_fragments_under(tuple(range(12))) == (2, 2)

    def test_rejects_non_involution(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        with pytest.raises(InputError):
            Analysis(cfg).count_fragments_under((1, 2, 0, 3, 4, 5))

    def test_rejects_non_automorphism(self):
        cfg = LineConfiguration(6, catalog_graph("prism"))
        # transposing one vertex across the triangles is involutive but
        # does not preserve the graph
        with pytest.raises(InputError):
            Analysis(cfg).count_fragments_under((3, 1, 2, 0, 4, 5))

    def test_rejects_wrong_length(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        with pytest.raises(InputError):
            Analysis(cfg).count_fragments_under((0, 1))

    def test_conjugation_invariance(self):
        rng = random.Random(41)
        for name in ("prism", "K33", "cube"):
            graph = catalog_graph(name)
            degree = self_home = TestFragmentEnumeration.HOME[name]
            analysis = Analysis(LineConfiguration(degree, graph))
            group = graph_automorphism_group(graph)
            assert group.order() <= 1000
            elems = group_elements(group)
            involutions = [
                g
                for g in elems
                if compose_perm(g, g) == tuple(range(graph.n))
            ]
            for sigma in involutions:
                base = analysis.count_fragments_under(sigma)
                for _ in range(4):
                    a = rng.choice(elems)
                    conj = compose_perm(
                        compose_perm(a, sigma), invert_perm(a)
                    )
                    assert analysis.count_fragments_under(conj) == base


def candidates(cfg):
    """The candidates of cfg against its own transcendental spec."""
    return Analysis(cfg).real_structure_candidates(cfg.transcendental)


TRIANGLE = Multigraph(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
MIXED_TRIPLE = Multigraph(((0, 1, 2), (1, 0, 2), (2, 2, 0)))


class TestRealStructureCandidates:
    def test_k33_without_transcendental_data(self):
        cfg = LineConfiguration(6, catalog_graph("K33"))
        cands = candidates(cfg)
        assert len(cands) == 4
        perms = [c.isometry.permutation for c in cands]
        assert perms == sorted(perms)
        assert all(c.isometry.sign == -1 for c in cands)
        first = cands[0]
        assert first.isometry.permutation == tuple(range(6))
        assert first.admissibility == ADMISSIBLE
        assert first.reason == "screening rules: YES_CONTAINS_2"
        assert (first.num_r, first.num_rr) == (1, 1)
        for cand in cands[1:]:
            assert cand.admissibility == UNKNOWN
            assert "no transcendental data" in cand.reason
            assert (cand.num_r, cand.num_rr) == (1, 0)

    def test_candidates_are_involutive_automorphisms(self):
        cfg = LineConfiguration(6, catalog_graph("prism"))
        group = graph_automorphism_group(cfg.graph)
        for cand in candidates(cfg):
            p = cand.isometry.permutation
            assert compose_perm(p, p) == tuple(range(6))
            assert group_contains(group, p)

    def test_matched_definite_form_splits_candidates(self):
        # det N = -27 and the positive partner is the 3-scaled hexagonal
        # plane; only the line swap glues to one of its reflections
        spec = Definite2(Lattice(((6, 3), (3, 6))))
        cfg = LineConfiguration(6, TRIANGLE, transcendental=spec)
        cands = candidates(cfg)
        by_perm = {c.isometry.permutation: c for c in cands}
        assert set(by_perm) == {(0, 1, 2), (0, 2, 1)}
        assert by_perm[(0, 1, 2)].admissibility == INADMISSIBLE
        assert "no anti-isometry carries" in by_perm[(0, 1, 2)].reason
        assert by_perm[(0, 2, 1)].admissibility == ADMISSIBLE
        assert any("rank 2 differs" in n for n in cands[0].notes)

    def test_matched_hexagonal_plane_admits_both(self):
        spec = Definite2(Lattice(((2, 1), (1, 2))))
        cfg = LineConfiguration(2, MIXED_TRIPLE, transcendental=spec)
        cands = candidates(cfg)
        assert len(cands) == 2
        assert all(c.admissibility == ADMISSIBLE for c in cands)

    def test_genus_mismatch_is_inadmissible(self):
        # |D_N| = 80 for K33 while 2U(3) has discriminant order 81
        cfg = LineConfiguration(
            6, catalog_graph("K33"), transcendental=TwoU(3)
        )
        cands = candidates(cfg)
        assert len(cands) == 4
        for cand in cands:
            assert cand.admissibility == INADMISSIBLE
            assert "genus mismatch" in cand.reason
            assert any("differs from 22 - rank N" in n for n in cand.notes)

    def test_generic_discriminant_stays_unknown(self):
        analysis = Analysis(LineConfiguration(6, catalog_graph("K33")))
        spec = GenericDiscr(analysis.dn, 16)
        cfg = LineConfiguration(
            6, catalog_graph("K33"), transcendental=spec
        )
        for cand in candidates(cfg):
            assert cand.admissibility == UNKNOWN
            assert "no usable transcendental representative" in cand.reason

    def test_warnings_propagate_to_notes(self):
        cfg = LineConfiguration(6, prism_plus_k33())
        cands = candidates(cfg)
        assert cands
        assert all(
            any("no polarized K3" in n for n in c.notes) for c in cands
        )

    def test_count_inequalities_on_random_configurations(self):
        rng = random.Random(59)
        seen = 0
        for _ in range(25):
            cfg = random_configuration(rng)
            num_c = len(enumerate_fragments(cfg))
            try:
                cands = candidates(cfg)
            except CapExceeded:
                continue
            for cand in cands:
                assert 0 <= cand.num_rr <= cand.num_r <= num_c
                seen += 1
        assert seen >= 10

    def test_rank_constraint(self):
        # 22 lines in general position push rank N past 21
        n = 22
        cfg = LineConfiguration(2, empty_graph(n))
        with pytest.raises(InputError):
            candidates(cfg)


def fano_gram(cfg) -> list[list[int]]:
    n = cfg.graph.n
    mult = cfg.graph.mult
    rows = [[mult[i][j] if i != j else -2 for j in range(n)] for i in range(n)]
    return [row + [1] for row in rows] + [[1] * n + [cfg.degree]]


def moved(perm, vec) -> list:
    """Coordinates on (lines..., h) of the image of a vector under the
    line permutation perm, which fixes h."""
    out = list(vec)
    for i, p in enumerate(perm):
        out[p] = vec[i]
    return out


class DescentRoute:
    """The line lattice N by descent from the Fano quotient Q, the route
    `Analysis` took before it built N as one lattice, kept as a reference.

    The kernel vectors name classes of D_Q, and D_N is perp(K)/K for the
    subgroup K they generate (`isotropic_quotient`).  A graph automorphism
    is descended to an isometry of Q through the inverse of the
    (complement, radical) basis and pushed to D_Q.  The stabilizer keeps
    the automorphisms that map K into K, moving each kernel vector by its
    coordinates; a candidate action solves for each image modulo K
    (`solve_mod`)."""

    def __init__(self, cfg: LineConfiguration):
        self.cfg = cfg
        self.gram = gram = fano_gram(cfg)
        # the columns of the Smith transform V: the trailing ones span the
        # radical, the leading ones complete them to a basis
        s, _, v = smith_decompose(gram)
        rank = sum(1 for i in range(len(gram)) if s[i][i])
        columns = transpose(v)
        self.complement, radical = columns[:rank], columns[rank:]
        self.q = Lattice.from_rows(
            mat_mul(mat_mul(self.complement, gram), transpose(self.complement))
        )
        self.back = inverse_unimodular(transpose(self.complement + radical))
        self.data = discriminant_data(self.q.gram)
        form = self.data.form
        self.kernel = [
            self.data.class_of(mat_vec(self.complement, t))
            for t in cfg.kernel_pairings
        ]
        self.dn, self.reps = isotropic_quotient(form, self.kernel)
        self.subgroup = {form.zero()}
        frontier = [form.zero()]
        for x in frontier:
            for k in self.kernel:
                y = form.reduce([a + b for a, b in zip(x, k)])
                if y not in self.subgroup:
                    self.subgroup.add(y)
                    frontier.append(y)

    def q_action(self, perm) -> FqfIsometry:
        """The action of a graph automorphism on D_Q."""
        k = len(self.complement)
        cols = [mat_vec(self.back, moved(perm, row))[:k] for row in self.complement]
        w = Isometry(
            self.q, tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
        )
        return discriminant_action(self.data, w)

    def stabilizer(self, perms=None) -> set[tuple[int, ...]]:
        """The members of `perms`, graph automorphisms, that map K into
        K; all of Aut by default."""
        # the class in D_Q of a moved kernel vector, from its coordinates,
        # computed once per distinct moved vector
        classes: dict = {}

        def image(perm, vec):
            key = tuple(moved(perm, vec))
            if key not in classes:
                t = mat_vec(self.gram, key)
                classes[key] = self.data.class_of(
                    mat_vec(self.complement, [int(x) for x in t])
                )
            return classes[key]

        if perms is None:
            perms = group_elements(graph_automorphism_group(self.cfg.graph))
        kernel = kernel_vectors(self.cfg)
        return {
            g
            for g in perms
            if all(image(g, vec) in self.subgroup for vec in kernel)
        }

    def descend(self, cls) -> tuple[int, ...]:
        """The element of D_N = perp(K)/K that a class of perp(K) names."""
        columns = list(self.reps) + list(self.kernel)
        sol = solve_mod(columns, list(cls), list(self.data.form.orders))
        return self.dn.reduce(sol[: len(self.reps)])

    def candidate_action(self, perm) -> FqfIsometry:
        tau_q = self.q_action(perm)
        images = tuple(self.descend(tau_q.apply(rep)) for rep in self.reps)
        descended = FqfIsometry(self.dn, self.dn, images)
        return minus_identity_isometry(self.dn).compose(descended)


def assert_isometry(phi: FqfIsometry):
    """phi is a well-defined bijective homomorphism that preserves q."""
    src, dst = phi.source, phi.target
    assert src.order() == dst.order()
    k = src.rank()
    for i, (d, col) in enumerate(zip(src.orders, phi.columns)):
        assert dst.reduce([d * x for x in col]) == dst.zero()
        e_i = tuple(int(t == i) for t in range(k))
        assert q_of(dst, col) == q_of(src, e_i)
        for j, other in enumerate(phi.columns):
            e_j = tuple(int(t == j) for t in range(k))
            assert b_of(dst, col, other) == b_of(src, e_i, e_j)
    assert subgroup_form(dst, list(phi.columns))[0].order() == dst.order()


def assert_routes_agree(cfg):
    """`Analysis` and `DescentRoute` give the same stabilizer and |D_N|,
    and reading each generator of `Analysis.dn` off its pairing vector
    with (lines..., h) into the descent's D_N is an isometry that
    intertwines the two candidate actions.  N has the rank and signature
    of the descent's Fano quotient Q, and det Q = det N·|K|^2."""
    analysis = Analysis(cfg)
    ref = DescentRoute(cfg)
    elems = group_elements(analysis.stabilizer)
    assert set(elems) == ref.stabilizer()
    assert analysis.dn.order() == ref.dn.order()
    assert analysis.rank_n == ref.q.rank
    assert analysis.quotient_signature == ref.q.signature[:2]
    assert ref.q.determinant == analysis.det_n * len(ref.subgroup) ** 2
    # generator i of D_N is V[:, i] / d_i on the generators (lines..., h,
    # kernel vectors...); the first n+1 rows of gram give its pairings
    lift = analysis.gram[: cfg.graph.n + 1]
    columns = []
    for w in dual_vectors(analysis.data):
        t = mat_vec(lift, w)
        assert all(x.denominator == 1 for x in t)
        cls = ref.data.class_of(mat_vec(ref.complement, [int(x) for x in t]))
        columns.append(ref.descend(cls))
    phi = FqfIsometry(analysis.dn, ref.dn, tuple(columns))
    assert_isometry(phi)
    for g in elems:
        ours = analysis.candidate_action(g)
        assert phi.compose(ours) == ref.candidate_action(g).compose(phi)


@st.composite
def half_kernel_configurations(draw):
    """A random multigraph on at most six lines with one kernel vector whose
    coordinates on (lines..., h) lie in {0, 1/2}, or two when a second one
    pairs integrally with the first."""
    n = draw(st.integers(2, 6))
    mult = [[0] * n for _ in range(n)]
    # few edges, so that many graphs have symmetries that move the kernel
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.sampled_from(list(combinations(range(n), 2))))
        mult[i][j] = mult[j][i] = draw(st.integers(1, 2))
    graph = Multigraph(tuple(map(tuple, mult)))
    degree = draw(st.sampled_from((2, 4, 6)))

    def config(kernel):
        try:
            return LineConfiguration(degree, graph, kernel=kernel)
        except InputError:
            return None

    halves = [
        vec
        for bits in product((0, 1), repeat=n + 1)
        if any(bits)
        for vec in [tuple(Fraction(b, 2) for b in bits)]
        if config((vec,)) is not None
    ]
    assume(halves)
    first = draw(st.sampled_from(halves))
    pairs = [(first, v) for v in halves if v != first and config((first, v))]
    if pairs:  # rare enough that every chance is taken
        return config(draw(st.sampled_from(pairs)))
    return config((first,))


class TestExtensionContext:
    def test_candidate_action_matches_the_rational_route(self):
        # every stabilizer element, not only involutions; the glued K33 has
        # a kernel, the 2U(3) graph a transcendental lattice
        home = TestFragmentEnumeration.HOME
        configs = [
            LineConfiguration(home[name], catalog_graph(name))
            for name in ("prism", "K4")
        ] + [
            read_configuration(Path(__file__).parent.parent / "corpus" / name)
            for name in ("k33_glued.json", "k33_twou3.json")
        ]
        for cfg in configs:
            assert_routes_agree(cfg)
            analysis = Analysis(cfg)
            elems = group_elements(analysis.stabilizer)
            acts = {g: analysis.candidate_action(g) for g in elems}
            minus = minus_identity_isometry(analysis.dn)
            # sigma -> -candidate_action(sigma) is a homomorphism
            plus = {g: minus.compose(act) for g, act in acts.items()}
            for g in elems:
                for h in elems:
                    assert plus[compose_perm(g, h)] == plus[g].compose(plus[h])

    def test_descent_route_agrees_on_degenerate_fano_forms(self):
        # no kernel, and relations among the generators: the six lines of
        # K33 or of the prism sum to h; prism + K33 is nondegenerate but
        # not hyperbolic
        for graph, relations in (
            (catalog_graph("K33"), 1),
            (catalog_graph("prism"), 1),
            (prism_plus_k33(), 0),
        ):
            cfg = LineConfiguration(6, graph)
            analysis = Analysis(cfg)
            assert len(analysis.gram) - analysis.rank_n == relations
            assert_routes_agree(cfg)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(half_kernel_configurations())
    def test_descent_route_agrees_on_random_kernels(self, cfg):
        assert_routes_agree(cfg)

    def test_candidate_action_rejects_automorphisms_outside_the_stabilizer(
        self,
    ):
        # the glued K33: 8 of the 72 graph automorphisms map N onto itself
        cfg = read_configuration(
            Path(__file__).parent.parent / "corpus" / "k33_glued.json"
        )
        analysis = Analysis(cfg)
        kept = set(group_elements(analysis.stabilizer))
        outside = [g for g in group_elements(analysis.automorphisms) if g not in kept]
        assert len(kept) == 8 and len(outside) == 64
        for g in outside:
            with pytest.raises(ValueError, match="does not map N onto itself"):
                analysis.candidate_action(g)

    def test_determinant_of_triangle_extension(self):
        analysis = Analysis(LineConfiguration(6, TRIANGLE))
        assert analysis.rank_n == 4
        assert analysis.det_n == -27

    def test_kernel_index_squares_the_determinant(self):
        plain = Analysis(LineConfiguration(6, catalog_graph("K33")))
        glued = Analysis(
            LineConfiguration(
                6, catalog_graph("K33"), kernel=(K33_ISOTROPIC_KERNEL,)
            )
        )
        assert plain.det_n == -80
        assert glued.det_n == -20

    def test_discriminant_of_glued_extension_exists(self):
        glued = Analysis(
            LineConfiguration(
                6, catalog_graph("K33"), kernel=(K33_ISOTROPIC_KERNEL,)
            )
        )
        assert glued.dn.order() == 20
        # the glued form still admits an anti-isometry test against itself
        negated = discriminant_data(
            tuple(tuple(-x for x in row) for row in glued.gram)
        )
        assert find_isometry(negated.form, glued.dn, anti=True) is not None


class TestAnalysis:
    def test_one_search_per_configuration(self, monkeypatch):
        # every candidate reads the same fragment list and the same Smith
        # form of the generators' Gram matrix; nothing is recomputed per
        # candidate
        calls = {"enumerate_fragments": 0, "smith_decompose": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(fano, "enumerate_fragments")
        counted(lattices, "smith_decompose")
        cfg = LineConfiguration(
            6, catalog_graph("K33"), kernel=(K33_ISOTROPIC_KERNEL,)
        )
        cands = candidates(cfg)
        assert len(cands) > 1
        assert calls == {"enumerate_fragments": 1, "smith_decompose": 1}

    def test_fragments_read_runs_no_smith_form(self, monkeypatch):
        # what the `fragments` command reads: the warnings come from the
        # inertia of the generators' Gram matrix, the rank from that of
        # the lines' own
        def refuse(*args, **kwargs):
            raise AssertionError("a Smith form was computed")

        monkeypatch.setattr(intmat, "_smith", refuse)
        for graph in (prism_plus_k33(), catalog_graph("K33")):
            analysis = Analysis(LineConfiguration(6, graph))
            analysis.warnings
            analysis.lines_rank
            analysis.automorphisms
            analysis.fragments
        glued = Analysis(LineConfiguration(
            6, catalog_graph("K33"), kernel=(K33_ISOTROPIC_KERNEL,)
        ))
        assert glued.warnings == ()
        assert len(glued.fragments) == 1

    def test_warnings_and_lines_rank_share_one_reduction(self, monkeypatch):
        # the lines block is exhausted first, so the reduction that gives
        # the signature of N also gives the lines' rank
        calls = []
        inner = intmat._diagonal_basis

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(intmat, "_diagonal_basis", counted)
        for graph in (prism_plus_k33(), catalog_graph("K33")):
            calls.clear()
            analysis = Analysis(LineConfiguration(6, graph))
            analysis.warnings
            analysis.lines_rank
            assert len(calls) == 1

    def test_items_match_the_search_and_a_fresh_analysis(self):
        # items read in any order give what a fresh analysis gives
        cfg = LineConfiguration(6, two_prisms())
        analysis = Analysis(cfg)
        assert analysis.fragments == tuple(enumerate_fragments(cfg))
        stab = Analysis(cfg).stabilizer
        assert 2 * analysis.stabilizer.order() == 2 * stab.order() == 2 * 288
        swap = tuple(list(range(6, 12)) + list(range(6)))
        assert analysis.count_fragments_under(swap) == (0, 0)
        assert analysis.real_structure_candidates(None) == candidates(cfg)

    def test_rank_constraint_is_raised_by_r(self):
        analysis = Analysis(LineConfiguration(2, empty_graph(22)))
        assert analysis.rank_n == 23
        with pytest.raises(InputError, match="no transcendental directions"):
            analysis.r
