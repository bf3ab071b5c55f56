"""Tests for multigraphs, automorphism groups, canonical certificates, girth.

Frozen automorphism orders and girths are textbook values for the named
graphs; certificate behaviour is pinned through relabeling properties, a
brute-force least encoding for small graphs and the literal Petersen string.
Automorphism groups and certificate equality are checked against
`networkx` isomorphisms, with edge multiplicities as edge attributes.
"""

from __future__ import annotations

import math
import random
import time
from itertools import islice, permutations, product
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from k3lines import multigraph
from k3lines.errors import CapExceeded, InputError
from k3lines.fano import catalog_graph, catalog_names
from k3lines.gluing import automorphism_group
from k3lines.lattices import build_lattice
from k3lines.multigraph import (
    Multigraph,
    canonical_certificate,
    chain,
    color_refinement,
    compose_perm,
    girth,
    graph_automorphism_group,
    invert_perm,
)

from helpers import (
    bfs_girth,
    discriminant_form,
    group_contains,
    group_elements,
    read_configuration,
    relabel,
)


def empty_graph(n: int) -> Multigraph:
    return Multigraph(tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def random_graph(rng: random.Random, n: int) -> Multigraph:
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mult[i][j] = mult[j][i] = rng.choice((0, 0, 0, 1, 1, 2, 3))
    return Multigraph(tuple(tuple(row) for row in mult))


def random_cubic(rng: random.Random, n: int) -> Multigraph:
    """A random 3-regular multigraph on n vertices (n even): three
    half-edges per vertex, paired at random, pairings with a loop
    rejected."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = list(zip(ends[::2], ends[1::2]))
        if all(a != b for a, b in pairs):
            break
    mult = [[0] * n for _ in range(n)]
    for a, b in pairs:
        mult[a][b] += 1
        mult[b][a] += 1
    return Multigraph(tuple(tuple(row) for row in mult))


def petersen() -> Multigraph:
    edges = [(i, (i + 1) % 5, 1) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    edges += [(i, i + 5, 1) for i in range(5)]
    return Multigraph.from_edges(10, edges)


def brute_force_certificate(g: Multigraph) -> str:
    """The least column-major upper-triangle encoding over every ordering
    that lists the refined colour classes in order, each class in every
    order of its own."""
    n = g.n
    colors = color_refinement(g)
    classes = [
        [v for v in range(n) if colors[v] == c] for c in sorted(set(colors))
    ]
    best = min(
        [g.mult[order[i]][order[j]] for j in range(n) for i in range(j)]
        for order in (
            [v for part in parts for v in part]
            for parts in product(*(permutations(cls) for cls in classes))
        )
    )
    return f"{n}|" + ",".join(str(x) for x in best)


FERMAT = Path(__file__).parent / "data" / "fermat48.json"

# the networkx oracle lists at most this many automorphisms
ORACLE_LIMIT = 5040


@st.composite
def multigraphs(draw, max_n: int = 9) -> Multigraph:
    """Relabeled multigraphs of every density, some of them disjoint copies
    of one graph, so that large automorphism groups are common."""
    copies = draw(st.integers(1, 3))
    k = draw(st.integers(0, max_n // copies))
    zeros = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    values = draw(
        st.lists(st.sampled_from((0,) * zeros + (1, 1, 2, 3)),
                 min_size=len(pairs), max_size=len(pairs))
    )
    n = k * copies
    g = Multigraph.from_edges(n, [
        (c * k + i, c * k + j, m)
        for c in range(copies)
        for (i, j), m in zip(pairs, values)
        if m
    ])
    return relabel(g, tuple(draw(st.permutations(range(n)))))


def to_networkx(g: Multigraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(
        (i, j, {"m": g.mult[i][j]})
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.mult[i][j]
    )
    return out


def same_multiplicity(a, b) -> bool:
    return a["m"] == b["m"]


def networkx_automorphisms(g: Multigraph, limit: int) -> list:
    """Up to limit + 1 automorphisms, as permutation tuples."""
    h = to_networkx(g)
    matcher = GraphMatcher(h, h, edge_match=same_multiplicity)
    return [
        tuple(iso[v] for v in range(g.n))
        for iso in islice(matcher.isomorphisms_iter(), limit + 1)
    ]


def generated_group(gens, n: int) -> set:
    closure = {tuple(range(n))}
    frontier = list(closure)
    for x in frontier:
        for g in gens:
            y = compose_perm(g, x)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


def regular_pair(rng: random.Random, n: int, k: int) -> Multigraph:
    """Disjoint union of two random simple k-regular graphs on n vertices
    each (pairing model with restarts)."""
    edges: list[tuple[int, int, int]] = []
    for offset in (0, n):
        while True:
            stubs = [v for v in range(n) for _ in range(k)]
            rng.shuffle(stubs)
            pairs = {
                (min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])
            }
            if len(pairs) == n * k // 2 and all(a != b for a, b in pairs):
                break
        edges += [(offset + a, offset + b, 1) for a, b in sorted(pairs)]
    return Multigraph.from_edges(2 * n, edges)


class TestMultigraphValidation:
    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            Multigraph(((0, 1),))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            Multigraph(((0, 1), (2, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            Multigraph(((1, 0), (0, 0)))

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(InputError):
            Multigraph(((0, -1), (-1, 0)))

    def test_rejects_non_integer(self):
        with pytest.raises(InputError):
            Multigraph(((0, 1.5), (1.5, 0)))

    def test_from_edges(self):
        g = Multigraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
        assert g.mult == ((0, 2, 0), (2, 0, 1), (0, 1, 0))

    def test_from_edges_rejects_bad_vertex(self):
        with pytest.raises(InputError):
            Multigraph.from_edges(2, [(0, 2, 1)])

    def test_from_edges_rejects_duplicate(self):
        with pytest.raises(InputError):
            Multigraph.from_edges(3, [(0, 1, 1), (1, 0, 2)])

    def test_degree_is_weighted(self):
        g = Multigraph.from_edges(3, [(0, 1, 3), (0, 2, 1)])
        assert g.degree(0) == 4
        assert g.degree(1) == 3
        assert g.degree(2) == 1

    def test_relabel_moves_entries(self):
        g = Multigraph.from_edges(3, [(0, 1, 2)])
        h = relabel(g, (2, 0, 1))
        # vertex 0 -> 2, vertex 1 -> 0, so the double edge sits at {0, 2}
        assert h.mult[0][2] == 2
        assert h.mult[0][1] == 0

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(multigraphs(), st.data())
    def test_is_automorphism_agrees_with_relabeling(self, g, data):
        for p in data.draw(st.lists(st.permutations(range(g.n)), max_size=8)):
            p = tuple(p)
            assert g.is_automorphism(p) == (relabel(g, p) == g)
        for p in graph_automorphism_group(g).strong:
            assert g.is_automorphism(p)

    def test_induced_subgraph(self):
        g = catalog_graph("prism")
        sub = g.induced((0, 1, 2))
        assert sub.n == 3
        assert sub.mult == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def round_based_refinement(graph: Multigraph, initial=None) -> tuple[int, ...]:
    """Reference refinement: every round profiles every vertex by its colour
    and the sorted (multiplicity, neighbour colour) pairs, and ranks the
    distinct profiles, until a round splits no cell."""
    n = graph.n
    if initial is None:
        colors = [0] * n
    else:
        ranking = {c: i for i, c in enumerate(sorted(set(initial)))}
        colors = [ranking[c] for c in initial]
    while True:
        sigs = [
            (colors[v], tuple(sorted([(m, colors[w]) for w, m in nbrs])))
            for v, nbrs in enumerate(graph.adjacency)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return tuple(colors)
        colors = new


@st.composite
def coloured_graphs(draw):
    """Multigraphs on 0..14 vertices with multiplicities 1-3, some vertices
    isolated, and an initial colouring or None."""
    n = draw(st.integers(0, 14))
    isolated = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3))
    values = draw(st.lists(st.sampled_from((0, 0, 1, 1, 2, 3)),
                           min_size=n * n, max_size=n * n))
    g = Multigraph.from_edges(n, [
        (i, j, values[i * n + j])
        for i in range(n)
        for j in range(i + 1, n)
        if values[i * n + j] and not {i, j} & isolated
    ])
    initial = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return g, initial


def checked_refinements(graph: Multigraph, initial=None) -> int:
    """Refine `graph` and build its automorphism group while every
    refinement, the individualizations of the search included, is compared
    with `round_based_refinement`; the number compared.  Certificates and
    fragment labels read only `color_refinement(graph)`."""
    real, compared = multigraph._refine, []

    def refine(g, colors, moved):
        want = round_based_refinement(g, colors)
        got = real(g, colors, moved)
        assert got == want
        compared.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigraph, "_refine", refine)
        want = round_based_refinement(graph, initial)
        assert color_refinement(graph, initial) == want
        graph_automorphism_group(graph)
    return len(compared)


class TestColorRefinement:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(coloured_graphs())
    def test_ids_match_the_round_based_reference(self, case):
        checked_refinements(*case)

    def test_fermat_and_catalog_match_the_round_based_reference(self):
        fermat = read_configuration(FERMAT).graph
        # one comparison per individualization: 42 in the Fermat search
        assert checked_refinements(fermat) > 40
        for name in catalog_names():
            checked_refinements(catalog_graph(name))

    def test_regular_graph_single_class(self):
        colors = color_refinement(catalog_graph("prism"))
        assert len(set(colors)) == 1

    def test_star_two_classes(self):
        g = Multigraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        colors = color_refinement(g)
        assert colors[1] == colors[2] == colors[3]
        assert colors[0] != colors[1]

    def test_partition_is_stable(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 9))
            colors = color_refinement(g)
            again = color_refinement(g, initial=colors)
            groups = lambda cs: sorted(
                sorted(v for v in range(g.n) if cs[v] == c) for c in set(cs)
            )
            assert groups(colors) == groups(again)


class TestPermutationHelpers:
    def test_compose_is_left_after_right(self):
        a = (1, 2, 0)
        b = (0, 2, 1)
        c = compose_perm(a, b)
        for i in range(3):
            assert c[i] == a[b[i]]

    def test_invert_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(1, 10)
            p = list(range(n))
            rng.shuffle(p)
            p = tuple(p)
            q = invert_perm(p)
            assert compose_perm(p, q) == tuple(range(n))
            assert compose_perm(q, p) == tuple(range(n))


    def test_compose_of_the_shortest_permutations(self):
        # `itemgetter` returns a bare entry for one index and fails for none
        assert compose_perm((), ()) == ()
        assert compose_perm((0,), (0,)) == (0,)
        assert compose_perm((1, 0), (1, 0)) == (0, 1)


def brute_force_involutions(group) -> list[tuple[int, ...]]:
    ident = tuple(range(group.n))
    return [g for g in group_elements(group) if compose_perm(g, g) == ident]


def involution_count(n: int, k: int) -> int:
    """Elements of Sym(n) that are products of k disjoint transpositions."""
    f = math.factorial
    return f(n) // (2**k * f(k) * f(n - 2 * k))


class TestInvolutions:
    """`PermutationGroup.involutions`: the pruned walk of the transversals
    against the filter over every listed element."""

    @pytest.mark.parametrize("n", range(9))
    def test_edgeless_matches_the_element_filter(self, monkeypatch, n):
        monkeypatch.setattr(multigraph, "ELEMENT_CAP", 50_000)  # lists 8!
        group = graph_automorphism_group(empty_graph(n))
        invs = group.involutions()
        assert invs == brute_force_involutions(group)
        assert len(invs) == sum(involution_count(n, k) for k in range(n // 2 + 1))

    def test_fermat_matches_the_element_filter(self):
        group = graph_automorphism_group(read_configuration(FERMAT).graph)
        invs = group.involutions()
        assert len(invs) == 576
        assert invs == brute_force_involutions(group)

    def test_rotations_of_a_chiral_square(self):
        # a 4-cycle with a pendant on each edge, tied by multiplicity 1 to
        # one end and 2 to the other, so only rotations remain: the base is
        # one point, and the last level's test alone tells the half-turn
        # from the quarter-turns, which square to the half-turn
        edges = [(i, (i + 1) % 4, 1) for i in range(4)]
        edges += [(4 + i, i, 1) for i in range(4)]
        edges += [(4 + i, (i + 1) % 4, 2) for i in range(4)]
        group = graph_automorphism_group(Multigraph.from_edges(8, edges))
        assert (len(group.base), group.order()) == (1, 4)
        invs = group.involutions()
        assert invs == brute_force_involutions(group)
        assert len(invs) == 2

    def test_fermat_walk_visits_few_nodes(self, monkeypatch):
        # 576 involutions of 6,144 elements, in 1,679 walk nodes
        group = graph_automorphism_group(read_configuration(FERMAT).graph)
        monkeypatch.setattr(multigraph, "ELEMENT_CAP", 2_000)
        assert len(group.involutions()) == 576

    def test_walk_cap(self, monkeypatch):
        # Sym(12) has 140,152 involutions, each a node of the walk
        group = graph_automorphism_group(empty_graph(12))
        with pytest.raises(CapExceeded, match="exceeds the cap of 10000 nodes"):
            group.involutions()
        monkeypatch.setattr(multigraph, "ELEMENT_CAP", 200)
        with pytest.raises(CapExceeded, match="exceeds the cap of 200 nodes"):
            graph_automorphism_group(empty_graph(7)).involutions()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(multigraphs(max_n=7), st.data())
    def test_subgroup_matches_the_element_filter(self, g, data):
        # a subgroup chain has the strong generators of its own levels only
        group = graph_automorphism_group(g)
        chosen = set(data.draw(st.sets(st.integers(0, max(g.n - 1, 0)))))
        chosen &= set(range(g.n))
        sub = graph_automorphism_group(
            g, lambda p: {p[v] for v in chosen} == chosen
        )
        assert group.involutions() == brute_force_involutions(group)
        assert sub.involutions() == brute_force_involutions(sub)


def test_orbits_skip_covered_seeds():
    # Sym(3) on an edgeless triangle: the transpositions are one class
    group = graph_automorphism_group(empty_graph(3))
    seeds = [(1, 0, 2), (0, 2, 1), (0, 1, 2), (2, 1, 0), (0, 1, 2)]
    orbits = group.conjugation_orbits(seeds)
    assert [orbit[0] for orbit in orbits] == [(1, 0, 2), (0, 1, 2)]
    assert sorted(orbits[0]) == [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    # the trivial group has no strong generators: every seed is its class
    trivial = chain(2, [0, 1], lambda i, w: None)
    assert trivial.conjugation_orbits([(1, 0), (1, 0), (0, 1)]) == [[(1, 0)], [(0, 1)]]


def whole_permutation_orbits(group, seeds) -> list[list[tuple[int, ...]]]:
    """Reference conjugation orbits: every conjugate is composed and known by
    its whole permutation."""
    moves = [(a, invert_perm(a)) for a in group.strong]
    seen: set = set()
    out = []
    for seed in seeds:
        if seed in seen:
            continue
        seen.add(seed)
        orbit = [seed]
        for x in orbit:
            for a, a_inv in moves:
                y = compose_perm(a, compose_perm(x, a_inv))
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append(orbit)
    return out


@pytest.mark.parametrize("name", ["fermat", "sym6", "aut-2U(3)"])
def test_orbits_match_the_whole_permutation_reference(name):
    if name == "fermat":
        group = graph_automorphism_group(read_configuration(FERMAT).graph)
    elif name == "sym6":
        group = graph_automorphism_group(empty_graph(6))
    else:
        group = automorphism_group(discriminant_form(build_lattice("2U(3)")))
    seeds = group_elements(group)
    random.Random(name).shuffle(seeds)
    orbits = group.conjugation_orbits(seeds)
    assert orbits == whole_permutation_orbits(group, seeds)
    assert sum(map(len, orbits)) == group.order()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(multigraphs(max_n=7), st.data())
def test_subgroup_orbits_match_the_whole_permutation_reference(g, data):
    chosen = set(data.draw(st.sets(st.integers(0, max(g.n - 1, 0))))) & set(range(g.n))
    sub = graph_automorphism_group(g, lambda p: {p[v] for v in chosen} == chosen)
    elements = group_elements(sub)
    seeds = data.draw(st.lists(st.sampled_from(elements), max_size=20))
    assert sub.conjugation_orbits(seeds) == whole_permutation_orbits(sub, seeds)


class TestAutomorphismGroups:
    # textbook orders for the catalog graphs
    EXPECTED = {
        "tritangent-pair": 2,
        "K4": 24,
        "prism": 12,
        "K33": 72,
        "K3+K32": 12,
        "wagner": 16,
        "cube": 48,
    }

    def test_catalog_orders(self):
        for name, order in self.EXPECTED.items():
            group = graph_automorphism_group(catalog_graph(name))
            assert group.order() == order, name

    def test_empty_twelve_order_without_enumeration(self):
        group = graph_automorphism_group(empty_graph(12))
        assert group.order() == math.factorial(12)

    def test_elements_of_prism(self):
        g = catalog_graph("prism")
        group = graph_automorphism_group(g)
        assert group.order() <= 100
        elems = group_elements(group)
        assert len(elems) == 12
        assert len(set(elems)) == 12
        for p in elems:
            assert relabel(g, p) == g
            assert group_contains(group, p)

    def test_contains_rejects_non_automorphism(self):
        g = catalog_graph("prism")
        group = graph_automorphism_group(g)
        # swapping one vertex across the two triangles breaks the matching
        assert not group_contains(group, (3, 1, 2, 0, 4, 5))

    def test_elements_cap(self, monkeypatch):
        monkeypatch.setattr(multigraph, "ELEMENT_CAP", 100)
        group = graph_automorphism_group(catalog_graph("cube"))
        assert group.order() == 48
        group_elements(group)
        group = graph_automorphism_group(empty_graph(8))
        with pytest.raises(CapExceeded, match="exceeds the cap of 100"):
            group_elements(group)

    def test_generators_preserve_multiplicities(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 9))
            group = graph_automorphism_group(g)
            for gen in group.strong:
                assert relabel(g, gen) == g
            assert math.factorial(g.n) % group.order() == 0

    def test_group_matches_brute_force_on_small_graphs(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(1, 6)
            g = random_graph(rng, n)
            brute = {
                p for p in permutations(range(n)) if relabel(g, p) == g
            }
            group = graph_automorphism_group(g)
            assert group.order() <= 1000
            assert set(group_elements(group)) == brute
            assert group.order() == len(brute)

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(multigraph, "AUTOMORPHISM_NODE_CAP", 1)
        with pytest.raises(CapExceeded, match="automorphism search"):
            graph_automorphism_group(catalog_graph("cube"))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(multigraphs(), st.data())
    def test_against_networkx(self, g, data):
        group = graph_automorphism_group(g)
        autos = networkx_automorphisms(g, ORACLE_LIMIT)
        if len(autos) <= ORACLE_LIMIT:
            assert group.order() == len(autos)
            assert group_elements(group) == sorted(autos)
        else:
            assert group.order() > ORACLE_LIMIT
        assert all(group_contains(group, p) for p in autos)
        for p in data.draw(st.lists(st.permutations(range(g.n)), max_size=8)):
            p = tuple(p)
            assert group_contains(group, p) == (relabel(g, p) == g)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(multigraphs())
    def test_strong_generators(self, g):
        group = graph_automorphism_group(g)
        gens = set(group.strong)
        # each strong generator at least doubles the group
        assert 2 ** len(gens) <= group.order()
        if group.order() <= ORACLE_LIMIT:
            assert len(generated_group(gens, g.n)) == group.order()

    @pytest.mark.parametrize("seed", range(12))
    def test_regular_pairs_against_networkx(self, seed):
        # colour refinement does not split a regular graph at the root, so
        # the search reaches leaves whose maps are not automorphisms
        g = regular_pair(random.Random(seed), 12, 4)
        group = graph_automorphism_group(g)
        autos = networkx_automorphisms(g, ORACLE_LIMIT)
        assert group.order() == len(autos)
        assert group_elements(group) == sorted(autos)

    def test_edgeless_sixty_within_budget(self):
        start = time.process_time()
        group = graph_automorphism_group(empty_graph(60))
        assert time.process_time() - start < 3.0
        assert group.order() == math.factorial(60)
        assert 2 ** len(group.strong) <= group.order()
        assert group_contains(group, tuple(reversed(range(60))))

    def test_leaves_are_tested_without_building_graphs(self, monkeypatch):
        # each leaf map is checked edge by edge; building the relabeled
        # 60 x 60 matrix at every leaf cost 59 validated graphs here
        g = empty_graph(60)
        built = []
        validate = Multigraph.__init__

        def counted(self, mult):
            built.append(len(mult))
            validate(self, mult)

        monkeypatch.setattr(Multigraph, "__init__", counted)
        graph_automorphism_group(g)
        assert built == []

    def test_subgroup_of_a_set_stabilizer(self):
        # S7 on seven edgeless lines; keeping {0, 1, 2, 3} leaves S4 x S3
        half = {0, 1, 2, 3}

        def keep(p):
            return {p[v] for v in half} == half

        sub = graph_automorphism_group(empty_graph(7), keep)
        assert sub.order() == 144
        brute = [p for p in permutations(range(7)) if keep(p)]
        assert group_elements(sub) == brute
        for p in permutations(range(7)):
            assert group_contains(sub, p) == keep(p)
        assert 2 ** len(sub.strong) <= 144

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(multigraphs(max_n=7), st.data())
    def test_subgroup_matches_the_filtered_elements(self, g, data):
        group = graph_automorphism_group(g)
        chosen = set(data.draw(st.sets(st.integers(0, max(g.n - 1, 0)))))
        chosen &= set(range(g.n))

        def keep(p):
            return {p[v] for v in chosen} == chosen

        sub = graph_automorphism_group(g, keep)
        kept = [p for p in group_elements(group) if keep(p)]
        assert sub.order() == len(kept)
        assert group_elements(sub) == kept
        gens = set(sub.strong)
        assert 2 ** len(gens) <= sub.order()
        assert generated_group(gens, g.n) == set(kept)


class TestFermatLines:
    """The 48 lines of the Fermat quartic, |Aut| = 6144."""

    @pytest.fixture(scope="class")
    def graph(self):
        return read_configuration(FERMAT).graph

    @pytest.fixture(scope="class")
    def group(self, graph):
        return graph_automorphism_group(graph)

    def test_fixture(self, graph):
        assert graph.n == 48
        edges = [
            graph.mult[i][j]
            for i in range(48)
            for j in range(i + 1, 48)
            if graph.mult[i][j]
        ]
        assert len(edges) == 336 and set(edges) == {1}
        assert {graph.degree(v) for v in range(48)} == {14}

    def test_order(self, group):
        assert group.order() == 6144
        assert 2 ** len(group.strong) <= 6144

    @pytest.mark.parametrize("seed", range(11))
    def test_relabeling(self, graph, group, seed):
        perm = list(range(48))
        random.Random(seed).shuffle(perm)
        perm = tuple(perm)
        h = relabel(graph, perm)
        start = time.process_time()
        moved = graph_automorphism_group(h)
        assert time.process_time() - start < 0.5
        assert moved.order() == 6144
        inverse = invert_perm(perm)
        assert group_elements(moved) == sorted(
            compose_perm(perm, compose_perm(a, inverse))
            for a in group_elements(group)
        )


class TestCanonicalCertificate:
    def test_relabel_invariance(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_certificate(g) == canonical_certificate(
                relabel(g, tuple(perm))
            )

    def test_catalog_certificates_distinct(self):
        certs = [
            canonical_certificate(catalog_graph(name))
            for name in catalog_names()
        ]
        assert len(set(certs)) == len(certs)

    def test_multiplicity_sensitivity(self):
        single = Multigraph.from_edges(2, [(0, 1, 1)])
        double = Multigraph.from_edges(2, [(0, 1, 2)])
        assert canonical_certificate(single) != canonical_certificate(double)

    def test_same_degree_sequence_different_graphs(self):
        hexagon = Multigraph.from_edges(
            6, [(i, (i + 1) % 6, 1) for i in range(5)] + [(0, 5, 1)]
        )
        two_triangles = Multigraph.from_edges(
            6,
            [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)],
        )
        assert canonical_certificate(hexagon) != canonical_certificate(
            two_triangles
        )

    def test_highly_symmetric_graphs_stay_cheap(self):
        # interchangeable vertices must not blow up the search
        assert canonical_certificate(empty_graph(16)).startswith("16|")

    def test_node_cap(self, monkeypatch):
        monkeypatch.setattr(multigraph, "CERTIFICATE_NODE_CAP", 1)
        with pytest.raises(CapExceeded, match="certificate search"):
            canonical_certificate(catalog_graph("cube"))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(multigraphs(max_n=8), st.data())
    def test_equality_agrees_with_networkx(self, g, data):
        # an isomorphic copy, a copy with one multiplicity changed, or an
        # unrelated graph, each relabeled
        kind = data.draw(st.sampled_from(("copy", "edited", "other")))
        h = g
        if kind == "other":
            h = data.draw(multigraphs(max_n=8))
        elif kind == "edited" and g.n >= 2:
            i, j = data.draw(st.sampled_from(
                [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
            ))
            m = [list(row) for row in g.mult]
            m[i][j] = m[j][i] = data.draw(st.integers(0, 3))
            h = Multigraph(tuple(map(tuple, m)))
        h = relabel(h, tuple(data.draw(st.permutations(range(h.n)))))
        assert (canonical_certificate(g) == canonical_certificate(h)) == (
            nx.is_isomorphic(
                to_networkx(g), to_networkx(h), edge_match=same_multiplicity
            )
        )

    def test_size_prefix(self):
        assert canonical_certificate(empty_graph(0)) == "0|"
        assert canonical_certificate(empty_graph(1)) == "1|"

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(multigraphs(max_n=7))
    def test_least_encoding_agrees_with_brute_force(self, g):
        assert canonical_certificate(g) == brute_force_certificate(g)

    def test_cubic_least_encoding_agrees_with_brute_force(self):
        rng = random.Random(3)
        for n in (2, 4, 6) * 10:
            g = random_cubic(rng, n)
            assert canonical_certificate(g) == brute_force_certificate(g)

    def test_petersen_certificate(self):
        # the label a Petersen fragment gets, since it is not in the catalog
        assert canonical_certificate(petersen()) == (
            "10|0,0,0,0,0,0,0,0,1,1,0,1,0,1,0,0,1,1,0,0,0,1,0,0,1,0,0,1,1,0,"
            "1,0,0,1,0,0,1,1,0,0,1,0,0,0,0"
        )

    def test_vertex_transitive_cubic_graphs_fit_a_small_budget(
        self, monkeypatch
    ):
        # refinement leaves one class in each, so the budget bounds the
        # search itself
        monkeypatch.setattr(multigraph, "CERTIFICATE_NODE_CAP", 5_000)
        g = random_cubic(random.Random(15), 12)
        for h in (petersen(), g):
            assert set(color_refinement(h)) == {0}
            assert canonical_certificate(h).startswith(f"{h.n}|")


class TestGirth:
    EXPECTED = {
        "tritangent-pair": 2,  # repeated edge is a 2-cycle
        "K4": 3,
        "prism": 3,
        "K33": 4,
        "K3+K32": 3,
        "wagner": 4,
        "cube": 4,
    }

    def test_catalog_girths(self):
        for name, value in self.EXPECTED.items():
            assert girth(catalog_graph(name)) == value, name

    def test_acyclic_graph(self):
        path = Multigraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert girth(path) is None
        assert girth(empty_graph(4)) is None

    def test_multi_edge_gives_two(self):
        g = Multigraph.from_edges(5, [(0, 1, 1), (1, 2, 1), (3, 4, 2)])
        assert girth(g) == 2

    def test_hexagon(self):
        hexagon = Multigraph.from_edges(
            6, [(i, (i + 1) % 6, 1) for i in range(5)] + [(0, 5, 1)]
        )
        assert girth(hexagon) == 6

    def test_relabel_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert girth(g) == girth(relabel(g, tuple(perm)))

    # The early stops against the full breadth-first search.

    def test_catalog_and_acyclic_graphs_match_the_full_search(self):
        star = Multigraph.from_edges(5, [(0, v, 1) for v in range(1, 5)])
        forest = Multigraph.from_edges(
            7, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (4, 5, 1)]
        )
        graphs = [catalog_graph(name) for name in catalog_names()]
        graphs += [star, forest, empty_graph(0), empty_graph(3)]
        graphs.append(read_configuration(FERMAT).graph)
        for g in graphs:
            assert girth(g) == bfs_girth(g)
        assert [girth(g) for g in (star, forest, empty_graph(0))] == [None] * 3

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(multigraphs())
    def test_multigraphs_match_the_full_search(self, g):
        assert girth(g) == bfs_girth(g)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 14), st.randoms(use_true_random=False), st.data())
    def test_simple_graphs_match_the_full_search(self, n, rng, data):
        # sparse graphs have long shortest cycles, or none
        density = data.draw(st.sampled_from((0.1, 0.2, 0.3, 0.6)))
        edges = [
            (i, j, 1)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        g = Multigraph.from_edges(n, edges)
        assert girth(g) == bfs_girth(g)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(1, 16), st.randoms(use_true_random=False))
    def test_random_forests_are_acyclic(self, n, rng):
        # each vertex after the first joins an earlier one, or starts a tree
        edges = [(rng.randrange(v), v, 1) for v in range(1, n) if rng.random() < 0.8]
        g = Multigraph.from_edges(n, edges)
        assert girth(g) is None
        assert bfs_girth(g) is None
