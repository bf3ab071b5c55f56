"""Acceptance gate: one test per acceptance criterion, each asserting the
exact expected values inside its stated wall-clock budget.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from k3lines.fano import (
    Analysis,
    LineConfiguration,
    catalog_graph,
    catalog_names,
    enumerate_fragments,
)
from k3lines.fqf import brown_invariant
from k3lines.gluing import (
    TWO_U_LABELS,
    _vectors_of_norm,
    invariant_sublattice,
    orthogonal_group_definite,
    t_side_involution_classes,
    two_u_involutions,
)
from k3lines.lattices import Lattice, TwoU, build_lattice
from k3lines.multigraph import (
    Multigraph,
    compose_perm,
    graph_automorphism_group,
    invert_perm,
)
from k3lines.realcrit import totally_real_criterion

from helpers import (
    BUILTIN_SPECS,
    discriminant_form,
    fqf_isometries,
    group_elements,
    invariants_match,
    involution_classes,
    read_configuration,
    sign_structure_action,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

HOME_DEGREE = {
    "tritangent-pair": 2,
    "K4": 4,
    "prism": 6,
    "K33": 6,
    "K3+K32": 8,
    "wagner": 8,
    "cube": 8,
}


class Budget:
    """Context manager asserting the body finished inside its budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"exceeded the {self.seconds:.0f}s budget: {elapsed:.2f}s"
            )


def test_criterion_01_catalog_invariants():
    # (lines-Gram rank, girth, |Aut|), as `fragments` prints them
    def invariants(name):
        analysis = Analysis(LineConfiguration(HOME_DEGREE[name], catalog_graph(name)))
        return (analysis.lines_rank, analysis.girth, analysis.automorphisms.order())

    with Budget(1):
        assert invariants("prism") == (6, 3, 12)
        assert invariants("K33") == (6, 4, 72)
        assert invariants("K3+K32") == (8, 3, 12)
        assert invariants("wagner") == (8, 4, 16)
        assert invariants("cube") == (8, 4, 48)


def test_criterion_02_involution_census_of_discr_2u3():
    with Budget(60):
        form = discriminant_form(build_lattice("2U(3)"))
        assert len(involution_classes(form)) == 8
        tside = t_side_involution_classes(TwoU(3))
        assert tside is not None
        assert tside.class_count == 3


def test_criterion_03_five_two_u_involutions():
    with Budget(1):
        pairs = two_u_involutions()
        assert tuple(label for label, _ in pairs) == TWO_U_LABELS
        for label, isometry in pairs:
            assert isometry.is_involution(), label
            assert sign_structure_action(isometry.lattice, isometry) == -1
            fixed, _ = invariant_sublattice(isometry.lattice, isometry)
            assert invariants_match(fixed, build_lattice(label)), label
            assert fixed.signature[0] == 1, label


def test_criterion_04_schur_quartic_arithmetic():
    with Budget(10):
        schur = build_lattice("[8,4,8]")
        assert len(orthogonal_group_definite(schur)) == 12
        d_n = discriminant_form(schur).negated()
        assert d_n.orders == (4, 12)
        verdict = totally_real_criterion(d_n, 2, -48)
        assert verdict.kind == "NO"
        # independent oracle: among all reduced even positive definite
        # binary forms of determinant 48, only [8,4,8] lies in the genus
        # anti-isometric to the line-side form, and it has no norm-2
        # vector (and, being definite, no isotropic vector either)
        reduced = []
        for a in range(2, 14, 2):
            for c in range(a, 26, 2):
                for b in range(0, a // 2 + 1):
                    if a * c - b * b == 48:
                        reduced.append((a, b, c))
        assert reduced == [(2, 0, 24), (4, 0, 12), (6, 0, 8), (8, 4, 8)]
        genus = [
            (a, b, c)
            for a, b, c in reduced
            if fqf_isometries(
                d_n,
                discriminant_form(Lattice(((a, b), (b, c)))),
                anti=True,
            )
        ]
        assert genus == [(8, 4, 8)]
        # (G^-1)_ii = 8 / 48 = 1/6: the integer cofactor over det G
        assert _vectors_of_norm([[8, 4], [4, 8]], [8, 8], 48, 2) == []


def test_criterion_05_signature_residue_suite():
    with Budget(30):
        for expr in BUILTIN_SPECS:
            lattice = build_lattice(expr)
            pos, neg, _ = lattice.signature
            residue = brown_invariant(discriminant_form(lattice))
            assert (pos - neg - residue) % 8 == 0, expr
        rng = random.Random(20260818)
        checked = 0
        while checked < 100:
            n = rng.randrange(1, 7)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                gram[i][i] = 2 * rng.randrange(-3, 4)
                for j in range(i + 1, n):
                    gram[i][j] = gram[j][i] = rng.randrange(-2, 3)
            lattice = Lattice(tuple(tuple(row) for row in gram))
            pos, neg, null = lattice.signature
            if null or abs(lattice.determinant) > 100_000:
                continue
            residue = brown_invariant(discriminant_form(lattice))
            assert (pos - neg - residue) % 8 == 0, gram
            checked += 1


def test_criterion_06_fragment_oracle_equivalence():
    with Budget(60):
        rng = random.Random(314159)
        for trial in range(200):
            n = rng.randrange(2, 13)
            mult = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    mult[i][j] = mult[j][i] = rng.choice((0, 0, 0, 1, 1, 2, 3))
            graph = Multigraph(tuple(tuple(row) for row in mult))
            degree = rng.choice((2, 4, 6, 8))
            cfg = LineConfiguration(degree, graph)
            got = [f.vertices for f in enumerate_fragments(cfg)]
            brute = [
                subset
                for subset in combinations(range(n), min(degree, n + 1))
                if all(
                    sum(graph.mult[v][w] for w in subset) == 3
                    for v in subset
                )
            ]
            assert got == brute, f"trial {trial}: {mult} at degree {degree}"


def test_criterion_07_catalog_fragment_census():
    with Budget(1):
        for name in catalog_names():
            graph = catalog_graph(name)
            for degree in (2, 4, 6, 8):
                found = enumerate_fragments(LineConfiguration(degree, graph))
                if degree == HOME_DEGREE[name]:
                    assert len(found) == 1, name
                    assert found[0].vertices == tuple(range(graph.n))
                    assert found[0].type_label == name
                else:
                    assert found == [], (name, degree)


def _signature_one_tail(rng: random.Random) -> Lattice | None:
    """Even lattice of signature (1, s): a positive square or a hyperbolic
    plane, padded with negative even squares."""
    if rng.random() < 0.5:
        head = build_lattice(f"[{2 * rng.randint(1, 3)}]")
        pad = rng.randint(0, 3)
    else:
        head = build_lattice("U")
        pad = rng.randint(0, 3) - 1
        if pad < 0:
            return None
    lat = head
    for _ in range(pad):
        lat = lat.direct_sum(build_lattice(f"[{-2 * rng.randint(1, 3)}]"))
    return lat


def test_criterion_08_criterion_never_rejects_a_witness():
    with Budget(60):
        rng = random.Random(20260820)
        done = 0
        while done < 50:
            tail = _signature_one_tail(rng)
            if tail is None:
                continue
            t = build_lattice("[2]").direct_sum(tail)
            verdict = totally_real_criterion(
                discriminant_form(t).negated(), t.rank, t.determinant
            )
            assert verdict.kind != "NO", (t.gram, verdict.reasons)
            done += 1
        rng = random.Random(20260821)
        done = 0
        while done < 50:
            tail = _signature_one_tail(rng)
            if tail is None:
                continue
            t = build_lattice("U(2)").direct_sum(tail)
            verdict = totally_real_criterion(
                discriminant_form(t).negated(), t.rank, t.determinant
            )
            assert verdict.kind != "NO", (t.gram, verdict.reasons)
            done += 1


def test_criterion_09_real_count_sanity():
    with Budget(10):
        for path in sorted(CORPUS.glob("*.json")):
            cfg = read_configuration(path)
            num_c = len(enumerate_fragments(cfg))
            analysis = Analysis(cfg)
            for cand in analysis.real_structure_candidates(cfg.transcendental):
                assert 0 <= cand.num_rr <= cand.num_r <= num_c, path.name
        rng = random.Random(161803)
        for _ in range(100):
            name = rng.choice(catalog_names())
            cfg = LineConfiguration(HOME_DEGREE[name], catalog_graph(name))
            analysis = Analysis(cfg)
            group = graph_automorphism_group(cfg.graph)
            assert group.order() <= 1000
            elems = group_elements(group)
            ident = tuple(range(cfg.graph.n))
            sigma = rng.choice(
                [g for g in elems if compose_perm(g, g) == ident]
            )
            base = analysis.count_fragments_under(sigma)
            a = rng.choice(elems)
            conj = compose_perm(compose_perm(a, sigma), invert_perm(a))
            assert analysis.count_fragments_under(conj) == base, (name, sigma, a)


def test_criterion_10_cli_corpus_determinism():
    with Budget(120):
        configs = sorted(CORPUS.glob("*.json"))
        lattice_files = sorted(CORPUS.glob("*.lattice"))
        assert len(configs) >= 11 and len(lattice_files) >= 1
        outputs: dict[tuple[str, str], list[bytes]] = {}
        for threads in ("1", "8"):
            for path in configs:
                for cmd in ("fragments", "real", "totally-real"):
                    argv = [
                        sys.executable,
                        "-m",
                        "k3lines.cli",
                        cmd,
                        str(path),
                        "--json",
                        "--threads",
                        threads,
                    ]
                    if cmd == "fragments":
                        argv.append("--list-fragments")
                    proc = subprocess.run(argv, capture_output=True)
                    assert proc.returncode == 0, (path.name, cmd, proc.stderr)
                    outputs.setdefault((path.name, cmd), []).append(
                        proc.stdout
                    )
            for path in lattice_files:
                proc = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "k3lines.cli",
                        "lattice",
                        str(path),
                        "--json",
                    ],
                    capture_output=True,
                )
                assert proc.returncode == 0, (path.name, proc.stderr)
                outputs.setdefault((path.name, "lattice"), []).append(
                    proc.stdout
                )
        assert len(outputs) == 3 * len(configs) + len(lattice_files)
        for key, versions in outputs.items():
            assert len(versions) == 2, key
            assert versions[0] == versions[1], key
            json.loads(versions[0])
