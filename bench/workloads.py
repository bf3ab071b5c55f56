"""The benchmark's workloads: which `k3lines` calls each one makes, and how
each call's output is checked.

Every workload is a fixed list of CLI calls on fixed instances, so that the
cost of a run does not depend on its seed.  `--seed` draws what can vary
without changing that cost: a relabeling of the small catalog graph in
`census`, and the order of the calls in `fermat48` and `fragment-scaling`.
Outputs are checked against digests of a relabeling-invariant normal form
recorded in `expected.json`, and by fact checks that need no recorded
value.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import inputs

WORKLOADS = ("census", "fermat48", "fragment-scaling")

# Lattice expressions relevant to K3 discriminant forms; 3A2(3) and A4(5)
# are dominated by Gauss sums in the Brown invariant.  (U(5)+A4(5) takes
# 5-6 s per call, twice per run, and does not fit the run-time budget.)
LATTICE_EXPRESSIONS = ("3A2(3)", "2U(3)+A2(3)", "E6(3)", "D4(3)", "A4(5)")

# Catalog graph swept against the one shared transcendental lattice 2U(3):
# a session reuses the Aut(discr 2U(3)) an earlier corpus call computed, a
# cold call pays for it again.
SWEEP_GRAPHS = ("cube",)
SHARED_T = {"twoU": 3}

# Fragment-scaling instances: (name, kind, size, degree, density), drawn
# once from fixed seeds.  They are not relabeled per run: the DFS walks the
# lines in index order, and a relabeling moves its cost by up to 25 %.
SCALING_INSTANCES = (
    ("fermat28-d6", "fermat", 28, 6, None),
    ("fermat20-d8", "fermat", 20, 8, None),
    ("random22-d8", "random", 22, 8, 0.12),
    ("random30-d6", "random", 30, 6, 0.18),
)

# Three tiny calls that touch every layer once (2 lines with the unimodular
# 2U as transcendental lattice, and a small lattice expression), so that
# each per-layer metric is measured on every workload.  They run in the
# traced session only.
PROBE = {"degree": 2, "vertices": 2, "edges": [[0, 1, 3]],
         "transcendental": {"twoU": 1}}
PROBE_EXPRESSION = "D4(3)"

# Known facts about the 48 Fermat lines, checked on every run without
# reference to recorded outputs.
FERMAT_FRAGMENTS = {"rank": 20, "aut_order": 6144, "k4_fragments": 24}
FERMAT_TOTALLY_REAL = {"rank_n": 20, "det_n": -64, "verdict": "NO"}
FERMAT_REAL_WITH_T = {"admissible": 7, "inadmissible": 21}


@dataclass
class Call:
    id: str  # stable across seeds; keys expected.json
    argv: list[str]
    perm: tuple[int, ...] | None = None  # relabeling applied to the input
    graph: tuple | None = None  # (degree, n, edges) before relabeling
    facts: dict = field(default_factory=dict)
    probe: bool = False  # run in the traced session only


def build(workload: str, seed: int, tmp: Path, root: Path, threads: int):
    """The workload's calls, with generated inputs written under tmp."""
    rng = random.Random(f"{workload}:{seed}")
    rel = tmp.relative_to(root)
    conf = ["--json", "--threads", str(threads)]
    calls: list[Call] = []

    def generated(name, degree, n, edges, transcendental=None, perm=None):
        perm = perm or inputs.permutation(n, rng)
        doc = inputs.config_document(degree, n, edges, perm, transcendental)
        inputs.write_json(tmp / f"{name}.json", doc)
        return str(rel / f"{name}.json"), perm, (degree, n, edges)

    if workload == "census":
        for path in sorted((root / "corpus").glob("*.json")):
            name = f"corpus/{path.name}"
            calls.append(Call(f"{name}:fragments",
                              ["fragments", name, "--list-fragments"] + conf))
            calls.append(Call(f"{name}:real", ["real", name] + conf))
            calls.append(Call(f"{name}:totally-real",
                              ["totally-real", name] + conf))
        for path in sorted((root / "corpus").glob("*.lattice")):
            name = f"corpus/{path.name}"
            calls.append(Call(f"{name}:lattice", ["lattice", name, "--json"]))
        for expr in LATTICE_EXPRESSIONS:
            calls.append(Call(f"{expr}:lattice", ["lattice", expr, "--json"]))
        for graph in SWEEP_GRAPHS:
            degree, n, edges = inputs.CATALOG[graph]
            path, perm, g = generated(f"sweep-{graph}", degree, n, edges,
                                      SHARED_T)
            calls.append(Call(f"sweep/{graph}:real", ["real", path] + conf,
                              perm, g))
        return calls

    if workload == "fermat48":
        # In the generator's order: the automorphism search takes 0.2 s on
        # it, 0.4-0.7 s after reordering the pairings and exponents, and
        # 5-25 s after a random relabeling.
        n, edges = inputs.fermat_edges()
        path, perm, g = generated("fermat48", 4, n, edges,
                                  perm=tuple(range(n)))
        tpath = str(rel / "fermat48-def2.json")
        inputs.write_json(tmp / "fermat48-def2.json", inputs.config_document(
            4, n, edges, perm, {"definite2": [8, 0, 8]}))
        calls += [
            Call("fermat48:fragments",
                 ["fragments", path, "--list-fragments"] + conf, perm, g,
                 FERMAT_FRAGMENTS),
            Call("fermat48:totally-real", ["totally-real", path] + conf,
                 perm, g, FERMAT_TOTALLY_REAL),
            Call("fermat48-def2:real", ["real", tpath] + conf, perm, g,
                 FERMAT_REAL_WITH_T),
        ]
        rng.shuffle(calls)
    elif workload == "fragment-scaling":
        for name, kind, size, degree, density in SCALING_INSTANCES:
            irng = random.Random(f"k3lines-bench:{name}")
            if kind == "fermat":
                n, edges = inputs.fermat_subconfiguration(size, irng)
            else:
                n, edges = inputs.random_multigraph(size, density, irng)
            path, perm, g = generated(name, degree, n, edges,
                                      perm=tuple(range(n)))
            calls.append(Call(f"{name}:fragments",
                              ["fragments", path, "--list-fragments"] + conf,
                              perm, g))
        rng.shuffle(calls)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    probe = str(rel / "probe.json")
    inputs.write_json(tmp / "probe.json", PROBE)
    calls += [
        Call("probe:real", ["real", probe] + conf, probe=True),
        Call("probe:totally-real", ["totally-real", probe] + conf, probe=True),
        Call(f"{PROBE_EXPRESSION}:lattice",
             ["lattice", PROBE_EXPRESSION, "--json"], probe=True),
    ]
    return calls


# -- checking outputs ---------------------------------------------------------


def normal_form(call: Call, stdout: str):
    """The parsed output without its input path and digest.  For a relabeled
    input, fragments are mapped back to the generator's vertex numbers and
    candidates are reduced to their relabeling-invariant fields."""
    doc = json.loads(stdout)
    doc.pop("input", None)
    doc.pop("input_sha256", None)
    if call.perm is None:
        return doc
    back = {new: old for old, new in enumerate(call.perm)}
    if "fragments" in doc:
        doc["fragments"] = sorted(
            (sorted(back[v] for v in fr["vertices"]), fr["type"])
            for fr in doc["fragments"]
        )
    if "candidates" in doc:
        doc["candidates"] = sorted(
            (
                sum(1 for i, v in enumerate(c["permutation"]) if i == v),
                c["sign"], c["numR"], c["numRR"], c["admissibility"],
                c["reason"], c["notes"],
            )
            for c in doc["candidates"]
        )
    return doc


def digest(call: Call, stdout: str) -> str:
    text = json.dumps(normal_form(call, stdout), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fact_errors(call: Call, stdout: str) -> list[str]:
    """Checks that need no recorded output: the Fermat quartic's known
    invariants, and that every listed fragment of a generated graph has
    2d lines, each of intra-fragment valency exactly 3."""
    doc = json.loads(stdout)
    errors = []
    want = call.facts
    if "rank" in want:
        inv = doc["invariants"]
        got = (inv["rank"], inv["aut_order"], doc["by_type"])
        if got != (want["rank"], want["aut_order"],
                   {"K4": want["k4_fragments"]}):
            errors.append(f"Fermat fragments/invariants {got}")
    if "det_n" in want:
        got = (doc["rank_n"], doc["det_n"], doc["verdict"])
        if got != (want["rank_n"], want["det_n"], want["verdict"]):
            errors.append(f"Fermat totally-real {got}")
    if "admissible" in want:
        kinds = [c["admissibility"] for c in doc["candidates"]]
        got = (kinds.count("ADMISSIBLE"), kinds.count("INADMISSIBLE"))
        if got != (want["admissible"], want["inadmissible"]) or len(kinds) != sum(got):
            errors.append(f"Fermat real with T: {len(kinds)} candidates {got}")
    if call.graph is not None and "fragments" in doc:
        degree, n, edges = call.graph
        mult = [[0] * n for _ in range(n)]
        for e in edges:
            m = e[2] if len(e) > 2 else 1
            mult[e[0]][e[1]] = mult[e[1]][e[0]] = m
        back = {new: old for old, new in enumerate(call.perm)}
        for fr in doc["fragments"]:
            vs = [back[v] for v in fr["vertices"]]
            if len(vs) != degree or any(
                sum(mult[v][w] for w in vs) != 3 for v in vs
            ):
                errors.append(f"not a fragment: {fr['vertices']}")
                break
        if doc["total"] != len(doc["fragments"]):
            errors.append("fragment total differs from the list")
    return errors
