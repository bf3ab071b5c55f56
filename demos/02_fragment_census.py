"""Tour of the fragment census: which hyperplane sections split into lines.

A configuration is a multigraph of lines plus a polarization degree 2d.
A fragment is a set of 2d lines forming a split hyperplane section; inside
the Neron-Severi lattice this forces each line to meet the others with
total multiplicity exactly three.

Run with: python3 demos/02_fragment_census.py
"""

from k3lines import (
    Analysis,
    LineConfiguration,
    catalog_graph,
    catalog_names,
    enumerate_fragments,
    graph_invariants,
)

HOME_DEGREE = {
    "tritangent-pair": 2,
    "K4": 4,
    "prism": 6,
    "K33": 6,
    "K3+K32": 8,
    "wagner": 8,
    "cube": 8,
}

print("The seven catalog graphs each form a single fragment at their")
print("home degree.  Invariants are (rank, girth, |Aut|).")
for name in catalog_names():
    graph = catalog_graph(name)
    cfg = LineConfiguration(HOME_DEGREE[name], graph)
    fragments = enumerate_fragments(cfg)
    print(f"  {name:16s} 2d={cfg.degree}  invariants "
          f"{graph_invariants(graph)}  fragments "
          f"{[f.type_label for f in fragments]}")

print()
print("The Fano lattice of the K(3,3) configuration at 2d = 6 is")
print("degenerate: the class sum of all six lines equals h.")
k33 = LineConfiguration(6, catalog_graph("K33"))
data = Analysis(k33)
print("  radical basis:", data.radical)
print("  quotient signature:", data.quotient_signature)

print()
print("A disjoint union carries one fragment per component, but no")
print("polarized K3 surface realizes it; the library says so.")
prism = catalog_graph("prism")
mult = [[0] * 12 for _ in range(12)]
for i in range(6):
    for j in range(6):
        mult[i][j] = prism.mult[i][j]
        mult[6 + i][6 + j] = catalog_graph("K33").mult[i][j]
from k3lines import Multigraph

union = LineConfiguration(6, Multigraph(tuple(tuple(r) for r in mult)))
for fragment in enumerate_fragments(union):
    print("  fragment", fragment.vertices, "type", fragment.type_label)
for warning in Analysis(union).warnings:
    print("  warning:", warning)
