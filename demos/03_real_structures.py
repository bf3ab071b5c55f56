"""Tour of the real-structure layer: which fragments can be real, which
totally real, and what the arithmetic says.

A real structure acts on the configuration as a graph involution combined
with negation.  Fragments fixed setwise count toward numR, fragments fixed
line by line toward numRR.  Whether a candidate involution extends to the
whole K3 lattice is screened through discriminant-form arithmetic.

Run with: python3 demos/03_real_structures.py
"""

from k3lines import (
    Analysis,
    Definite2,
    Lattice,
    LineConfiguration,
    Multigraph,
    build_lattice,
    catalog_graph,
    discriminant_data,
    totally_real_criterion,
    two_u_involutions,
)

print("K(3,3) at 2d = 6, no transcendental data: the identity is the")
print("only candidate the screening rules can decide.")
k33 = Analysis(LineConfiguration(6, catalog_graph("K33")))
for cand in k33.real_structure_candidates(None):
    print(f"  sigma {cand.isometry.permutation}  "
          f"(numR, numRR) = ({cand.num_r}, {cand.num_rr})  "
          f"{cand.admissibility}")

print()
print("The prism admits an involution swapping its two triangles: the")
print("fragment survives setwise but no line is fixed.")
prism = Analysis(LineConfiguration(6, catalog_graph("prism")))
print("  identity:     ", prism.count_fragments_under((0, 1, 2, 3, 4, 5)))
print("  triangle swap:", prism.count_fragments_under((3, 4, 5, 0, 1, 2)))

print()
print("With a definite transcendental lattice attached, gluing becomes")
print("decisive.  A triangle of lines at degree 6 pairs with the 3-scaled")
print("hexagonal plane; only the line swap matches one of its reflections.")
triangle = Multigraph(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
spec = Definite2(Lattice(((6, 3), (3, 6))))
cfg = LineConfiguration(6, triangle, transcendental=spec)
for cand in Analysis(cfg).real_structure_candidates(cfg.transcendental):
    print(f"  sigma {cand.isometry.permutation}  {cand.admissibility}  "
          f"({cand.reason})")

print()
print("The totally-real existence criterion works genus by genus.  The")
print("Schur quartic transcendental lattice [8,4,8] fails it: no totally")
print("real configuration exists in that genus.")
schur = discriminant_data(build_lattice("[8,4,8]").gram).form
verdict = totally_real_criterion(schur.negated(), 2, -48)
print("  verdict:", verdict.kind)
for reason in verdict.reasons:
    print("   ", reason)

print()
print("The five standard involutions of the double hyperbolic plane, by")
print("fixed sublattice:")
for label, isometry in two_u_involutions():
    print(f"  fixed part {label:9s} involution rows {isometry.matrix}")
