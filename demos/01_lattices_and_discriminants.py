"""Tour of the lattice layer: Gram matrices, discriminant forms, and the
Gauss-Milgram check.

Run with: python3 demos/01_lattices_and_discriminants.py
"""

from k3lines import (
    brown_invariant,
    build_lattice,
    discriminant_data,
    ell,
    orthogonal_group_definite,
)


def show(expr: str) -> None:
    lattice = build_lattice(expr)
    data = discriminant_data(lattice.gram)
    form = data.form
    pos, neg, _ = lattice.signature
    group = " x ".join(f"Z/{d}" for d in form.orders) or "trivial"
    print(f"{expr:14s} rank {lattice.rank}  signature ({pos},{neg})  "
          f"det {lattice.determinant:6d}  discr {group}")


print("Root lattices are negative definite here; U is the hyperbolic plane.")
for expr in ("A2", "E8", "U", "U(2)", "2U(3)", "[8,4,8]", "[2]+A2(3)"):
    show(expr)

print()
print("The discriminant form remembers the lattice glue.  For the")
print("intersection form [8,4,8] of the Schur quartic:")
schur = build_lattice("[8,4,8]")
form = discriminant_data(schur.gram).form
print("  invariant factors:", form.orders)
print("  q on generators:  ", [str(q) for q in form.qvalues])
print("  minimal generator counts: ell_2 =", ell(form, 2),
      " ell_3 =", ell(form, 3))

brown = brown_invariant(form)
pos, neg, _ = schur.signature
print("  Brown invariant", brown, "matches signature", pos - neg,
      "mod 8:", (pos - neg - brown) % 8 == 0)

print()
print("Definite binary forms have tiny orthogonal groups, enumerated")
print("exactly from short vectors:")
for expr in ("[2,0,2]", "[2,1,2]", "[8,4,8]"):
    group = orthogonal_group_definite(build_lattice(expr))
    print(f"  |O({expr})| = {len(group)}")
