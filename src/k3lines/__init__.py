"""Exact-arithmetic toolkit for line configurations on polarized K3 surfaces.

The library decides, for a polarization degree 2d and a multigraph of lines
together with lattice-extension data, how many hyperplane sections split into
lines, which of those can be real or totally real under a real structure, and
whether the arithmetic existence criteria for totally real configurations
hold.  Everything is computed over exact integers and rationals.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so `import k3lines` loads no submodule and a
# command pays only for the modules it runs.
_MODULE_OF = {
    "load_configuration": "configio",
    "CapExceeded": "errors",
    "InputError": "errors",
    "Analysis": "fano",
    "Fragment": "fano",
    "LineConfiguration": "fano",
    "PolarizedIsometry": "fano",
    "RealCandidate": "fano",
    "catalog_graph": "fano",
    "catalog_names": "fano",
    "classify_fragment": "fano",
    "enumerate_fragments": "fano",
    "FiniteQuadraticForm": "fqf",
    "brown_invariant": "fqf",
    "ell": "fqf",
    "finite_quadratic_form": "fqf",
    "isotropic_quotient": "fqf",
    "ADMISSIBLE": "gluing",
    "INADMISSIBLE": "gluing",
    "UNKNOWN": "gluing",
    "FqfIsometry": "gluing",
    "Isometry": "gluing",
    "invariant_sublattice": "gluing",
    "match_real_structure": "gluing",
    "orthogonal_group_definite": "gluing",
    "t_side_involution_classes": "gluing",
    "two_u_involutions": "gluing",
    "Definite2": "lattices",
    "DiscriminantData": "lattices",
    "GenericDiscr": "lattices",
    "Lattice": "lattices",
    "TwoU": "lattices",
    "build_lattice": "lattices",
    "discriminant_data": "lattices",
    "Multigraph": "multigraph",
    "PermutationGroup": "multigraph",
    "canonical_certificate": "multigraph",
    "girth": "multigraph",
    "graph_automorphism_group": "multigraph",
    "Verdict": "realcrit",
    "totally_real_criterion": "realcrit",
}


__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
