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
    "FqfIsometry": "fqf",
    "brown_invariant": "fqf",
    "ell": "fqf",
    "finite_quadratic_form": "fqf",
    "involution_classes": "fqf",
    "isotropic_quotient": "fqf",
    "DiscriminantData": "lattices",
    "Isometry": "lattices",
    "Lattice": "lattices",
    "build_lattice": "lattices",
    "discriminant_data": "lattices",
    "invariant_sublattice": "lattices",
    "orthogonal_group_definite": "lattices",
    "Multigraph": "multigraph",
    "PermutationGroup": "multigraph",
    "canonical_certificate": "multigraph",
    "girth": "multigraph",
    "graph_automorphism_group": "multigraph",
    "ADMISSIBLE": "realcrit",
    "INADMISSIBLE": "realcrit",
    "UNKNOWN": "realcrit",
    "Definite2": "realcrit",
    "GenericDiscr": "realcrit",
    "TwoU": "realcrit",
    "Verdict": "realcrit",
    "match_real_structure": "realcrit",
    "t_side_involution_classes": "realcrit",
    "totally_real_criterion": "realcrit",
    "two_u_involutions": "realcrit",
}


__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
