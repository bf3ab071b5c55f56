"""Exact-arithmetic toolkit for line configurations on polarized K3 surfaces.

The library decides, for a polarization degree 2d and a multigraph of lines
together with lattice-extension data, how many hyperplane sections split into
lines, which of those can be real or totally real under a real structure, and
whether the arithmetic existence criteria for totally real configurations
hold.  Everything is computed over exact integers and rationals.
"""

__version__ = "0.1.0"

from .configio import load_configuration, read_configuration
from .errors import CapExceeded, InputError
from .fano import (
    Analysis,
    Fragment,
    LineConfiguration,
    PolarizedIsometry,
    PolarizedStabilizer,
    RealCandidate,
    catalog_graph,
    catalog_names,
    class_sum_in_radical,
    classify_fragment,
    count_fragments_under,
    enumerate_fragments,
    graph_automorphisms,
    graph_invariants,
    polarized_stabilizer,
    real_structure_candidates,
)
from .fqf import (
    FiniteQuadraticForm,
    FqfIsometry,
    brown_invariant,
    ell,
    finite_quadratic_form,
    fqf_isometries,
    involution_classes,
    isotropic_quotient,
)
from .lattices import (
    DiscriminantData,
    Isometry,
    Lattice,
    build_lattice,
    discriminant_data,
    invariant_sublattice,
    invariants_match,
    orthogonal_group_definite,
)
from .multigraph import (
    Multigraph,
    PermutationGroup,
    canonical_certificate,
    girth,
    graph_automorphism_group,
)
from .realcrit import (
    ADMISSIBLE,
    INADMISSIBLE,
    UNKNOWN,
    Definite2,
    GenericDiscr,
    TwoU,
    Verdict,
    match_real_structure,
    t_side_involution_classes,
    totally_real_criterion,
    two_u_involutions,
)

__all__ = [
    "ADMISSIBLE",
    "Analysis",
    "CapExceeded",
    "Definite2",
    "DiscriminantData",
    "FiniteQuadraticForm",
    "FqfIsometry",
    "Fragment",
    "GenericDiscr",
    "INADMISSIBLE",
    "InputError",
    "Isometry",
    "Lattice",
    "LineConfiguration",
    "Multigraph",
    "PermutationGroup",
    "PolarizedIsometry",
    "PolarizedStabilizer",
    "RealCandidate",
    "TwoU",
    "UNKNOWN",
    "Verdict",
    "brown_invariant",
    "build_lattice",
    "canonical_certificate",
    "catalog_graph",
    "catalog_names",
    "class_sum_in_radical",
    "classify_fragment",
    "count_fragments_under",
    "discriminant_data",
    "ell",
    "enumerate_fragments",
    "finite_quadratic_form",
    "fqf_isometries",
    "girth",
    "graph_automorphism_group",
    "graph_automorphisms",
    "graph_invariants",
    "invariant_sublattice",
    "invariants_match",
    "involution_classes",
    "isotropic_quotient",
    "load_configuration",
    "match_real_structure",
    "orthogonal_group_definite",
    "polarized_stabilizer",
    "read_configuration",
    "real_structure_candidates",
    "t_side_involution_classes",
    "totally_real_criterion",
    "two_u_involutions",
    "__version__",
]
