"""m-cluster combinatorics and the orbit-category model for simply-laced
root systems, with two independent compatibility oracles."""

from .root_system import (DynkinType, Root, RootSystem, build_root_system,
                          parabolic, parse_type)
from .coloured_roots import (ColouredRoot, RotationTable, compatibility_degree,
                             compatible_combinatorial, coloured_ground_set,
                             rotation_R, rotation_Rm, rotation_table, tau_eps)
from .derived import DerivedCategory, DerivedObject, derived_category, shift
from .orbit_category import (MClusterCategory, compatible_categorical,
                             mcluster_category)
from .cluster_complex import (CompatibilityGraph, FaceWalk, Report, TiltingSet,
                              build_graph, complements, complex_to_json,
                              enumerate_facets, f_vector,
                              verify_complement_counts, verify_facet_sizes,
                              verify_parabolic_restriction,
                              verify_vertex_deletions, walk_faces)

__all__ = [
    "DynkinType", "Root", "RootSystem", "build_root_system", "parabolic",
    "parse_type",
    "ColouredRoot", "RotationTable", "compatibility_degree",
    "compatible_combinatorial", "coloured_ground_set", "rotation_R",
    "rotation_Rm", "rotation_table", "tau_eps",
    "BipartiteQuiver", "Representation", "ext1_dim", "euler_form", "hom_dim",
    "indecomposable_for_root", "injective", "projective",
    "DerivedCategory", "DerivedObject", "derived_category", "shift",
    "MClusterCategory", "compatible_categorical", "mcluster_category",
    "CompatibilityGraph", "FaceWalk", "Report", "TiltingSet", "build_graph",
    "complements", "complex_to_json", "enumerate_facets", "f_vector",
    "verify_complement_counts", "verify_facet_sizes",
    "verify_parabolic_restriction", "verify_vertex_deletions", "walk_faces",
]

__version__ = "0.1.0"

# The module witness (``quiver_rep``, with its ``Fraction`` linear algebra)
# is no part of what ``mcluster`` runs, so it is imported on first access
# to one of its names, not with the package.
_WITNESS = ("BipartiteQuiver", "Representation", "ext1_dim", "euler_form", "hom_dim",
            "indecomposable_for_root", "injective", "projective")


def __getattr__(name: str):
    if name in _WITNESS:
        from . import quiver_rep
        value = globals()[name] = getattr(quiver_rep, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
