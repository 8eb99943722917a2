"""onionpeel: outerplanarity-controlled triangulation of planar embeddings.

Rotation-system embeddings, onion-peel decompositions, conversion of
k-outerplanar embeddings to k-outerplanar triangulated disks and
(k+1)-outerplanar triangulations, branch decompositions of width at most
2k, and brute-force oracles certifying the bounds at desk scale.
"""

from . import errors
from .branchdecomp import (
    ArcCut,
    BDNode,
    BranchDecomposition,
    WidthCertificate,
    build_branch_tree,
    decompose_pipeline,
    treewidth_bound,
    verify_tree_cotree,
)
from .embedding import (
    Dart,
    Edge,
    Embedding,
    FaceWalk,
    build_embedding,
    edge_of,
    is_triangulated_disk,
    is_triangulation,
)
from .epg import format_epg, parse_epg, to_dot
from .generators import (
    GadgetSpec,
    build_gadget,
    gen_counterexample,
    gen_cycle,
    gen_k4_minus_edge,
    gen_nested_triangles,
    gen_path,
    gen_random_kouter,
    gen_wheel,
)
from .oracles import (
    OracleBudget,
    Theorem1Report,
    brute_branchwidth,
    brute_outerplanarity,
    catalan,
    certify_theorem1,
    is_three_connected,
)
from .peeling import (
    ForestCertificate,
    PeelDecomposition,
    RootedForest,
    build_rooted_forest,
    onion_peels,
    saturate_inward_neighbors,
    validate_forest,
    verify_forest_bound,
)
from .triangulate import (
    DiskConversionTrace,
    to_full_triangulation,
    to_triangulated_disk,
)

__version__ = "0.1.0"

__all__ = [
    # submodules
    "branchdecomp", "embedding", "epg", "errors", "generators", "oracles",
    "peeling", "triangulate",
    # branchdecomp
    "ArcCut", "BDNode", "BranchDecomposition", "WidthCertificate",
    "build_branch_tree", "decompose_pipeline", "treewidth_bound",
    "verify_tree_cotree",
    # embedding
    "Dart", "Edge", "Embedding", "FaceWalk", "build_embedding", "edge_of",
    "is_triangulated_disk", "is_triangulation",
    # epg
    "format_epg", "parse_epg", "to_dot",
    # generators
    "GadgetSpec", "build_gadget", "gen_counterexample", "gen_cycle",
    "gen_k4_minus_edge", "gen_nested_triangles", "gen_path",
    "gen_random_kouter", "gen_wheel",
    # oracles
    "OracleBudget", "Theorem1Report", "brute_branchwidth",
    "brute_outerplanarity", "catalan", "certify_theorem1",
    "is_three_connected",
    # peeling
    "ForestCertificate", "PeelDecomposition", "RootedForest",
    "build_rooted_forest", "onion_peels", "saturate_inward_neighbors",
    "validate_forest", "verify_forest_bound",
    # triangulate
    "DiskConversionTrace", "to_full_triangulation", "to_triangulated_disk",
]
