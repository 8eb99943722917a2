import onionpeel

PUBLIC = [
    "ArcCut", "BDNode", "BranchDecomposition", "Dart", "DiskConversionTrace",
    "Edge", "Embedding", "FaceWalk", "OracleBudget", "PeelDecomposition",
    "RootedForest", "Theorem1Report", "WidthCertificate", "branchdecomp",
    "brute_branchwidth", "brute_outerplanarity", "build_branch_tree",
    "build_rooted_forest", "catalan", "certify_theorem1", "decompose_pipeline",
    "edge_of", "embedding", "epg", "errors", "format_epg", "gen_counterexample",
    "gen_cycle", "gen_k4_minus_edge", "gen_nested_triangles", "gen_path",
    "gen_random_kouter", "gen_wheel", "generators", "is_three_connected",
    "is_triangulated_disk", "is_triangulation", "onion_peels", "oracles",
    "parse_epg", "peeling", "saturate_inward_neighbors", "to_dot",
    "to_full_triangulation", "to_triangulated_disk", "treewidth_bound",
    "triangulate", "validate_forest", "verify_tree_cotree",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the package API must be changed here too
    assert len(PUBLIC) == 49
    assert sorted(onionpeel.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(onionpeel, name) is not None, name
