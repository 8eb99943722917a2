import dataclasses

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


def test_branch_tree_attributes_are_pinned():
    # the tree is stored flat; nodes and cuts are built on first read
    fields = [f.name for f in dataclasses.fields(onionpeel.BranchDecomposition)]
    assert fields == ["arcs", "assignment", "width", "faces", "arc_edges"]
    assert [f.name for f in dataclasses.fields(onionpeel.WidthCertificate)][-1] == "tree"
    cert = onionpeel.decompose_pipeline(onionpeel.gen_wheel(3))
    bd = cert.tree
    assert isinstance(bd, onionpeel.BranchDecomposition)
    assert all(isinstance(n, onionpeel.BDNode) for n in bd.nodes)
    assert all(isinstance(c, onionpeel.ArcCut) for c in bd.cuts)
    assert [c.arc for c in bd.cuts] == list(bd.arcs)
    assert len(bd.nodes) == len(bd.arcs) + 1 == len(bd.faces) + len(bd.arc_edges) + 6
    assert sorted(bd.assignment) == list(onionpeel.gen_wheel(3).edges)
    assert bd.width == cert.width
