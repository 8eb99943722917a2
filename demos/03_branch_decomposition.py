#!/usr/bin/env python3
"""Branch decompositions of width at most 2k from rooted forests.

After disk conversion, a multi-source BFS from the outer cycle gives a
spanning forest of height at most k-1.  The duals of the non-forest,
non-outer edges form a tree on the inner faces; subdividing its arcs and
hanging one leaf per edge yields a branch decomposition whose every cut
is covered by two root paths plus one edge, so the width is at most
2(height+1) <= 2k, and the treewidth is at most 3k-1.
"""

from onionpeel import (
    build_branch_tree,
    build_rooted_forest,
    decompose_pipeline,
    gen_counterexample,
    gen_nested_triangles,
    gen_wheel,
    to_triangulated_disk,
    verify_tree_cotree,
)

# Step by step on K4.
disk, _ = to_triangulated_disk(gen_wheel(3))
forest = build_rooted_forest(disk)
print("K4 forest: roots", sorted(forest.roots), "parents", dict(forest.parent))
bd = build_branch_tree(disk, forest)  # built, cut and certified in one call
faces = [n.face for n in bd.nodes if n.kind == "face"]
dual = {n.id: [] for n in bd.nodes if n.kind == "arc"}  # arc node -> its faces
for a, b in bd.arcs:
    if bd.nodes[a].kind == "face" and b in dual:
        dual[b].append(bd.nodes[a].face)
print("dual tree: faces", faces, "arcs", [tuple(fs) for fs in dual.values()])
verify_tree_cotree(disk, forest)  # the tree-co-tree route agrees
print(f"branch tree: {len(bd.nodes)} nodes, width {bd.width}")
for cut in bd.cuts:
    print(f"  arc {cut.arc}: crossing {sorted(cut.crossing)}")

# The one-call pipeline, on instances of growing depth.
print("\npipeline certificates:")
for name, emb in [
    ("wheel(6)", gen_wheel(6)),
    ("nested triangles (k=4)", gen_nested_triangles(4)),
    ("counterexample gadget (k=3)", gen_counterexample(3)),
]:
    cert = decompose_pipeline(emb)
    print(f"  {name}: k={cert.peel_count} height={cert.forest_height} "
          f"width={cert.width} <= {cert.width_bound}, tw <= {cert.tw_bound}")
