#!/usr/bin/env python3
"""Embeddings, face tracing, and onion peels.

A combinatorial embedding is just a cyclic neighbor order per vertex plus
a choice of outer face.  This script builds a few embeddings by hand and
with the generators, traces their faces, and peels them layer by layer.
"""

from onionpeel import (
    Embedding,
    format_epg,
    gen_nested_triangles,
    gen_wheel,
    onion_peels,
    to_dot,
)

# The smallest interesting embedding: a triangle.  Darts are ordered
# vertex pairs; the outer dart (0, 1) picks which of the two face walks
# is the unbounded one.
triangle = Embedding({0: [1, 2], 1: [2, 0], 2: [0, 1]}, [(0, 1)])
print("triangle faces:")
for f in triangle.faces:
    print("  ", f.vertices, "(outer)" if f.is_outer else "(inner)")

# K4 drawn with an outer triangle: the hub vertex 3 is one layer deep.
k4 = gen_wheel(3)
print("\nK4 peels:", [sorted(layer) for layer in onion_peels(k4).layers])

# Peel i is what lies on the outer region once peels 1..i-1 are deleted.
# onion_peels finds every layer in one search, deleting nothing: peel i is
# the set of vertices on a face that touches peel i-1 but not on any
# earlier peel.
t3 = gen_nested_triangles(3)
layers = onion_peels(t3).layers
print("\npeeling three nested triangles:")
for i, layer in enumerate(layers, 1):
    print(f"  peel {i}: {sorted(layer)}")

# So every vertex one layer deep sees the layer above it through one of
# its faces; list those witness faces.
print("\ninward-face witnesses (vertex -> face indices):")
for i, layer in enumerate(layers[1:], 2):
    above = layers[i - 2]
    for v in sorted(layer):
        faces = [
            fi for fi, f in enumerate(t3.faces)
            if v in f.vertex_set and f.vertex_set & above
        ]
        print(f"  {v} (peel {i}): {tuple(faces)}")

# Embeddings serialize to EPG text and DOT.
print("\nEPG for the triangle:")
print(format_epg(triangle), end="")
print("\nDOT for K4:")
print(to_dot(k4), end="")
