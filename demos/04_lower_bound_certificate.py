#!/usr/bin/env python3
"""Why the extra peel is unavoidable: the desk-scale lower bound.

Some k-outerplanar graphs cannot be triangulated without becoming
(k+1)-outerplanar.  The witness for k=2 is a 24-vertex triangulated disk
made of four nested-triangle gadgets around an octagon.  The gadget is
3-connected, so its sphere embedding is unique; the octagon has exactly
Catalan(6) = 132 triangulations, and peeling each one from every possible
outer face never gets below 3 peels.
"""

import time

from onionpeel import (
    brute_branchwidth,
    brute_outerplanarity,
    certify_theorem1,
    gen_counterexample,
    gen_cycle,
    is_three_connected,
    onion_peels,
    to_full_triangulation,
)

# Warm-up: K4 minus an edge is the k=1 witness; its one triangulation is K4.
print("k=1:", certify_theorem1(1))

# The k=2 certificate, fully exhaustive.
t0 = time.monotonic()
report = certify_theorem1(2)
print(f"\nk=2 ({time.monotonic() - t0:.1f} s):")
print(f"  gadget 3-connected: {report.three_connected}")
print(f"  triangulations of the octagon: {report.triangulation_count}")
print(f"  minimum outerplanarity over all of them: {report.min_outerplanarity}")
print(f"  certified: {report.passed}")

# The upper bound meets it with equality: our own triangulation of the
# gadget achieves exactly k+1 peels, for every k we can generate.
print("\nequality spot-checks:")
for k in range(2, 7):
    tri, _ = to_full_triangulation(gen_counterexample(k))
    print(f"  k={k}: triangulated gadget peels = {onion_peels(tri).k}")

# The small oracles that anchor everything else.
print("\nsmall-graph ground truth:")
print("  branchwidth of K4-as-cycle4-triangulation:",
      brute_branchwidth(to_full_triangulation(gen_cycle(4))[0]))
print("  outerplanarity of the 4-cycle:", brute_outerplanarity(gen_cycle(4)))
print("  gadget 3-connectivity re-checked:",
      is_three_connected(gen_counterexample(2)))
