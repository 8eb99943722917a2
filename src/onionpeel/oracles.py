"""Brute-force ground truth at desk scale.

Three independent oracles: exact branchwidth by enumerating every unrooted
binary tree over the edge set (with monotone pruning), exact graph
outerplanarity by enumerating every rotation system up to mirror image
and every outer-face choice, and exhaustive polygon triangulation of a
single face, as face vertex masks.  Together they certify the lower-bound
theorem: the 12k-vertex counterexample gadget is 3-connected, so its
sphere embedding is unique and scanning outer-face choices of each face
triangulation covers every drawing of every triangulation.  The
certificate builds no embedding beyond the gadget itself, so it shares
no construction code with the pipeline.

The kernels run on integers: a rotation system is a successor permutation
of numbered darts, whose cycle count is the Euler check, and a face is a
bitmask of its vertices.  Peel counts come from one breadth-first search
over co-facial neighbourhood masks (:func:`_min_peels`), which shares no
code with the pipeline's :func:`onion_peels`.

Budgets are hard caps with explicit errors, never silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from typing import Iterator

from .embedding import Edge, Embedding, _components
from .errors import (
    BadParameter,
    BudgetExceeded,
    InvariantViolation,
    NotPlanar,
    SelfLoop,
)
from .generators import gen_counterexample, gen_k4_minus_edge


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 9
    max_vertices: int = 7

    def __post_init__(self):
        if min(self.max_edges, self.max_vertices) < 1:
            raise BadParameter("budgets must be positive")


#: most polygon triangulations theorem 1 enumerates of one face; its faces
#: are the gadget's 8-gon (Catalan(6) = 132) and K4 minus an edge's 4-face (2)
MAX_CHORD_SETS = 10**6


def _edge_list(graph) -> list[Edge]:
    if isinstance(graph, Embedding):
        return list(graph.edges)
    return sorted({(min(u, v), max(u, v)) for u, v in graph})


def _adjacency(graph) -> dict[int, set[int]]:
    if isinstance(graph, Embedding):
        return {v: set(graph.rotation(v)) for v in graph.vertices}
    adj: dict[int, set[int]] = {}
    for u, v in _edge_list(graph):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def brute_branchwidth(graph, budget: OracleBudget | None = None) -> int:
    """Exact branchwidth by exhaustive search over leaf-labeled trees.

    Minimum, over all (2E-5)!! unrooted binary trees with one leaf per
    edge, of the maximum arc cut.  Graphs with at most one edge have
    branchwidth 0 by convention (no arc separates anything).
    """
    budget = budget or OracleBudget()
    edges = _edge_list(graph)
    n = len(edges)
    if n > budget.max_edges:
        raise BudgetExceeded(f"{n} edges exceeds budget {budget.max_edges}")
    if n <= 1:
        return 0
    verts = sorted({v for e in edges for v in e})
    inc = {v: 0 for v in verts}
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    incs = [inc[v] for v in verts]
    if n == 2:
        return sum(1 for m in incs if m == 3)

    # nodes: leaves 0..n-1 (leaf i holds edge i), internal nodes n..2n-3
    adj: dict[int, set[int]] = {0: {n}, 1: {n}, 2: {n}, n: {0, 1, 2}}
    next_internal = n + 1
    best = n + 1  # width never exceeds the vertex count of any edge set

    def width(placed: int) -> int:
        # subtree leaf-masks from an arbitrary internal root
        root = n
        parent = {root: root}
        order = [root]
        for x in order:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        mask = {x: (1 << x if x < n else 0) for x in order}
        for x in reversed(order[1:]):
            mask[parent[x]] |= mask[x]
        w = 0
        for x in order[1:]:
            side = mask[x]
            c = 0
            for m in incs:
                mp = m & placed
                if mp & side and mp & ~side:
                    c += 1
            if c > w:
                w = c
        return w

    def rec(leaf: int, placed: int) -> None:
        nonlocal best, next_internal
        if leaf == n:
            w = width(placed)
            if w < best:
                best = w
            return
        arcs = [(a, b) for a in adj for b in adj[a] if a < b]
        bit = 1 << leaf
        for a, b in arcs:
            z = next_internal
            next_internal += 1
            adj[a].discard(b)
            adj[b].discard(a)
            adj[z] = {a, b, leaf}
            adj[a].add(z)
            adj[b].add(z)
            adj[leaf] = {z}
            if width(placed | bit) < best:
                rec(leaf + 1, placed | bit)
            del adj[z], adj[leaf]
            adj[a].discard(z)
            adj[b].discard(z)
            adj[a].add(b)
            adj[b].add(a)
            next_internal -= 1

    rec(3, 0b111)
    return best


def brute_outerplanarity(graph, budget: OracleBudget | None = None) -> int:
    """Exact outerplanarity: minimum peel count over all drawings.

    Enumerates every rotation system up to mirror image (a mirrored
    system traces the same faces reversed), keeps those whose dart
    successor permutation has the cycle count Euler's formula asks for,
    and minimizes the peel count, found by a bitmask co-facial search,
    over every face chosen as outer.  A disconnected graph takes the maximum
    over components (drawn side by side).
    """
    budget = budget or OracleBudget()
    adj = _adjacency(graph)
    loops = sorted(v for v, ns in adj.items() if v in ns)
    if loops:
        raise SelfLoop(f"vertex {loops[0]} lists itself as a neighbor")
    if len(adj) > budget.max_vertices:
        raise BudgetExceeded(
            f"{len(adj)} vertices exceeds budget {budget.max_vertices}"
        )
    if not adj:
        return 0
    result = 0
    for comp in _abstract_components(adj):
        result = max(result, _component_outerplanarity(comp, adj))
    return result


def _abstract_components(adj: dict[int, set[int]]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for v, c in sorted(_components(adj).items()):
        groups.setdefault(c, []).append(v)
    return [groups[c] for c in sorted(groups)]


def _component_outerplanarity(comp: list[int], adj: dict[int, set[int]]) -> int:
    """Fewest peels of one connected component over all its drawings.

    Darts are numbered so that the darts entering each vertex form one
    block, in sorted order of their tails.  A cyclic order at a vertex is
    then one block of successor indices, and a rotation system is the
    concatenation of one block per vertex: a permutation of the darts
    whose cycles are the face walks, so the Euler check counts cycles.
    A system and its mirror image trace the same faces reversed, so the
    first vertex of degree >= 3 keeps one order of each mirror pair.
    """
    if len(comp) == 1:
        return 1
    nbrs = {v: sorted(adj[v]) for v in comp}
    base: dict[int, int] = {}
    head_bits: list[int] = []
    for i, v in enumerate(comp):
        base[v] = len(head_bits)
        head_bits += [1 << i] * len(nbrs[v])
    pos = {(u, v): base[v] + j for v in comp for j, u in enumerate(nbrs[v])}
    blocks = []
    mirror_fixed = False
    for v in comp:
        ns = nbrs[v]
        orders = [(ns[0],) + p for p in permutations(ns[1:])]
        if len(ns) >= 3 and not mirror_fixed:
            orders = [o for o in orders if o[1] < o[-1]]
            mirror_fixed = True
        block = []
        for o in orders:
            after = {u: o[(j + 1) % len(o)] for j, u in enumerate(o)}
            block.append(tuple(pos[(v, after[u])] for u in ns))
        blocks.append(block)
    n_darts = len(head_bits)
    planar_faces = 2 - len(comp) + n_darts // 2
    best: int | None = None
    for combo in product(*blocks):
        succ = list(chain.from_iterable(combo))
        seen = bytearray(n_darts)
        faces = 0
        for start in range(n_darts):
            if not seen[start]:
                faces += 1
                d = start
                while not seen[d]:
                    seen[d] = 1
                    d = succ[d]
        if faces != planar_faces:
            continue
        # few systems are planar, so only they pay for the vertex masks
        masks = []
        seen = bytearray(n_darts)
        for start in range(n_darts):
            if not seen[start]:
                mask = 0
                d = start
                while not seen[d]:
                    seen[d] = 1
                    mask |= head_bits[d]
                    d = succ[d]
                masks.append(mask)
        k = _min_peels(masks, len(comp))
        if best is None or k < best:
            best = k
    if best is None:
        raise NotPlanar(
            f"no rotation system of component {comp[:4]}... achieves genus 0"
        )
    return best


def _min_peels(face_masks: list[int], n: int) -> int:
    """Fewest peels over every face chosen as outer, on vertex bitmasks.

    Vertices are bits 0..n-1 and each face is the mask of its vertices.
    From each start face, a breadth-first search adds, per layer, every
    unplaced vertex sharing a face with the layer, and counts the layers:
    the peel count with that face outer.  A later start is abandoned as
    soon as it needs at least the best count so far.  The first start
    runs to the end: a vertex it never reaches raises a bug certificate,
    and would be unreached from every start, as co-facial reachability
    is connectivity.
    """
    near = [0] * n
    for mask in face_masks:
        rest = mask
        while rest:
            low = rest & -rest
            near[low.bit_length() - 1] |= mask
            rest ^= low
    everyone = (1 << n) - 1
    best = n
    for i, start in enumerate(face_masks):
        placed = layer = start
        peels = 0
        while layer and (i == 0 or peels + 1 < best):
            peels += 1
            reach = 0
            while layer:
                low = layer & -layer
                reach |= near[low.bit_length() - 1]
                layer ^= low
            layer = reach & ~placed
            placed |= layer
        if i == 0 and placed != everyone:
            raise InvariantViolation(
                f"co-facial search never reached {bin(everyone & ~placed).count('1')} "
                "vertices"
            )
        if not layer:
            best = peels
    return best


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _polygon_triangulations(i: int, j: int) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Triangles (i, k, j) of every triangulation of the sub-polygon c_i..c_j."""
    if j - i < 2:
        yield ()
        return
    for k in range(i + 1, j):
        for left in _polygon_triangulations(i, k):
            for right in _polygon_triangulations(k, j):
                yield left + right + ((i, k, j),)


def _face_fillings(gadget: Embedding) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Triangles filling the gadget's one long face, one tuple per triangulation.

    The long face must be the outer face, simple, and the only face that is
    not a triangle; anything else is a bug certificate.  Fillings are the
    Catalan(m-2) polygon triangulations, less those with a chord that is
    already an edge.  Each adds m-2 triangles and no parallel edge, so one
    face count of 2n-4, checked once, makes every filling a triangulation.
    """
    long_faces = [f for f in gadget.faces if len(f) != 3]
    if len(long_faces) != 1 or not long_faces[0].is_outer:
        raise InvariantViolation("gadget must have exactly one non-triangle face")
    face = long_faces[0]
    if not face.is_simple:
        raise InvariantViolation(f"gadget face {face.vertices} repeats a vertex")
    c = face.vertices
    m = len(c)
    if len(gadget.faces) + m - 3 != 2 * gadget.vertex_count - 4:
        raise InvariantViolation("filling the long face gives no triangulation")
    if catalan(m - 2) > MAX_CHORD_SETS:
        raise BudgetExceeded(
            f"Catalan({m - 2}) = {catalan(m - 2)} exceeds budget {MAX_CHORD_SETS}"
        )
    for tris in _polygon_triangulations(0, m - 1):
        chords = [(i, k) for i, k, _ in tris if k - i > 1]
        chords += [(k, j) for _, k, j in tris if j - k > 1]
        if not any(gadget.has_edge(c[a], c[b]) for a, b in chords):
            yield tuple((c[i], c[k], c[j]) for i, k, j in tris)


def _triangulation_masks(gadget: Embedding) -> Iterator[list[int]]:
    """Face vertex masks of each triangulation of the gadget's long face."""
    bit = {v: 1 << i for i, v in enumerate(gadget.vertices)}
    fixed = [sum(bit[v] for v in f.vertex_set) for f in gadget.faces if len(f) == 3]
    for filling in _face_fillings(gadget):
        yield fixed + [bit[a] | bit[b] | bit[c] for a, b, c in filling]


def is_three_connected(graph) -> bool:
    """1- and 2-cut check on an embedding or an edge list.

    With 4 or more vertices, the graph is 3-connected iff removing any
    one vertex leaves it connected and without an articulation point:
    one low-point search per removed vertex.  A disconnected graph fails
    at a 1-cut.
    """
    adj = _adjacency(graph)
    if len(adj) < 4:
        return False
    return not any(_cut_vertex_without(adj, r) for r in adj)


def _cut_vertex_without(adj: dict[int, set[int]], r: int) -> bool:
    """Whether G - r is disconnected or has an articulation point.

    Iterative depth-first search with Hopcroft-Tarjan low points: a
    non-root vertex p is an articulation point iff some child x of p has
    low[x] >= disc[p], and the root iff it has two or more children.  The
    tree edge back to p may count as a back edge: it lowers low[x] to
    disc[p] at most, which leaves that test as it was.
    """
    start = next(v for v in adj if v != r)
    disc = {start: 0}
    low = {start: 0}
    root_children = 0
    stack = [(start, None, iter(adj[start]))]
    while stack:
        x, px, todo = stack[-1]
        for y in todo:
            if y == r:
                continue
            if y not in disc:
                disc[y] = low[y] = len(disc)
                stack.append((y, x, iter(adj[y])))
                break
            low[x] = min(low[x], disc[y])
        else:
            stack.pop()
            if px == start:
                root_children += 1
            elif px is not None:
                if low[x] >= disc[px]:
                    return True
                low[px] = min(low[px], low[x])
    return root_children > 1 or len(disc) < len(adj) - 1


@dataclass(frozen=True)
class Theorem1Report:
    """Desk-scale certification that triangulating G_k needs k+1 peels."""

    k: int
    triangulation_count: int
    min_outerplanarity: int
    three_connected: bool
    passed: bool
    assumption: str


def certify_theorem1(k: int, budget: OracleBudget | None = None) -> Theorem1Report:
    """Certify the lower bound: every triangulation of G_k has >= k+1 peels.

    k = 1 uses K4-minus-an-edge: a triangulation of 4 vertices has 6
    edges, so the only triangulation is K4, whose outerplanarity is found
    exhaustively from its edge list.  For k >= 2 the gadget is checked
    3-connected (making its sphere embedding unique), every triangulation
    of its sole non-triangular face is enumerated as face vertex masks, and
    each is peeled from every possible outer face.  The k >= 2 result is
    contingent on the 3-connectivity check, which the report states
    explicitly.
    """
    budget = budget or OracleBudget()
    if k < 1:
        raise BadParameter(f"need k >= 1, got {k}")
    if k == 1:
        base = gen_k4_minus_edge()
        k4s = [
            set(base.edges).union(*(combinations(sorted(t), 2) for t in filling))
            for filling in _face_fillings(base)
        ]
        if len(k4s) != 1 or len(k4s[0]) != 6:
            raise InvariantViolation("K4 minus an edge must triangulate uniquely to K4")
        k4 = k4s[0]
        min_k = brute_outerplanarity(k4, budget)
        return Theorem1Report(
            k=1,
            triangulation_count=1,
            min_outerplanarity=min_k,
            three_connected=is_three_connected(k4),
            passed=min_k >= 2,
            assumption=(
                "a 4-vertex triangulation has 6 edges, so K4 is the unique "
                "triangulation; outerplanarity searched over all rotation systems"
            ),
        )

    gadget = gen_counterexample(k)
    three = is_three_connected(gadget)
    n = gadget.vertex_count
    peels = [_min_peels(masks, n) for masks in _triangulation_masks(gadget)]
    min_k = min(peels, default=0)
    return Theorem1Report(
        k=k,
        triangulation_count=len(peels),
        min_outerplanarity=min_k,
        three_connected=three,
        passed=three and min_k >= k + 1,
        assumption=(
            "exhaustive only if the gadget is 3-connected (sphere embedding "
            "unique up to reflection); verified here by 2-vertex-removal search"
        ),
    )
