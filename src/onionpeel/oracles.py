"""Brute-force ground truth at desk scale.

Three independent oracles: exact branchwidth by the edge-subset recurrence
over bitmasks, in O(3^E) steps set by the edge count alone, exact graph
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
bitmask of its vertices.  Darts are traced once per choice of orders at
every vertex but one, the closing vertex, whose orders then only close
the traced chains through it (:func:`_component_outerplanarity`).  Peel
counts come from one breadth-first search over co-facial neighbourhood
masks (:func:`_min_peels`), which shares no code with the pipeline's
:func:`onion_peels`.

Budgets are hard caps with explicit errors, never silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from operator import itemgetter
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

#: most edges :func:`brute_branchwidth` takes under any budget; its table
#: holds 2^E entries, about a million at the ceiling
MAX_BW_EDGES = 20


def _edge_list(graph) -> list[Edge]:
    if isinstance(graph, Embedding):
        return list(graph.edges)
    return sorted({(min(u, v), max(u, v)) for u, v in graph})


def _adjacency(graph) -> dict[int, set[int]]:
    if isinstance(graph, Embedding):
        return {v: set(graph._rotations[v]) for v in graph.vertices}
    adj: dict[int, set[int]] = {}
    for u, v in _edge_list(graph):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def brute_branchwidth(graph, budget: OracleBudget | None = None) -> int:
    """Exact branchwidth by the edge-subset recurrence over bitmasks.

    ``top[S]`` is the least width of a subtree whose leaves are the edge
    set S, counting the arc above it: at least |mid(S)|, the vertices with
    edges both in S and outside it, and for two or more edges at least the
    better of its splits, each split counted once by the part holding S's
    lowest edge.  The answer is ``top`` of the full set, whose mid is
    empty.  Its cost is O(3^E) time, set by the edge count alone, and
    O(2^E) space: its table holds 2^E entries, so above
    :data:`MAX_BW_EDGES` edges it refuses even a raised budget.  Graphs
    with at most one edge have branchwidth 0 by convention (no arc
    separates anything).
    """
    budget = budget or OracleBudget()
    edges = _edge_list(graph)
    n = len(edges)
    if n > budget.max_edges:
        raise BudgetExceeded(f"{n} edges exceeds budget {budget.max_edges}")
    if n > MAX_BW_EDGES:
        raise BudgetExceeded(f"{n} edges exceeds the table ceiling {MAX_BW_EDGES}")
    inc: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        inc[u] = inc.get(u, 0) | 1 << i
        inc[v] = inc.get(v, 0) | 1 << i
    incs = list(inc.values())
    full = (1 << n) - 1
    top = [0] * (full + 1)
    for s in range(1, full + 1):
        top[s] = sum(1 for m in incs if m & s and m & ~s)
        low = s & -s
        rest = part = s ^ low
        if rest:
            best = n  # no arc cuts more than E vertices
            while part:
                part = (part - 1) & rest
                a, b = top[part | low], top[rest ^ part]
                split = a if a > b else b
                if split < best:
                    best = split
            if best > top[s]:
                top[s] = best
    return top[full]


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

    The *closing vertex* x, the vertex with the most orders (the first in
    component order on a tie), has its entering darts numbered last, and
    only the other vertices' blocks are enumerated.  Each of their
    combinations is traced once with x's entering darts left open: the
    cycles that avoid x are counted, and the chain from each dart leaving
    x is followed to the dart entering x where it ends (``end``).  An
    order of x closes each chain end onto a leaving dart, so the faces
    through x are the cycles of the permutation ``k -> nxt[end[k]]`` on
    x's neighbour indices, and the system is planar iff those cycles and
    the closed ones number 2 - V + E.  Cycle counts are kept in a
    per-call table keyed on the permutation tuple.  Only planar systems
    get x's block filled, their face masks traced and their peel count
    searched.
    """
    if len(comp) == 1:
        return 1
    nbrs = {v: sorted(adj[v]) for v in comp}
    orders: dict[int, list[tuple[int, ...]]] = {}
    mirror_fixed = False
    for v in comp:
        ns = nbrs[v]
        orders[v] = [(ns[0],) + p for p in permutations(ns[1:])]
        if len(ns) >= 3 and not mirror_fixed:
            orders[v] = [o for o in orders[v] if o[1] < o[-1]]
            mirror_fixed = True
    x = max(comp, key=lambda v: len(orders[v]))
    others = [v for v in comp if v != x]
    bit = {v: 1 << i for i, v in enumerate(comp)}
    base: dict[int, int] = {}
    head_bits: list[int] = []
    for v in others + [x]:
        base[v] = len(head_bits)
        head_bits += [bit[v]] * len(nbrs[v])

    def successors(v: int, out: dict[int, int]) -> list[list[int]]:
        """Per order of v: ``out`` of the neighbour after each of nbrs[v]."""
        ns = nbrs[v]
        blocks = []
        for o in orders[v]:
            after = dict(zip(o, o[1:] + o[:1]))
            blocks.append([out[after[u]] for u in ns])
        return blocks

    blocks = [successors(v, {w: base[w] + nbrs[w].index(v) for w in nbrs[v]})
              for v in others]
    leaving = [base[w] + nbrs[w].index(x) for w in nbrs[x]]
    x_nxt = successors(x, {w: k for k, w in enumerate(nbrs[x])})
    lo = base[x]  # the darts entering x are lo, lo + 1, ...
    n_darts = len(head_bits)
    planar_faces = 2 - len(comp) + n_darts // 2
    cycles: dict[tuple[int, ...], int] = {}
    best: int | None = None
    for combo in product(*blocks):
        succ = list(chain.from_iterable(combo))
        seen = bytearray(lo)
        ends = []
        for d in leaving:
            while d < lo:
                seen[d] = 1
                d = succ[d]
            ends.append(d - lo)
        need = planar_faces
        for start in range(lo):
            if not seen[start]:
                need -= 1
                d = start
                while not seen[d]:
                    seen[d] = 1
                    d = succ[d]
        if not 1 <= need <= len(leaving):
            continue
        # itemgetter of one index returns the item, not a 1-tuple
        pick = itemgetter(*ends) if len(ends) > 1 else tuple
        for nxt in x_nxt:
            perm = pick(nxt)
            found = cycles.get(perm)
            if found is None:
                found = cycles[perm] = _cycle_count(perm)
            if found != need:
                continue
            # few systems are planar, so only they pay for the vertex masks
            full = succ + [leaving[k] for k in nxt]
            masks = []
            seen = bytearray(n_darts)
            for start in range(n_darts):
                if not seen[start]:
                    mask = 0
                    d = start
                    while not seen[d]:
                        seen[d] = 1
                        mask |= head_bits[d]
                        d = full[d]
                    masks.append(mask)
            k = _min_peels(masks, len(comp))
            if best is None or k < best:
                best = k
    if best is None:
        raise NotPlanar(
            f"no rotation system of component {comp[:4]}... achieves genus 0"
        )
    return best


def _cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of 0..len(perm)-1."""
    seen = 0
    cycles = 0
    for k in range(len(perm)):
        if not seen >> k & 1:
            cycles += 1
            while not seen >> k & 1:
                seen |= 1 << k
                k = perm[k]
    return cycles


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


def certify_theorem1(k: int) -> Theorem1Report:
    """Certify the lower bound: every triangulation of G_k has >= k+1 peels.

    k = 1 uses K4-minus-an-edge: a triangulation of 4 vertices has 6
    edges, so the only triangulation is K4, whose outerplanarity is found
    exhaustively from its edge list under the default oracle budget.  For
    k >= 2 the gadget is checked
    3-connected (making its sphere embedding unique), every triangulation
    of its sole non-triangular face is enumerated as face vertex masks, and
    each is peeled from every possible outer face.  The k >= 2 result is
    contingent on the 3-connectivity check, which the report states
    explicitly.
    """
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
        min_k = brute_outerplanarity(k4)
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
