"""Deterministic builders for the test-corpus graph families.

All generators return validated embeddings with documented outer faces and
0-based integer vertex ids; the CLI's ``gen`` command maps each family
name to one of them.  The nested-triangle family stacks triangles
joined by zigzag hexagons so that every annulus face is a triangle; the
counterexample family arranges four such gadgets around an octagonal outer
cycle with a fixed fill pattern, giving a triangulated disk on 12k
vertices whose every triangulation needs k+1 peels.
"""

from __future__ import annotations

import random

from .embedding import Embedding
from .errors import BadParameter

#: rotation conventions used by the ring-based builders, with layer
#: indices m mod ring width:
#:   middle ring   (next, downs reversed, prev, ups forward)
#:   innermost     (next, prev, ups forward)
#:   outermost     (next, downs reversed, prev)


def gen_nested_triangles(i: int) -> Embedding:
    """i nested triangles, consecutive ones joined by a zigzag hexagon.

    3i vertices; triangle j (1-based, innermost first) uses ids
    3(j-1)..3(j-1)+2; the outermost triangle is the outer face.  For
    i >= 2 the result is a full triangulation (every face a triangle).
    """
    if i < 1:
        raise BadParameter(f"need i >= 1, got {i}")
    rot: dict[int, list[int]] = {}
    for j in range(i):
        for m in range(3):
            v = 3 * j + m
            nxt = 3 * j + (m + 1) % 3
            prv = 3 * j + (m - 1) % 3
            down = [3 * (j - 1) + m, 3 * (j - 1) + (m - 1) % 3]
            up = [3 * (j + 1) + m, 3 * (j + 1) + (m + 1) % 3]
            if i == 1:
                rot[v] = [nxt, prv]
            elif j == 0:
                rot[v] = [nxt, prv] + up
            elif j == i - 1:
                rot[v] = [nxt] + down + [prv]
            else:
                rot[v] = [nxt] + down + [prv] + up
    base = 3 * (i - 1)
    return Embedding(rot, [(base, base + 1)])


def gen_counterexample(k: int) -> Embedding:
    """Four nested-triangle gadgets around an octagonal outer cycle.

    Copy j (0..3) is a translated gen_nested_triangles(k); its outermost
    triangle contributes p_j, q_j to the global outer 8-cycle and r_j
    pointing inward.  Connectors q_j-p_{j+1}, fills q_j-r_{j+1} and
    r_j-r_{j+1}, and the diagonal r_0-r_2 triangulate the central region,
    so the result is a triangulated disk on 12k vertices with k peels.
    For k = 1 use :func:`gen_k4_minus_edge` instead.
    """
    if k < 2:
        raise BadParameter(f"need k >= 2, got {k} (k=1: gen_k4_minus_edge)")
    rot: dict[int, list[int]] = {}
    copy = gen_nested_triangles(k)
    for j in range(4):
        base = 3 * k * j
        for v in copy.vertices:
            rot[base + v] = [base + w for w in copy.rotation(v)]

    def pqr(j: int) -> tuple[int, int, int]:
        t = 3 * k * (j % 4) + 3 * (k - 1)
        return t, t + 1, t + 2

    for j in range(4):
        p, q, r = pqr(j)
        _, q_prev, r_prev = pqr(j - 1)
        p_next, _, r_next = pqr(j + 1)
        d = 3 * k * j + 3 * (k - 2)  # copy's second-outermost triangle
        d0, d1, d2 = d, d + 1, d + 2
        rot[p] = [q_prev, q, d0, d2, r]
        rot[q] = [p, p_next, r_next, r, d1, d0]
        rot[r] = [p, d2, d1, q, r_next]
        if j in (0, 2):
            rot[r].append(pqr(j + 2)[2])
        rot[r] += [r_prev, q_prev]
    p0, q0, _ = pqr(0)
    return Embedding(rot, [(p0, q0)])


def gen_k4_minus_edge() -> Embedding:
    """K4 with one edge deleted: a 1-outerplanar triangulated disk."""
    rot = {0: [1, 2, 3], 1: [2, 0], 2: [3, 0, 1], 3: [0, 2]}
    return Embedding(rot, [(0, 1)])


def gen_cycle(n: int) -> Embedding:
    if n < 3:
        raise BadParameter(f"need n >= 3, got {n}")
    rot = {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}
    return Embedding(rot, [(0, 1)])


def gen_wheel(n: int) -> Embedding:
    """n-cycle rim (ids 0..n-1) plus a hub (id n) joined to every rim vertex."""
    if n < 3:
        raise BadParameter(f"need n >= 3, got {n}")
    rot: dict[int, list[int]] = {
        i: [(i - 1) % n, (i + 1) % n, n] for i in range(n)
    }
    rot[n] = list(range(n))
    return Embedding(rot, [(0, 1)])


def gen_path(n: int) -> Embedding:
    if n < 2:
        raise BadParameter(f"need n >= 2, got {n}")
    rot = {i: [] for i in range(n)}
    for i in range(n - 1):
        rot[i].append(i + 1)
        rot[i + 1].insert(0, i)
    return Embedding(rot, [(0, 1)])


def gen_random_kouter(k: int, width: int, seed: int) -> Embedding:
    """k nested cycles of `width` vertices with seeded planar spokes.

    Ring j (0 innermost) uses ids j*width..j*width+width-1; consecutive
    rings are joined by a monotone sweep of spokes, so the outermost ring
    is the outer face and the peel count is at most k by construction.
    Same seed, same output.
    """
    if k < 1:
        raise BadParameter(f"need k >= 1, got {k}")
    if width < 3:
        raise BadParameter(f"need width >= 3, got {width}")
    rng = random.Random(seed)
    ups: dict[int, list[int]] = {v: [] for v in range(k * width)}
    downs: dict[int, list[int]] = {v: [] for v in range(k * width)}
    for j in range(k - 1):
        start = rng.randrange(width)
        ptr = start
        budget = width
        by_unreduced: dict[int, list[int]] = {}
        for o in range(width):
            adv = rng.randint(0, min(2, budget))
            budget -= adv
            for t in range(adv + 1):
                downs[(j + 1) * width + o].append(j * width + (ptr + t) % width)
                by_unreduced.setdefault(ptr + t, []).append((j + 1) * width + o)
            ptr += adv
        for i in range(width):
            # when the sweep wraps the whole ring, the tail spokes at the
            # start vertex come cyclically before the head spokes
            u = start + (i - start) % width
            seq = by_unreduced.get(u + width, []) + by_unreduced.get(u, [])
            ups[j * width + i] = seq
    rot: dict[int, list[int]] = {}
    for j in range(k):
        for i in range(width):
            v = j * width + i
            nxt = j * width + (i + 1) % width
            prv = j * width + (i - 1) % width
            rot[v] = [nxt] + downs[v][::-1] + [prv] + ups[v]
    base = (k - 1) * width
    return Embedding(rot, [(base, base + 1)])
