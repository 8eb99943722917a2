"""Independent checkers of the CLI's JSON artifacts.

``verify`` reads an artifact's kind, checks its shape, and then either
compares it whole with a rerun (in ``cli``) or, for a branch
decomposition, checks it here.  The bd check shares nothing with the
library's branch-tree construction: it takes only ``treewidth_bound`` from
``branchdecomp``, re-derives the disk and its rooted forest, and recounts
every cut from the leaf-bipartition definition.

The cuts are counted in near-linear time as subtree sums.  The arc above
a node x is crossed by the vertices with some but not all of their edges
at leaves below x, so its cut is distinct(x) - all(x): the vertices with
an edge below x, less those with every edge below x.  Both are subtree
sums of point weights (the distinct-colours-in-a-subtree count): +1 at a
leaf per endpoint of its edge, -1 at the lowest common ancestor of each
two of a vertex's leaves that are consecutive in preorder, and -1 more at
the lowest common ancestor of its first and last leaf.  All the ancestors
are found offline in one preorder pass with union-find, Tarjan's offline
lowest-common-ancestor method (R. E. Tarjan, "Applications of path
compression on balanced trees", *JACM* 26, 1979; D. Harel and R. E.
Tarjan, "Fast algorithms for finding nearest common ancestors", *SIAM J.
Comput.* 13, 1984).  Nothing recurses: the dual trees of deep disks are
thousands of nodes deep.
"""

from __future__ import annotations

import re
from itertools import chain

from .branchdecomp import treewidth_bound
from .embedding import Edge, Embedding
from .errors import FormatError, InvariantViolation
from .peeling import build_rooted_forest
from .triangulate import to_triangulated_disk


def require(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantViolation(message)


def artifact_kind(artifact) -> str:
    if not isinstance(artifact, dict):
        raise FormatError("artifact must be a JSON object")
    if "oracle" in artifact:
        return "oracle"
    if "layers" in artifact:
        return "peel"
    if "parents" in artifact:
        return "forest"
    if "added" in artifact:
        return "trace"
    if "assignment" in artifact:
        return "bd"
    if "bd_width" in artifact:
        return "pipeline"
    raise FormatError("unrecognized artifact type")


# -- shapes --------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def _list_of(pred):
    return lambda x: isinstance(x, list) and all(map(pred, x))


def _is_stage(x) -> bool:
    return (
        isinstance(x, list) and len(x) == 3
        and _is_int(x[0]) and _is_int(x[1]) and isinstance(x[2], str)
    )


def _all_of(cls, vs) -> bool:
    """Whether every value is a ``cls`` and not a bool; tests each distinct type once."""
    return all(issubclass(t, cls) and t is not bool for t in set(map(type, vs)))


def _is_pairs(x) -> bool:
    """Whether x is a list of int pairs, each a two-item list."""
    return (
        isinstance(x, list)
        and _all_of(list, x)
        and set(map(len, x)) <= {2}
        and _all_of(int, chain.from_iterable(x))
    )


# a bd node's third key by kind: face nodes name an inner face, the others an edge
_BD_NODE_VALUE = {"face": "face", "arc": "edge", "edge": "edge"}


def _is_bd_nodes(x) -> bool:
    """Whether x is a non-empty list of dicts, each of exactly the keys
    ``id``, ``kind`` and its kind's third key, with an int id and face or
    an int-pair edge.  The ints are gathered and tested together; three
    keys found in a dict of three are all its keys."""
    if not isinstance(x, list) or not x:
        return False
    ints, edges = [], []
    for n in x:
        kind = n.get("kind") if isinstance(n, dict) and len(n) == 3 else None
        if not isinstance(kind, str) or kind not in _BD_NODE_VALUE:
            return False
        ints.append(n.get("id"))
        (ints if kind == "face" else edges).append(n.get(_BD_NODE_VALUE[kind]))
    return _all_of(int, ints) and _is_pairs(edges)


# where bd assignment keys, joined one per line, split into integers: at
# each line break and each "-" after a digit, which is not a minus sign
_KEY_SPLIT = re.compile(r"\n|(?<=[0-9])-")


def _edge_assignment(x) -> dict[Edge, int] | bool:
    """A bd assignment's leaf per edge, or False if malformed.

    Each key must read ``f"{u}-{v}"`` for integers u and v.  The keys are
    split and parsed all at once, at every "-" if there is one per key (no
    id is negative); writing the edges back the same way must then give
    the same text and line count, which rejects every other key.
    """
    if not isinstance(x, dict) or not _all_of(int, x.values()):
        return False
    if not x:
        return {}
    text = "\n".join(x)
    if text.count("-") == len(x):
        parts = text.replace("\n", "-").split("-")
    else:
        parts = _KEY_SPLIT.split(text)
    try:
        ends = list(map(int, parts))
    except ValueError:  # not an integer, or beyond Python's limit on digits
        return False
    edges = list(zip(ends[::2], ends[1::2]))
    if len(ends) != 2 * len(x) or "\n".join([f"{u}-{v}" for u, v in edges]) != text:
        return False
    return dict(zip(edges, x.values()))


# per artifact kind (and per oracle), the keys its checker reads and their
# shapes; a shape answers False for a malformed value, else True or, for a
# bd assignment, what the checker reads of it
_SHAPES = {
    "peel": {"k": _is_int, "layers": _list_of(_is_ints)},
    "forest": {
        "height": _is_int,
        "roots": _is_ints,
        "parents": _is_pairs,
        "depth": _is_pairs,
    },
    "trace": {"added": _list_of(_is_stage), "k_in": _is_int, "k_out": _is_int},
    "bd": {
        "nodes": _is_bd_nodes,
        "arcs": _is_pairs,
        "assignment": _edge_assignment,
        "width": _is_int,
        "bounds": lambda x: (
            isinstance(x, dict)
            and set(x) == {"2h", "tw"}
            and all(map(_is_int, x.values()))
        ),
    },
    "pipeline": {
        "command": lambda x: isinstance(x, str),
        "input_digest": lambda x: isinstance(x, str),
        **{key: _is_int for key in
           ("k_in", "k_out", "forest_height", "bd_width", "tw_bound")},
    },
    "bw": {"branchwidth": _is_int},
    "outerplanarity": {"k": _is_int},
    "theorem1": {
        "k": _is_int,
        "min_outerplanarity": _is_int,
        "passed": lambda x: isinstance(x, bool),
    },
}


def check_shape(kind: str, artifact: dict) -> dict[Edge, int] | None:
    """Reject an artifact its checker cannot read, before any check runs.

    A bd artifact, which is not compared whole, must also hold no key its
    checker does not read.  Returns a bd artifact's assignment keyed by
    edge, for :func:`verify_bd`, and None for any other kind.
    """
    if kind == "oracle":
        kind = artifact["oracle"]
        if kind not in ("bw", "outerplanarity", "theorem1"):
            raise FormatError(f"oracle artifact: unknown oracle {kind!r}")
    read = {}
    for key, shape in _SHAPES[kind].items():
        if key not in artifact:
            raise FormatError(f"{kind} artifact: missing key {key!r}")
        read[key] = shape(artifact[key])
        if read[key] is False:
            raise FormatError(f"{kind} artifact: malformed {key!r}")
    if kind != "bd":
        return None
    unknown = sorted(set(artifact) - set(_SHAPES["bd"]))
    if unknown:
        raise FormatError(f"bd artifact: unknown key {unknown[0]!r}")
    ids = {n["id"] for n in artifact["nodes"]}
    if len(ids) != len(artifact["nodes"]):
        raise FormatError("bd artifact: repeated node id")
    ends = set(chain.from_iterable(artifact["arcs"]))
    ends.update(read["assignment"].values())
    if not ends <= ids:
        raise FormatError("bd artifact: arc or leaf names an unknown node")
    return read["assignment"]


# -- branch decompositions -----------------------------------------------------


def verify_bd(emb: Embedding, artifact: dict, assignment: dict[Edge, int]) -> None:
    """Independent re-check of a claimed branch decomposition.

    ``assignment`` is the artifact's, keyed by edge, as :func:`check_shape`
    read it.  Validates the tree shape, the assignment and every node's
    label directly (edge nodes are exactly the assigned leaves and carry
    their edge; face nodes name distinct inner faces of the disk; each arc
    node joins exactly the two faces its edge separates) and recomputes
    every cut from the leaf-bipartition definition, without using the
    library's construction or its bottom-up width aggregation.  One DFS
    checks connectivity and gives the preorder the cuts are read from.
    The stated bounds are re-derived: ``tw`` from the width, ``2h`` from
    the disk's rooted forest.
    """
    disk, _ = to_triangulated_disk(emb)
    nodes = {n["id"]: n for n in artifact["nodes"]}
    arcs = [tuple(a) for a in artifact["arcs"]]
    adj: dict[int, list[int]] = {i: [] for i in nodes}
    for a, b in arcs:
        adj[a].append(b)
        adj[b].append(a)
    require(len(arcs) == len(nodes) - 1, "bd artifact: arc count")
    order, parent = preorder(adj, min(nodes))
    require(len(order) == len(nodes), "bd artifact: tree disconnected")
    require(all(len(adj[i]) <= 3 for i in nodes), "bd artifact: degree > 3")
    require(sorted(assignment) == list(disk.edges), "bd artifact: edges mismatch")
    require(
        len(set(assignment.values())) == len(assignment),
        "bd artifact: assignment not injective",
    )
    for (u, v), leaf in assignment.items():
        require(len(adj[leaf]) == 1, "bd artifact: assigned node not a leaf")
        require(nodes[leaf]["kind"] == "edge", "bd artifact: leaf kind")
        require(nodes[leaf]["edge"] == [u, v], "bd artifact: leaf edge mismatch")
    require(
        sum(n["kind"] == "edge" for n in nodes.values()) == len(assignment),
        "bd artifact: unassigned edge node",
    )
    faces = [n["face"] for n in nodes.values() if n["kind"] == "face"]
    outer = disk.face_index_of_dart(disk.outer_darts[0])
    require(
        len(set(faces)) == len(faces)
        and all(0 <= f < len(disk.faces) and f != outer for f in faces),
        "bd artifact: face nodes are not distinct inner faces",
    )
    for i, n in nodes.items():
        if n["kind"] == "arc":
            u, v = n["edge"]
            sides = sorted(nodes[j]["face"] for j in adj[i] if nodes[j]["kind"] == "face")
            require(
                disk.has_edge(u, v)
                and sides == sorted(disk.face_index_of_dart(d) for d in ((u, v), (v, u))),
                "bd artifact: arc edge does not separate the arc's two faces",
            )
    width = max(arc_cuts(order, parent, arcs, assignment), default=0)
    require(width == artifact["width"], "bd artifact: width mismatch")
    require(
        artifact["bounds"]["tw"] == treewidth_bound(width),
        "bd artifact: tw bound mismatch",
    )
    require(
        artifact["bounds"]["2h"] == 2 * (build_rooted_forest(disk).height + 1),
        "bd artifact: 2h bound mismatch",
    )


def preorder(adj: dict[int, list[int]], root: int) -> tuple[list[int], dict]:
    """The nodes reachable from ``root`` in DFS preorder, and their parents."""
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    return order, parent


def arc_cuts(order, parent, arcs, assignment) -> list[int]:
    """Per arc of a tree, how many vertices have an edge on each side.

    ``order`` and ``parent`` are the tree's DFS preorder and parents, as
    :func:`preorder` gives them; ``assignment`` maps each edge to its leaf.
    The cut of the arc above x is the sum over x's subtree of the point
    weights of the module docstring.  One pass over the preorder places
    them: a node's subtree is finished, and its union-find link ``up``
    turned from itself to its parent, when the pass leaves it, so the root
    of an earlier node's set is its lowest common ancestor with the
    current one.  O((nodes + E) log nodes) with path compression alone.
    """
    n = len(order)
    pos = {x: i for i, x in enumerate(order)}
    par = [-1] + [pos[parent[x]] for x in order[1:]]
    edge_at: list[Edge | None] = [None] * n
    left: dict[int, int] = {}  # vertex -> its leaves the pass has not reached
    for e, leaf in assignment.items():
        edge_at[pos[leaf]] = e
        for w in e:
            left[w] = left.get(w, 0) + 1
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    weight = [0] * n
    up = list(range(n))
    path: list[int] = []  # the root path of the current node

    def lca(j: int) -> int:
        """The lowest common ancestor of node j and the current node."""
        r = j
        while up[r] != r:
            r = up[r]
        while up[j] != r:
            up[j], j = r, up[j]
        return r

    for i, e in enumerate(edge_at):
        while path and path[-1] != par[i]:
            z = path.pop()
            up[z] = par[z]
        path.append(i)
        if e is None:
            continue
        weight[i] += 2
        for w in e:
            j = last.get(w)
            if j is None:
                first[w] = i
            else:
                weight[lca(j)] -= 1
            last[w] = i
            left[w] -= 1
            if not left[w]:
                weight[lca(first[w])] -= 1
    for i in range(n - 1, 0, -1):
        weight[par[i]] += weight[i]
    return [weight[pos[a] if parent[a] == b else pos[b]] for a, b in arcs]
