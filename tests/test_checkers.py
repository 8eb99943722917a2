"""The bd checker's cut count and assignment parse against their references.

``checkers.arc_cuts`` counts the cuts as subtree sums over lowest common
ancestors.  It must agree, arc for arc, with the per-arc search of
``ref_arc_cuts`` and with ``bisect_arc_cuts``, the routine ``verify``
used before, and take near-linear steps where the latter does not.
``checkers._edge_assignment`` parses all assignment keys in one pass and
must accept and reject exactly as the per-key parse ``verify`` used before.
"""

import json
import random
import re
import sys
import types

from onionpeel import (
    format_epg,
    gen_counterexample,
    gen_cycle,
    gen_nested_triangles,
    gen_random_kouter,
    gen_wheel,
)
from onionpeel import checkers
from test_branchdecomp import deep_disks
from test_cli import (
    arc_cuts,
    bisect_arc_cuts,
    ref_arc_cuts,
    ref_bisect_arc_cuts,
    run_cli,
    tree_of,
    with_assignment,
)


def bd_artifact(emb) -> dict:
    code, out, err = run_cli(["bd"], stdin_text=format_epg(emb))
    assert code == 0, err
    return json.loads(out)


def with_shuffles(bd, rng, count=3) -> list[dict]:
    """``bd`` and ``count`` copies with their leaves shuffled."""
    variants = [bd]
    for _ in range(count):
        edges, leaves = list(bd["assignment"]), list(bd["assignment"].values())
        rng.shuffle(leaves)
        variants.append(with_assignment(bd, dict(zip(edges, leaves))))
    return variants


def test_arc_cuts_match_both_references(small_corpus):
    rng = random.Random(18)
    small = [("triangle", gen_cycle(3)), ("k4", gen_wheel(3)), ("counter2", gen_counterexample(2))]
    for label, emb in small_corpus + deep_disks() + small:
        for data in with_shuffles(bd_artifact(emb), rng):
            cuts = arc_cuts(data)
            assert cuts == ref_bisect_arc_cuts(data), label
            assert cuts == ref_arc_cuts(data), label
    # one search per arc is quadratic: at this size only the bisect reference runs
    big = bd_artifact(gen_random_kouter(10, 250, 1))
    assert arc_cuts(big) == ref_bisect_arc_cuts(big)


def line_events(fn, *args, also=()):
    """``fn(*args)``, and how many line events fn's code and the code of
    the functions ``also``, and the code nested in them (their
    comprehensions, generators and inner functions), raised."""
    codes, todo = set(), [f.__code__ for f in (fn, *also)]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        steps += event == "line"
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        result = fn(*args)
    finally:
        sys.settrace(old)
    return result, steps


def test_arc_cuts_take_near_linear_steps():
    # nested triangles give a dual tree hundreds of nodes deep; the routine
    # runs about 13 lines per node and 12 per leaf endpoint, the old one
    # one Counter step per leaf endpoint per ancestor
    bd = bd_artifact(gen_nested_triangles(200))
    tree = tree_of(bd)
    size = len(bd["nodes"]) + 2 * len(bd["assignment"])
    cuts, steps = line_events(checkers.arc_cuts, *tree)
    assert steps <= 20 * size
    ref, ref_steps = line_events(bisect_arc_cuts, *tree)
    assert ref == cuts and ref_steps > 20 * size


_REF_EDGE_KEY = re.compile(r"(-?[0-9]+)-(-?[0-9]+)")


def ref_edge_assignment(x):
    """Reference: one fullmatch, two ``int`` parses and one f-string per key."""
    if not isinstance(x, dict):
        return False
    assignment = {}
    for key, leaf in x.items():
        m = _REF_EDGE_KEY.fullmatch(key)
        try:
            edge = (int(m[1]), int(m[2])) if m else None
        except ValueError:  # beyond Python's limit on digits
            edge = None
        if edge is None or key != f"{edge[0]}-{edge[1]}":
            return False
        if not isinstance(leaf, int) or isinstance(leaf, bool):
            return False
        assignment[edge] = leaf
    return assignment


ODD_KEYS = [
    "-1-2", "1--2", "-1--2", "01-2", "1-02", "-0-1", "1--0", "1-2\n3-4", "\n1-2", "1-2\n",
    "", "-", "1-", "-1", "1-2-3", "+1-2", "1_0-2", " 1-2", "1-2 ", "1\r-2", "\u0661-2",
    "1" * 5000 + "-2", "3-" + "4" * 4300, "12-34", "1-2",
]


def test_edge_assignment_matches_the_per_key_parse():
    rng = random.Random(21)
    good = list(bd_artifact(gen_random_kouter(2, 6, 3))["assignment"].items())
    leaves = [7, -3, True, 1.0, "1", None]
    cases = [None, [], {}, dict(good)]
    for _ in range(3000):
        data = dict(rng.sample(good, rng.randint(0, 6)))
        for _ in range(rng.randint(0, 2)):
            data[rng.choice(ODD_KEYS)] = rng.choice(leaves)
        if data and rng.random() < 0.2:
            data[rng.choice(list(data))] = rng.choice(leaves)
        cases.append(data)
    accepted = 0
    for data in cases:
        expected = ref_edge_assignment(data)
        got = checkers._edge_assignment(data)
        assert got == expected and (got is False) == (expected is False), data
        accepted += expected is not False
    assert 300 < accepted < len(cases) - 300
