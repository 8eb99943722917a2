"""The bd checker's cut count against its two references.

``checkers.arc_cuts`` counts the cuts as subtree sums over lowest common
ancestors.  It must agree, arc for arc, with the per-arc search of
``ref_arc_cuts`` and with ``bisect_arc_cuts``, the routine ``verify``
used before, and take near-linear steps where the latter does not.
"""

import json
import random
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
