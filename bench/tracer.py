"""Span tracing by interposition on the library's public names.

``Tracer.install()`` wraps every public function of every ``onionpeel``
module at every place it is looked up: a module that imported a name from
another module holds its own reference, so each module namespace (and the
package's) gets the same wrapper.  ``Embedding.__init__`` is wrapped once,
and each build is attributed to the layer of the nearest enclosing span
outside ``embedding``.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once, by ``dump``.

The benchmark opens its own spans (``Tracer.span``) around calls whose
layer metrics have no public library function, such as ``cli.emit.bd``.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
import types
from collections import Counter

#: (module, name) pairs the per-layer metrics are read from; one that a
#: refactor removed is reported as absent instead of failing the run
EXPECTED = (
    ("embedding", "Embedding"),
    ("embedding", "remove_vertices"),
    ("peeling", "onion_peels"),
    ("peeling", "saturate_inward_neighbors"),
    ("peeling", "build_rooted_forest"),
    ("triangulate", "to_triangulated_disk"),
    ("triangulate", "to_full_triangulation"),
    ("branchdecomp", "build_dual_tree"),
    ("branchdecomp", "build_branch_tree"),
    ("branchdecomp", "certify_width_bound"),
    ("branchdecomp", "decompose_pipeline"),
    ("oracles", "certify_theorem1"),
    ("oracles", "brute_outerplanarity"),
    ("oracles", "brute_branchwidth"),
    ("oracles", "is_three_connected"),
    ("oracles", "enumerate_face_triangulations"),
    ("epg", "parse_epg"),
    ("epg", "format_epg"),
    ("cli", "cli_main"),
)

BUILD = "embedding.Embedding"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: dict[str, Counter] = {}  # phase -> key -> n
        self.enabled = False
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.phase, Counter())[key] += n

    @contextlib.contextmanager
    def span(self, name: str | None):
        if not (self.enabled and name):
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _caller_layer(self) -> str:
        for idx in reversed(self.stack):
            layer = _layer(self.spans[idx][0])
            if layer != "embedding":
                return layer
        return "bench"

    # -- interposition -----------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    result = hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
                    tracer.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap the library's public functions everywhere they are bound."""
        import onionpeel
        import onionpeel.cli  # noqa: F401  (the package does not import it)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "onionpeel" or n.startswith("onionpeel."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("onionpeel")):
                    continue
                key = id(value)
                if key not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[key] = self._wrap(value, name)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])

        emb_cls = getattr(sys.modules.get("onionpeel.embedding"), "Embedding", None)
        if emb_cls is not None:
            init = emb_cls.__init__
            tracer = self

            def traced_init(obj, *args, **kwargs):
                if not tracer.enabled:
                    return init(obj, *args, **kwargs)
                tracer.count(f"embedding.builds.by_{tracer._caller_layer()}")
                idx = tracer._open(BUILD)
                try:
                    return init(obj, *args, **kwargs)
                finally:
                    tracer._close(idx)

            self._restore.append((emb_cls, "__init__", init))
            emb_cls.__init__ = traced_init

        for mod_name, attr in EXPECTED:
            mod = sys.modules.get(f"onionpeel.{mod_name}")
            if mod is None or not hasattr(mod, attr):
                self.absent.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self.enabled = False

    # -- aggregation -------------------------------------------------------

    def summarize(self, lo: int, hi: int, phase: str) -> dict[str, float]:
        """Counts of a phase, and times of the spans with index in [lo, hi).

        ``<name>.calls`` counts spans, ``<name>.busy_s`` sums the spans not
        nested in a span of the same name, and ``<name>.self_s`` is busy
        time minus the time of direct children.  ``<layer>.busy_s`` sums
        the spans of a layer not nested in a span of the same layer.
        """
        spans = self.spans
        out: Counter = Counter()
        child_time: Counter = Counter()
        for i in range(lo, hi):
            name, t0, t1, parent = spans[i]
            if parent >= lo:
                child_time[parent] += t1 - t0
        for i in range(lo, hi):
            name, t0, t1, parent = spans[i]
            dur = t1 - t0
            out[f"{name}.calls"] += 1
            same_name = same_layer = False
            p = parent
            while p >= lo:
                pname = spans[p][0]
                same_name = same_name or pname == name
                same_layer = same_layer or _layer(pname) == _layer(name)
                p = spans[p][3]
            if not same_name:
                out[f"{name}.busy_s"] += dur
                out[f"{name}.self_s"] += dur - child_time[i]
            if not same_layer:
                out[f"{_layer(name)}.busy_s"] += dur
        out.update(self.counts.get(phase, {}))
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every recorded span, once, as compact JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][1] if self.spans else 0.0
        rows = [[code[n], round(t0 - t_base, 7), round(t1 - t_base, 7), p]
                for n, t0, t1, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows, "absent": self.absent}, fh, separators=(",", ":"))


# -- per-function hooks: counts read off a call's arguments and result --------


def _added_disk(tracer: Tracer, args, kwargs, result):
    for _, _, stage in result[1].added_edges:
        tracer.count(f"triangulate.added.{stage}")
    return result


def _added_apex(tracer: Tracer, args, kwargs, result):
    for _, _, stage in result[1].added_edges:
        if stage == "apex":
            tracer.count("triangulate.added.apex")
    return result


def _yielded(tracer: Tracer, args, kwargs, result):
    disk, face = args[0], args[1] if len(args) > 1 else kwargs["face"]
    if isinstance(face, int):
        face = disk.faces[face]
    m = len(face)
    tracer.count("oracles.enumerate_face_triangulations.tried",
                 math.comb(2 * (m - 2), m - 2) // (m - 1))

    def counting(gen):
        for item in gen:
            tracer.count("oracles.enumerate_face_triangulations.yielded")
            yield item

    return counting(result)


_HOOKS = {
    "triangulate.to_triangulated_disk": _added_disk,
    "triangulate.to_full_triangulation": _added_apex,
    "oracles.enumerate_face_triangulations": _yielded,
}
