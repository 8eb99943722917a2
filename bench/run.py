"""onionpeel benchmark: one command, two workloads, an optional traced run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload convert-cli --seed 1 --seconds 50 --trace 0

Workloads (see ``bench/workloads.py``): ``convert-cli``, which adds edges,
and ``peel-oracles``, which adds none.  The load is a closed loop in one
process on one thread: a round runs the workload's list of jobs in an
order shuffled afresh each round, and rounds repeat until
``--seconds`` have passed (a round starts only while at least half the
last round's time is left).  Each job's output is
checked outside timing, fully the first time and by digest afterwards.

Times are reported at reference speed (``bench/speed.py``): the host is
shared, and its speed drifts by 1.1-1.5x for minutes at a time, so a
fixed pure-Python kernel is timed ten times a second, and each call's
time (and each set-up's) is multiplied by ``REF_S`` over the median
kernel time within ``NEAR_S`` of it.  ``--trace 0`` prints the
end-to-end metrics: ``setup_s`` (the median of five set-ups spread
through the run, each an import in a fresh interpreter plus input
generation, EPG serialization and warm-up), ``wall_s`` (one round: each
job's median latency, summed), ``job_p50_ms`` and ``job_tail_ms`` (over
the jobs' median latencies; the tail is the highest percentile with at
least ten jobs beyond it), ``ok_frac`` (jobs that neither raised nor failed
their check, over jobs attempted) and ``peak_rss_mb``.  ``--trace 1``
spends half the time on untraced rounds and half on traced rounds, and
prints the per-layer metrics; ``trace.overhead_frac`` compares the two
halves.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from ``BENCHMARK.json``.  Every call's latency and reference-kernel time
of an untraced run, and every span of a traced run, is written to
``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from speed import NEAR_S, SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


_IMPORT = ("import time; t = time.perf_counter(); import onionpeel, onionpeel.cli; "
           "print(time.perf_counter() - t)")


def _import_library() -> None:
    """Import onionpeel from this checkout's sources."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "onionpeel", "__init__.py")):
        raise SystemExit(f"bench: no onionpeel sources under {src}")
    for path in (src, os.path.dirname(os.path.abspath(__file__))):
        if path not in sys.path:
            sys.path.insert(0, path)
    import onionpeel  # noqa: F401
    import onionpeel.cli  # noqa: F401


def _import_seconds() -> float:
    """Import time of a fresh interpreter (one imports a module only once)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return float(subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples there is no such percentile; the
    maximum is reported as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    rank = n - 11  # 0-based: exactly ten samples above it
    return 100.0 * (rank + 1) / n, xs[rank]


class Runner:
    """Runs rounds of one workload's jobs and keeps every observation.

    ``probe`` times the reference kernel about ten times a second
    (``speed.py``): between jobs, outside timing, and, unless spans are
    traced, from a timer signal in the middle of jobs, with the kernel's
    time taken off the job's.
    """

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.calls: list[tuple[str, float, float, float]] = []  # job, start, end, latency
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.summaries: list[dict] = []  # per traced round
        self.order = random.Random(0)

    def schedule(self) -> list:
        """This round's jobs in a shuffled order, each block kept together.

        The host's speed changes from second to second.  In a fixed order,
        jobs that run next to each other would share their fast and slow
        moments, so their latencies would move together.
        """
        blocks: list[list] = []
        for job in self.jobs:
            if job.block and blocks and blocks[-1][0].block == job.block:
                blocks[-1].append(job)
            else:
                blocks.append([job])
        self.order.shuffle(blocks)
        return [job for block in blocks for job in block]

    def _paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def round(self) -> None:
        gc.collect()  # every round starts from the same heap
        if self.tracer:
            self.tracer.phase = f"round{len(self.round_walls)}"
            lo = len(self.tracer.spans)
        wall = 0.0
        # a tick inside a span would count the kernel's time as the library's
        with contextlib.nullcontext() if self.tracer else self.probe.ticking():
            for job in self.schedule():
                wall += self._call(job)
        self.round_walls.append(wall)
        if self.tracer:
            self.summaries.append(
                self.tracer.summarize(lo, len(self.tracer.spans), self.tracer.phase))

    def _call(self, job) -> float:
        """Run one job, judge its output, and return its latency."""
        with self._paused():
            self.probe.maybe_sample()
            if job.before:
                job.before()
        span = self.tracer.span(job.span) if self.tracer else contextlib.nullcontext()
        error = None
        stolen = self.probe.stolen
        t0 = time.perf_counter()
        try:
            with span:
                result = job.run()
        except Exception as exc:  # a failing job is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
            trace_text = traceback.format_exc()
        t1 = time.perf_counter()
        dt = t1 - t0 - (self.probe.stolen - stolen)
        self.attempted += 1
        self.calls.append((job.name, t0, t1, dt))
        with self._paused():
            problems = [error] if error else self._judge(job, result)
        if problems:
            self.failed += 1
            self.failures.append(f"{job.name}: {'; '.join(problems)}")
            if error:
                print(trace_text, file=sys.stderr)
        return dt

    def _judge(self, job, result) -> list[str]:
        try:
            digest = hashlib.sha256(job.render(result).encode()).hexdigest()
            if job.name not in self.digests:
                self.digests[job.name] = digest
                return job.check(result)
        except Exception as exc:  # a malformed result is a failed check
            return [f"check raised {type(exc).__name__}: {exc}"]
        if digest != self.digests[job.name]:
            return ["output differs from the first round"]
        return []

    def by_job(self) -> dict[str, list[float]]:
        """Each job's call latencies, at reference speed."""
        out: dict[str, list[float]] = {}
        for name, t0, t1, dt in self.calls:
            out.setdefault(name, []).append(dt * self.probe.scale_at(t0, t1))
        return out

    def latencies(self) -> dict[str, float]:
        """Each job's median latency over the rounds, at reference speed."""
        return {name: statistics.median(ts) for name, ts in self.by_job().items()}

    def add_counts(self, other: "Runner") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def run_for(self, seconds: float, min_rounds: int = 1, between=None) -> None:
        """Rounds until the time is up; none starts with under half a round left.

        ``between`` is called after each round, outside the time budget.
        """
        t_end = time.perf_counter() + seconds
        last = 0.0
        while len(self.round_walls) < min_rounds or time.perf_counter() + last / 2 < t_end:
            t0 = time.perf_counter()
            self.round()
            last = time.perf_counter() - t0
            if between:
                t1 = time.perf_counter()
                between()
                t_end += time.perf_counter() - t1


def _setup(workload: str, seed: int, tiny: bool, workdir: str):
    """Generate inputs, serialize them, and warm up on the tiny inputs."""
    import workloads
    os.makedirs(workdir, exist_ok=True)
    jobs = workloads.setup(workload, seed, tiny, workdir)
    warm = Runner(workloads.setup(workload, seed, True, os.path.join(workdir, "warm")))
    warm.round()
    return jobs, warm


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool,
               workdir: str) -> tuple[Runner, dict, dict]:
    setups: list[float] = []
    probe = SpeedProbe()

    def set_up():
        """One set-up as a fresh process pays it: import, inputs, warm-up.

        The kernel is timed just before and after, for the set-up's speed.
        """
        for _ in range(3):
            probe.sample()
        start = time.perf_counter()
        import_s = _import_seconds()
        t0 = time.perf_counter()
        made = _setup(workload, seed, tiny, os.path.join(workdir, f"setup{len(setups)}"))
        end = time.perf_counter()
        for _ in range(3):
            probe.sample()
        setups.append((import_s + end - t0) * probe.scale_at(start, end))
        return made

    def next_set_up():
        if len(setups) < SETUP_REPS:
            set_up()

    # the set-ups are spread through the run, so one slow stretch of the
    # shared host moves at most a minority of them
    jobs, warm = set_up()
    runner = Runner(jobs)
    runner.run_for(seconds, between=next_set_up)
    while len(setups) < SETUP_REPS:
        set_up()
    runner.add_counts(warm)
    scale = runner.probe.scale()
    lat = list(runner.latencies().values())
    calls = [len(ts) for ts in runner.by_job().values()]
    pct, tail_s = tail(lat)
    ok = runner.attempted - runner.failed
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat),
        "job_p50_ms": 1000 * statistics.median(lat),
        "job_tail_ms": 1000 * tail_s,
        "ok_frac": ok / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"latencies-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"calls": runner.calls, "kernel_s": runner.probe.samples,
                   "kernel_at": runner.probe.times}, fh)
    info = {
        "fail_frac": runner.failed / runner.attempted,
        "tail": f"p{pct:.1f} of {len(lat)} jobs, each the median of "
                f"{min(calls)}-{max(calls)} calls",
        "setup": "median of " + " ".join(f"{t:.4f}" for t in setups),
        "speed": f"x{scale:.4f} over the run ({len(runner.probe.samples)} kernel times); "
                 f"each call by the kernel times within {NEAR_S} s of it",
        "rounds": " ".join(f"{w:.3f}" for w in runner.round_walls),
    }
    return runner, metrics, info


def traced(workload: str, seed: int, seconds: float, tiny: bool,
           workdir: str) -> tuple[Runner, dict, dict]:
    import workloads
    from tracer import Tracer

    jobs, warm = _setup(workload, seed, tiny, workdir)
    plain = Runner(jobs)
    plain.run_for(seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        jobs, _ = _setup(workload, seed, tiny, workdir)
        setup = tracer.summarize(0, len(tracer.spans), "setup")
        runner = Runner(jobs, tracer)
        runner.run_for(seconds / 2, min_rounds=2)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))

    rounds = runner.summaries
    first = rounds[0]
    counts = {k for r in rounds for k in r if not k.endswith("_s")}
    repeats = all(r.get(k) == first.get(k) for r in rounds for k in counts)
    values = {k: v for k, v in first.items() if k in counts}
    for k in {k for r in rounds for k in r} - counts:
        values[k] = statistics.fmean(r.get(k, 0.0) for r in rounds)
    def v(key):
        return values.get(key, 0)

    # edges of the disk stages: the apex stage adds its whole fan in one build
    added = sum(v(f"triangulate.added.{stage}") for stage in workloads.STAGES[:-1])
    values |= {
        "embedding.Embedding.builds": v("embedding.Embedding.calls"),
        "embedding.builds_per_added_edge": v("embedding.builds.by_triangulate") / max(1, added),
        "peeling.rounds_per_peel":
            v("embedding.remove_vertices.calls") / max(1, v("peeling.onion_peels.calls")),
        "oracles.triangulation_yield_ratio":
            v("oracles.enumerate_face_triangulations.yielded")
            / max(1, v("oracles.enumerate_face_triangulations.tried")),
        "cli.verify_to_emit_ratio.bd":
            v("cli.verify.bd.busy_s") / v("cli.emit.bd.busy_s") if v("cli.emit.bd.busy_s") else 0,
        "generators.busy_s": setup.get("generators.busy_s", 0.0),
        "triangulate.size_exponent": workloads.size_exponent(plain.latencies(), tiny),
        "trace.overhead_frac":
            sum(runner.latencies().values()) / sum(plain.latencies().values()) - 1,
    }
    runner.add_counts(plain)
    runner.add_counts(warm)
    info = {"counts_repeat": repeats, "absent": tracer.absent,
            "hook_errors": tracer.hook_errors, "rounds": len(rounds), "per_round": rounds}
    return runner, values, info


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload.

    Returns the result object the command prints last, and the details
    printed before it: failures, output digests and run information.
    """
    _import_library()
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = _load_spec()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        if trace:
            runner, values, info = traced(workload, seed, seconds, tiny, workdir)
            wanted = spec["per_layer"]
        else:
            runner, values, info = end_to_end(workload, seed, seconds, tiny, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:  # a layer the workload does not exercise reads 0
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    result = {
        "correct": runner.failed == 0 and info.get("counts_repeat", True),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, {"info": info, "failures": runner.failures, "digests": runner.digests}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))

    info = details["info"]
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    digests = details["digests"]
    for name, digest in digests.items():
        print(f"digest {digest} {name}")
    combined = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    print(f"digest {combined} workload {args.workload} (all outputs)")
    if args.trace:
        print(f"trace: {info['rounds']} traced rounds; counts repeat: {info['counts_repeat']}")
        for name in info["absent"]:
            print(f"trace: absent {name}")
        for err in info["hook_errors"][:5]:
            print(f"trace: hook error {err}")
    else:
        print(f"round walls (s): {info['rounds']}")
        print(f"job_tail_ms is {info['tail']}")
        print(f"setup_s is {info['setup']}")
        print(f"times are at reference speed: measured times {info['speed']}")
        print(f"metric fail_frac {info['fail_frac']:.6f} frac")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
