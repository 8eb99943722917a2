"""Tests of the benchmark itself, at tiny input sizes.

Run from the root of a checkout:  python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(workload, trace, seed=3):
    """The result object, with the run details under "details"."""
    result, details = run.run(workload, seed, 0.05, trace, tiny=True)
    return result | {"details": details}


@pytest.fixture(scope="module")
def traced_results():
    return {w: tiny(w, True) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    result = tiny(workload, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["details"]["info"]["fail_frac"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_layer_metric_prints_and_is_observed(traced_results):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    seen = set()
    for workload, result in traced_results.items():
        assert result["correct"], (workload, result["details"]["failures"])
        assert not result["details"]["info"]["absent"] and not result["details"]["info"]["hook_errors"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        # every layer is timed on every workload: no time is a structural zero
        assert all(v["value"] > 0 for v in result["metrics"].values() if v["unit"] == "s"), workload
        seen |= {k for k, v in result["metrics"].items() if v["value"]}
    # stages the tiny inputs need not reach, and a difference that may be 0
    optional = {"triangulate.added.connect", "triangulate.added.inner-cut",
                "triangulate.added.ear", "trace.overhead_frac"}
    assert set(units) - optional <= seen


def test_counts_repeat_between_repetitions(traced_results):
    for workload, result in traced_results.items():
        first, second = result["details"]["info"]["per_round"][:2]
        counts = {k for k in first if k.endswith(".calls") or ".builds." in k
                  or ".added." in k or k.endswith(".yielded")}
        assert any(".builds." in k for k in counts), workload
        assert {k: first[k] for k in counts} == {k: second.get(k) for k in counts}, workload
        assert result["details"]["info"]["counts_repeat"], workload


def test_traced_mechanisms(traced_results):
    deep = traced_results["peel-oracles"]["metrics"]
    assert deep["oracles.enumerate_face_triangulations.yielded"]["value"] == 1
    assert deep["embedding.builds.by_oracles"]["value"] > 0
    assert deep["embedding.builds.by_peeling"]["value"] > deep["embedding.builds.by_triangulate"]["value"]
    assert sum(v["value"] for k, v in deep.items() if k.startswith("triangulate.added.")) == 0
    convert = traced_results["convert-cli"]["metrics"]
    assert convert["embedding.builds.by_triangulate"]["value"] > 0
    assert convert["cli.verify.bd.busy_s"]["value"] > 0


def _wrong_peels(emb):
    import onionpeel
    layers = onionpeel.peeling.onion_peels(emb).layers
    return onionpeel.PeelDecomposition(layers=(layers[0] | layers[-1],) + layers[1:-1])


def _accept_anything(emb, artifact, args):
    return None


@pytest.mark.parametrize("workload, target, attr, fake", [
    ("peel-oracles", "onionpeel", "onion_peels", _wrong_peels),
    ("convert-cli", "onionpeel.cli", "_verify_conversion", _accept_anything),
])
def test_wrong_answer_raises_fail_frac(monkeypatch, workload, target, attr, fake):
    import importlib
    monkeypatch.setattr(importlib.import_module(target), attr, fake)
    result = tiny(workload, False)
    assert not result["correct"]
    assert result["details"]["info"]["fail_frac"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([2.0, 1.0]) == (100.0, 2.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_times_scale_to_reference_speed():
    import speed
    probe = speed.SpeedProbe(every=60.0)
    probe.maybe_sample()
    probe.maybe_sample()  # within `every` of the first: skipped
    assert len(probe.samples) == 1
    probe.samples = [2 * speed.REF_S, 6 * speed.REF_S, 3 * speed.REF_S]
    probe.times = [0.0, 1.0, 10.0]
    near = speed.NEAR_S
    assert probe.scale() == pytest.approx(1 / 3)
    assert probe.scale_at(near / 2, near / 2) == pytest.approx(1 / 2)  # the sample at 0.0
    assert probe.scale_at(near, 1.0 - near) == pytest.approx(1 / 4)  # those at 0.0 and 1.0
    assert probe.scale_at(5.0, 6.0) == pytest.approx(1 / 3)  # none near: the run's
    assert speed.reference_kernel() == speed.reference_kernel()
