"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, layer_hooks, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def mp():
    return run.import_library()


def _generate(name: str, seed: int) -> dict:
    inputs = workloads.get(name).generate(seed, run.ROOT)
    if "files" in inputs:
        shutil.rmtree(run.ROOT / inputs["files"])
    return inputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_fingerprint(name):
    first = workloads.fingerprint(_generate(name, 5))
    assert workloads.fingerprint(_generate(name, 5)) == first
    assert workloads.fingerprint(_generate(name, 6)) != first


def test_planted_wrong_results_are_counted_and_not_fatal(mp):
    w = workloads.get("seesaw_oracle")
    env = w.setup(mp, _generate(w.name, 1))

    def off_by_1e3(c, **kwargs):
        return mp.optimize.brute_force_max(c, **kwargs) + 1e-3

    def broken(c, **kwargs):
        raise RuntimeError("planted")

    for oracle in (off_by_1e3, broken):
        fake = SimpleNamespace(
            optimize=SimpleNamespace(seesaw_max=mp.optimize.seesaw_max, brute_force_max=oracle)
        )
        diags = run.Diagnostics()
        latencies, failed, _ = run.run_items(w, fake, env, count=2, diags=diags)
        assert len(latencies) == 2 and failed == 2
    assert diags.errors and "planted" in diags.errors[0]

    _, failed, _ = run.run_items(w, mp, env, count=2)
    assert failed == 0


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):  # 0
        with tracer.span("inner"):  # 1 .. 2
            pass
        with tracer.span("inner"):  # 3 .. 4
            pass
    # outer closes at 5
    assert tracer.totals() == {"outer": (1, 3.0), "inner": (2, 2.0)}
    assert list(tracer.parent) == [-1, 0, 0]


def test_wrappers_cover_direct_imports_and_bypasses_are_found(mp):
    original = mp.optimize.seesaw_max
    tracer = Tracer()
    tracer.install(run.PACKAGE, layer_hooks(run.PACKAGE))
    try:
        # repetition imported seesaw_max by name; both bindings are wrapped
        assert mp.repetition.seesaw_max is mp.optimize.seesaw_max is not original
        state = mp.linalg.state_from_dict({"dims": [2], "re": [1.0, 0.0], "im": [0.0, 0.0]})
        desc = mp.encoding.encode_state(state, 8)

        def calls_through_and_around():
            mp.encoding.decode_state(desc)
            tracer.originals["encoding.decode_state"](desc)

        assert tracer.bypassed_calls(calls_through_and_around) == {"encoding.decode_state": 1}
        assert tracer.counters["encoding.components"] == 2
    finally:
        tracer.uninstall()
    assert mp.optimize.seesaw_max is original and mp.repetition.seesaw_max is original


def _run(*args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_end_to_end(name, monkeypatch):
    monkeypatch.setattr(run, "MIN_ITEMS", 2)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    result = _run("--workload", name, "--seed", "3", "--seconds", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced(name):
    result = _run("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_benchmark_file_matches_the_runner():
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
