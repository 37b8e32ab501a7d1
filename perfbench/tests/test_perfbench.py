"""Self-tests of the benchmark: tracing changes no result, counts are right, the gate bites.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import protoselect
from protoselect import nnqp, oracle, ranking, selectors
from protoselect.nnqp import WeightVector

import calibrate
import spans
from workloads import END_TO_END, WORKLOADS, selection_problems

ROOT = Path(__file__).resolve().parents[2]


def small_pool(name, seed=0):
    w = WORKLOADS[name]
    return w, w.make_pool(np.random.default_rng(seed), w.small)


def traced_item(w, inp):
    tracer = spans.Tracer()
    with tracer.installed():
        out = tracer.call("item", w.run_item, inp, w.small)
    return tracer, out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_plain_runs_agree(name):
    w, pool = small_pool(name)
    for inp in pool:
        plain = w.check(w.run_item(inp, w.small))
        tracer, out = traced_item(w, inp)
        traced = w.check(out)
        assert plain.problems == [] and traced.problems == []
        assert traced.fingerprint == plain.fingerprint
        assert tracer.spans[0].name == "item" and len(tracer.spans) > 1


def test_bindings_are_wrapped_inside_and_restored_after():
    bindings = [(selectors, "solve_restricted"), (oracle, "solve_restricted"),
                (ranking, "solve_restricted"), (ranking, "kernel_matrix"),
                (ranking, "mean_map"), (oracle, "proto_dash"), (protoselect, "objective")]
    before = [getattr(mod, attr) for mod, attr in bindings]
    with spans.Tracer().installed():
        inside = [getattr(mod, attr) for mod, attr in bindings]
    assert all(a is not b and a.__wrapped__ is b for a, b in zip(inside, before))
    assert [getattr(mod, attr) for mod, attr in bindings] == before


def test_proto_dash_makes_one_solve_per_step():
    w, pool = small_pool("dash_5k")
    tracer, (_, _, res, _) = traced_item(w, pool[0])
    assert not res.early_stopped and len(res.indices) == w.small["m"]
    metrics = spans.layer_metrics(tracer.spans, [[0]])
    assert metrics["nnqp.solve_restricted.calls"] == w.small["m"]
    assert metrics["kernel.kernel_matrix.calls"] == 1
    assert metrics["trace.unattributed_frac"] < 0.5


def test_layer_self_times_add_up_to_the_item():
    w, pool = small_pool("rank_5x2k")
    tracer, _ = traced_item(w, pool[0])
    m = spans.layer_metrics(tracer.spans, [[0]])
    layers = sum(m[k] for k in ("kernel.self_s", "nnqp.self_s", "selectors.self_s",
                                "oracle.self_s", "ranking.rank_sources.self_s"))
    assert layers + m["trace.unattributed_frac"] * m["trace.item_s"] == pytest.approx(m["trace.item_s"])
    assert m["ranking.proto_dash.calls"] == w.small["k"]
    assert m["ranking.solve_restricted.calls"] == w.small["k"] * (w.small["k"] - 1)


def test_gate_fails_doubled_weights():
    w, pool = small_pool("dash_5k")
    K, mu, res, _ = w.run_item(pool[0], w.small)
    assert selection_problems(res, K, mu) == []
    doubled = WeightVector(res.weights.support, 2.0 * res.weights.weights, res.weights.dimension)
    problems = selection_problems(replace(res, weights=doubled), K, mu)
    assert any("KKT" in p for p in problems)
    assert any("final_objective" in p for p in problems)


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        w, a = small_pool(name, seed=3)
        _, b = small_pool(name, seed=3)
        assert pickle.dumps(a) == pickle.dumps(b)


def test_calibrator_scales_by_the_speeds_on_either_side(monkeypatch):
    measured = iter([2.0, 0.5, 0.5])
    monkeypatch.setattr(calibrate, "speed", lambda pieces: next(measured))
    clock = calibrate.Calibrator(("interpreter",))
    first, second = {"seconds": 3.0}, {"seconds": 5.0}
    clock.add(first)
    clock.close()  # nominal speed on average: unchanged
    clock.add(second)
    clock.close()  # half the nominal speed: half the wall time
    assert first["ref_seconds"] == pytest.approx(3.0)
    assert second["ref_seconds"] == pytest.approx(2.5)
    assert clock.pending == [] and len(clock.samples) == 3


def test_every_workload_names_known_calibration_pieces():
    for w in WORKLOADS.values():
        assert w.calibration and set(w.calibration) <= set(calibrate.PIECES)
        assert 0.0 < calibrate.speed(w.calibration)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER


def test_runner_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dash_5k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
