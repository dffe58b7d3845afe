"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gen
import oracle
import run
import tracing

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
SMALL_POOLS = {
    "value-stream": 12,
    "constants-sweep": 4,
    "epsargmin-pairs": 4,
    "transform-identity": 2,
}


def _declared():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _traced(name, seed=5):
    inputs = gen.WORKLOADS[name](seed, SMALL_POOLS[name])
    return inputs, run._worker(name, "trace", 0, inputs, run.WORKER_TIMEOUT_S)


@pytest.fixture(scope="module")
def traced_runs():
    return {name: (_traced(name), _traced(name)) for name in SMALL_POOLS}


@pytest.mark.parametrize("name", sorted(SMALL_POOLS))
def test_traced_call_counts_repeat(traced_runs, name):
    (_, first), (_, second) = traced_runs[name]
    calls_1, _ = tracing.summarize(first["names"], first["spans"])
    calls_2, _ = tracing.summarize(second["names"], second["spans"])
    assert calls_1 == calls_2
    assert calls_1["op"] == SMALL_POOLS[name]


@pytest.mark.parametrize("name", sorted(SMALL_POOLS))
def test_traced_and_untraced_values_bit_identical(traced_runs, name):
    (_, response), _ = traced_runs[name]
    assert repr(response["setup_values"]) == repr(response["traced_setup_values"])
    assert repr(response["results"]) == repr(response["traced_results"])
    assert all(error is None for _, _, error in response["results"])


def test_wrappers_see_calls_made_through_imported_names(traced_runs):
    (_, response), _ = traced_runs["transform-identity"]
    names, spans = response["names"], response["spans"]
    # transform binds project_onto_polytope by name; model binds hausdorff.
    assert tracing.calls_under(
        names, spans, "geometry.project_onto_polytope", "transform."
    ) > 0
    (_, response), _ = traced_runs["value-stream"]
    calls, _ = tracing.summarize(response["names"], response["spans"])
    assert calls["geometry.hausdorff"] > 0
    # lp.slater_constant calls solve through lp's own globals.
    assert calls["lp.solve"] > calls["lp.slater_constant"] > 0


def test_wrappers_are_removed_after_a_traced_block(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import workloads

    before = {m: dict(vars(m)) for m in workloads.LAYERS}
    check = workloads.stability.ValueLipschitzChecker.check
    tracer = tracing.Tracer()
    with tracing.installed(tracer, workloads.LAYERS, workloads.TRACED_CLASSES):
        assert workloads.geometry.hausdorff is not before[workloads.geometry]["hausdorff"]
        assert workloads.model.hausdorff is not before[workloads.model]["hausdorff"]
    assert {m: dict(vars(m)) for m in workloads.LAYERS} == before
    assert workloads.stability.ValueLipschitzChecker.check is check


def test_self_time_subtracts_children():
    names = ["outer", "inner"]
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 4.0, 0, 0), (1, 5.0, 6.0, 0, 0)]
    calls, self_s = tracing.summarize(names, spans)
    assert calls == {"outer": 1, "inner": 2}
    assert self_s["outer"] == pytest.approx(6.0)
    assert self_s["inner"] == pytest.approx(4.0)


class _WrongValue(oracle.Oracle):
    """Oracle whose optimal value for one input is off by 1e-3."""

    def __init__(self, wrong_key):
        super().__init__()
        self.wrong_key = wrong_key

    def value(self, key, problem):
        good = super().value(key, problem)
        return good + 1e-3 if key == self.wrong_key else good


def test_wrong_oracle_value_raises_failures(traced_runs):
    (inputs, response), _ = traced_runs["value-stream"]
    results = response["results"]
    assert oracle.failures("value-stream", inputs, results) == {}

    failed = oracle.failures("value-stream", inputs, results, _WrongValue(3))
    assert list(failed) == [3] and "nu_v" in failed[3]
    failed = oracle.failures("value-stream", inputs, results, _WrongValue("reference"))
    assert len(failed) == len(results)

    translate = next(
        i for i, item in enumerate(inputs["items"]) if item["kind"] == "translate"
    )
    inputs["items"][translate]["magnitude"] += 1e-6
    failed = oracle.failures("value-stream", inputs, results)
    assert list(failed) == [translate] and "d_nat" in failed[translate]


def test_wrong_translation_norm_fails_transform_check(traced_runs):
    (inputs, response), _ = traced_runs["transform-identity"]
    results = response["results"]
    assert oracle.failures("transform-identity", inputs, results) == {}
    inputs["items"][1]["shift"] *= 1.001
    assert list(oracle.failures("transform-identity", inputs, results)) == [1]


def test_program_failures_count():
    results = [(0, None, "ValueError: boom"), (1, {"passed": False}, None)]
    failed = oracle.failures("constants-sweep", {"items": []}, results)
    assert sorted(failed) == [0, 1]


def test_per_layer_metrics_match_benchmark_json(traced_runs):
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    for name in SMALL_POOLS:
        (_, response), _ = traced_runs[name]
        samples = sum(v.get("samples", 0) for _, v, _ in response["traced_results"])
        metrics, _, _ = run.per_layer_metrics(
            response["names"],
            response["spans"],
            response["untraced_s"],
            response["traced_s"],
            samples,
        )
        assert {k: m["unit"] for k, m in metrics.items()} == declared
    (_, response), _ = traced_runs["transform-identity"]
    assert 0.0 < metrics["transform.sample_accept_ratio"]["value"] < 1.0


def test_benchmark_json_names_the_workloads():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert declared["command"] == ["python3", "perfbench/run.py"]


def _run_cli(*args, env=None, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=170,
    )


def test_end_to_end_metrics_match_benchmark_json():
    proc = _run_cli(
        "--workload", "value-stream", "--seed", "3", "--seconds", "0.5", "--trace", "0"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio = 0" in proc.stdout


def test_refuses_tolerance_override():
    env = dict(os.environ, ROBUST_STABILITY_TOL="1e-6")
    proc = _run_cli(
        "--workload", "value-stream", "--seed", "1", "--seconds", "1", "--trace", "0",
        env=env,
    )
    assert proc.returncode == 2
    assert "ROBUST_STABILITY_TOL" in proc.stderr
    assert "correct" not in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _run_cli(
        "--workload", "value-stream", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_generator_is_seeded_and_keeps_hypotheses():
    for name, make in gen.WORKLOADS.items():
        a, b = make(7, 6), make(7, 6)
        assert repr(a) == repr(b), name
        assert repr(a) != repr(make(8, 6)), name
        assert repr(make(7, 3)["items"]) == repr(a["items"][:3]), name
    problems = [gen.value_stream(7, 0)["reference"], *gen.constants_sweep(7, 8)["items"]]
    problems += [item["u"] for item in gen.epsargmin_pairs(7, 8)["items"]]
    for problem in problems:
        labels = [label for label, _ in problem["sets"]]
        n = problem["cost"].shape[0]
        for i in range(n):
            assert f"lo{i}" in labels and f"hi{i}" in labels
        for label, V in problem["sets"]:
            if label.startswith("u"):
                assert np.all(V[:, -1] <= gen.B_MAX)
