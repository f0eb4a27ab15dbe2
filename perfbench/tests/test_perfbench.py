"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They take a few minutes: the determinism test makes two traced calls
on each sequential synthesis workload.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from types import SimpleNamespace

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import run as perfbench_run  # noqa: E402

perfbench_run._import_program()

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

REFERENCES = bench_workloads.load_references()
DETERMINISTIC = ("kernel.runs", "pruning.add_calls", "store.lookup_calls",
                 "fingerprint.calls")


def _counts(workload):
    tracer = bench_trace.Tracer(workload.scratch)
    outcome = perfbench_run.traced_call(workload, tracer)
    assert not any(outcome.problems)
    metrics = bench_trace.layer_metrics(
        tracer, outcome.report, outcome.run_s, outcome.run_s, 0,
        REFERENCES["synthesis"]["sequential_evaluated"],
    )
    return {name: metrics[name] for name in DETERMINISTIC}, metrics


def _installed_objects():
    return [vars(owner)[attribute]
            for owner, attribute, _factory in bench_trace.targets()]


def test_tampered_synthesis_reference_is_a_failure():
    solutions = [SimpleNamespace(assignment=(("h", "a"),), fingerprint=1)]
    report = SimpleNamespace(inherent_failure=False, stopped_early=False,
                             solutions=solutions)
    reference = {"solutions": 1,
                 "digest": bench_workloads.solution_digest(solutions)}
    assert bench_workloads.check_synthesis(report, reference) is None
    tampered = dict(reference, digest="0" * 64)
    assert bench_workloads.check_synthesis(report, tampered) is not None
    assert bench_workloads.check_synthesis(
        report, dict(reference, solutions=2)) is not None


def test_tampered_reference_fails_the_run(monkeypatch, capsys):
    tampered = copy.deepcopy(REFERENCES)
    tampered["synthesis"]["digest"] = "0" * 64
    monkeypatch.setattr(bench_workloads, "load_references", lambda: tampered)
    assert perfbench_run.main(["--workload", "synth-cold", "--seed", "0",
                               "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # The warm-up probe, one full call and the probe calls; probes stop at
    # one solution, so only the full call meets the tampered digest.
    assert result["attempted"] == 2 + perfbench_run.MIN_PROBES
    assert result["failed"] == 1
    assert result["correct"] is False


def test_wrappers_are_removed_after_a_traced_block(tmp_path):
    originals = _installed_objects()
    tracer = bench_trace.Tracer(str(tmp_path))
    with bench_trace.installed(tracer):
        assert _installed_objects() != originals
        from repro import api

        api.verify("mutex", 2)
    assert _installed_objects() == originals
    assert [span[2] for span in tracer.spans] == ["kernel.run"]
    with pytest.raises(RuntimeError):
        with bench_trace.installed(tracer):
            raise RuntimeError("boom")
    assert _installed_objects() == originals


@pytest.mark.parametrize("name", ["synth-cold", "synth-store"])
def test_layer_counts_repeat_exactly(tmp_path, name):
    originals = _installed_objects()
    workload = bench_workloads.WORKLOADS[name](str(tmp_path), REFERENCES)
    first, metrics = _counts(workload)
    assert _installed_objects() == originals
    second, _metrics = _counts(workload)
    assert first == second
    if name == "synth-cold":
        # No store: the store layer stays idle.
        assert metrics["store.lookup_calls"] == 0
        assert metrics["store.record_calls"] == 0
    else:
        # Every candidate misses the empty store and is recorded.
        assert first["store.lookup_calls"] == metrics["store.record_calls"] > 0


def test_benchmark_json_matches_the_metric_records(tmp_path):
    root = os.path.dirname(PERFBENCH)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(bench_trace.METRICS_PATH, encoding="utf-8") as handle:
        records = json.load(handle)
    assert benchmark["workloads"] == records["workloads"]
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (cls.name, cls.why) for cls in bench_workloads.WORKLOADS.values()
    ]
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        assert benchmark[kind] == [
            {key: record[key] for key in keys} for record in records[kind]
        ]
    # A traced call reports exactly the per-layer metrics.
    tracer = bench_trace.Tracer(str(tmp_path))
    reported = bench_trace.layer_metrics(tracer, None, 1.0, 1.0, 0, 0)
    assert set(reported) == {record["name"] for record in records["per_layer"]}
