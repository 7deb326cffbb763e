"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import re
import shutil
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from perfbench import inputs, metrics, run, verify, workloads
from perfbench.tracing import SpanRecorder, span_cost_ns
from repro import road_network
from repro.pathing.dijkstra import shortest_distance
from repro.serving import ServeReport

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 1.0

SMOKE = {
    "social-zipf-updates": dict(
        graph=("social", 200), zipf_pool=30, rate=25.0, batch_queries=20,
        closed_pool=200,
    ),
    "grid-sharded-failures": dict(
        graph=("grid", 6, 6), rate=20.0, batch_queries=4, closed_pool=80,
    ),
}


def smoke_spec(name: str) -> workloads.Spec:
    return dataclasses.replace(
        workloads.WORKLOADS[name], setup_reps=2, spot_checks=8, **SMOKE[name]
    )


def smoke_run(name: str, seed: int, tmp_path: Path, trace: bool = True):
    workdir = tmp_path / f"{name}-{seed}-{trace}"
    workdir.mkdir()
    bench = workloads.BenchRun(smoke_spec(name), seed, SECONDS, trace, workdir)
    return bench, bench.execute()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_verified_and_reports_every_metric(name, tmp_path):
    bench, outcome = smoke_run(name, 3, tmp_path)
    tallies = outcome["tallies"]
    assert sum(t["attempted"] for t in tallies.values()) > 0
    assert sum(verify.failed_count(t) for t in tallies.values()) == 0
    assert outcome["spot"]["checked"] > 0 and not outcome["spot"]["mismatches"]
    end_to_end = metrics.end_to_end(bench, outcome)
    per_layer = metrics.per_layer(bench, outcome)
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(value > 0 for value in end_to_end.values())
    if name == "social-zipf-updates":
        assert per_layer["cache.hit_ratio"] > 0
    if name == "grid-sharded-failures":
        assert per_layer["sharding.legs_per_query"] > 0


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        metrics.PER_LAYER
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        rate = re.search(r"([\d.]+) req/s", entry["why"])
        assert rate and float(rate.group(1)) == workloads.WORKLOADS[entry["name"]].rate
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_corrupted_reference_fails_the_query():
    graph = road_network(8, 8, seed=1)
    frozen = workloads.DISO(graph, tau=workloads.TAU, theta=workloads.THETA).freeze()
    model = inputs.FailureModel.from_graph(graph)
    rng = random.Random(5)
    queries = [
        inputs.wire(*pair, model.failure_set(*pair, rng))
        for pair in (model.pair(rng) for _ in range(6))
    ]
    answers, _ = frozen.answer_many(queries)
    report = ServeReport(
        answers=list(answers), latencies=[0.0] * 6, wall_seconds=1.0,
        workers=1, errors=[None] * 6,
    )
    served = [verify.Served("open", 0, queries, report)]
    expected = verify.reference_answers(served, [frozen])
    tallies, wrong = verify.check_answers(served, [frozen], expected)
    assert tallies["open"]["ok"] == 6 and not wrong
    expected[(0, queries[2])] = -1.0
    tallies, wrong = verify.check_answers(served, [frozen], expected)
    assert tallies["open"]["wrong"] == 1 and verify.failed_count(tallies["open"]) == 1
    assert len(wrong) == 1


def test_wrong_answer_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        workloads.WORKLOADS, "grid-sharded-failures",
        smoke_spec("grid-sharded-failures"),
    )
    monkeypatch.setattr(run, "OUTPUT", tmp_path)
    honest = verify.reference_answers

    def corrupted(served, references):
        expected = honest(served, references)
        key = next(iter(expected))
        expected[key] = -1.0
        return expected

    monkeypatch.setattr(verify, "reference_answers", corrupted)
    code = run.main([
        "--workload", "grid-sharded-failures", "--seed", "1",
        "--seconds", str(SECONDS), "--trace", "0",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_command_leaves_no_process_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        workloads.WORKLOADS, "social-zipf-updates",
        smoke_spec("social-zipf-updates"),
    )
    monkeypatch.setattr(run, "OUTPUT", tmp_path)
    tracker = resource_tracker._resource_tracker
    tracker.ensure_running()
    code = run.main([
        "--workload", "social-zipf-updates", "--seed", "1",
        "--seconds", str(SECONDS), "--trace", "0",
    ])
    assert code == 0
    assert tracker._pid is None and not multiprocessing.active_children()


def test_same_seed_same_inputs_and_exact_counts(tmp_path):
    for name in workloads.WORKLOADS:
        spec = smoke_spec(name)
        first = workloads.make_inputs(spec, spec.make_graph(), 11, SECONDS)
        again = workloads.make_inputs(spec, spec.make_graph(), 11, SECONDS)
        other = workloads.make_inputs(spec, spec.make_graph(), 12, SECONDS)
        assert first == again
        assert first.open_requests != other.open_requests
    counts = {}
    for attempt in range(2):
        (tmp_path / str(attempt)).mkdir()
        for name, metric in (
            ("social-zipf-updates", "cache.hit_ratio"),
            ("grid-sharded-failures", "sharding.legs_per_query"),
        ):
            bench, outcome = smoke_run(name, 4, tmp_path / str(attempt))
            counts.setdefault(metric, []).append(
                metrics.per_layer(bench, outcome)[metric]
            )
    for metric, values in counts.items():
        assert values[0] == values[1] and values[0] > 0, metric


def test_paper_workloads_never_repeat_a_triple():
    spec = smoke_spec("grid-sharded-failures")
    graph = spec.make_graph()
    data = workloads.make_inputs(spec, graph, 2, SECONDS)
    stream = (
        [q for r in data.warmups + data.update_warmups + data.open_requests
         for q in r]
        + data.closed_pool
    )
    assert len(set(stream)) == len(stream)
    shard_of = workloads.make_shard_plan(
        graph, workloads.SHARDS, method="metis", seed=workloads.GRAPH_SEED
    ).assignment
    subsets = [s for q in stream for s in inputs.per_shard_failures(q[2], shard_of)]
    assert len(set(subsets)) == len(subsets)


def test_failure_model_follows_the_paper_model():
    graph = road_network(12, 12, seed=1)
    model = inputs.FailureModel.from_graph(graph)
    rng = random.Random(9)
    for _ in range(20):
        source, target = model.pair(rng)
        failed: set = set()
        for tail, head in model.essential(source, target, inputs.F_GEN, rng):
            # Each essential failure lies on a shortest path of G minus
            # the failures chosen before it.
            assert shortest_distance(graph, source, target, failed) == pytest.approx(
                shortest_distance(graph, source, tail, failed)
                + graph.weight(tail, head)
                + shortest_distance(graph, head, target, failed),
                rel=1e-12,
            )
            failed.add((tail, head))
        assert model.distance(source, target, failed) == pytest.approx(
            shortest_distance(graph, source, target, failed), rel=1e-12
        )


def test_self_times_and_chrome_trace(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("outer", "serving"):
        with recorder.span("inner", "oracle"):
            sum(range(10000))
        with recorder.span("other", "oracle"):
            pass
    outer, inner, other = recorder.spans
    assert inner.parent == outer.id and other.parent == outer.id
    table = recorder.self_times()
    assert table["serving"] == pytest.approx(
        outer.seconds - inner.seconds - other.seconds
    )
    assert table["oracle"] == pytest.approx(inner.seconds + other.seconds)
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner", "other"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert span_cost_ns(calls=2000) > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sharded-failures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert finished.returncode != 0
    assert '"correct"' not in finished.stdout
