"""Smoke tests for the benchmark: every workload at toy size, the metric
names and units it prints, and the shape of its trace.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {
    "setup_s": "s",
    "color_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "share",
    "messages": "count",
    "max_message_bits": "bits",
}
REPORTED = {
    "graph_p50_s": "s",
    "graph_p95_s": "s",
    "fail_share": "share",
    "slack_attempts": "count",
    "rounds": "rounds",
    "messages": "count",
    "max_message_bits": "bits",
}
PER_LAYER = {
    "graph_core.graph_init_s": "s",
    "graph_core.graph_inits": "count",
    "graph_core.kclique_s": "s",
    "acd.build_s": "s",
    "acd.verify_s": "s",
    "acd.cliques": "count",
    "acd.sparse_nodes": "count",
    "classify.classify_s": "s",
    "classify.partition_s": "s",
    "phases.self_s": "s",
    "slackgen.trial_s": "s",
    "slackgen.gate_s": "s",
    "slackgen.attempts": "count",
    "slackgen.gate_pass_ratio": "ratio",
    "slackgen.deg1_retries": "count",
    "listcolor.build_s": "s",
    "listcolor.solve_s": "s",
    "listcolor.units": "count",
    "sim_engine.run_s": "s",
    "sim_engine.messages": "count",
    "sim_engine.messages_per_s": "1/s",
    "sim_engine.slackgen.run_s": "s",
    "sim_engine.slackgen.messages": "count",
    "sim_engine.slackgen.messages_per_s": "1/s",
    "sim_engine.listcolor.run_s": "s",
    "sim_engine.listcolor.messages": "count",
    "sim_engine.listcolor.messages_per_s": "1/s",
    "oracle_validate.validate_s": "s",
    "trace.overhead_s": "s",
}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_metrics_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_workload_prints_every_metric(workload):
    result, report = run.run(workload, 0, 0.0, trace=False, toy=True)
    assert result["correct"], report["info"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert units(result) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {k: u for k, (_, u) in report["extra"].items()} == REPORTED

    result, report = run.run(workload, 0, 0.0, trace=True, toy=True)
    assert result["correct"], report["info"]["problems"]
    assert units(result) == PER_LAYER
    kinds = {name for name in report["extra"] if name.startswith("listcolor.")}
    assert kinds and all(name.rsplit(".", 1)[1] in ("build_s", "solve_s", "units") for name in kinds)


def test_gate_fails_a_run_with_an_invalid_coloring(monkeypatch):
    monkeypatch.setattr(run, "validate_coloring", lambda g, colors, k: False)
    result, report = run.run("clique_farm", 0, 0.0, trace=False, toy=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "valid coloring False" in report["info"]["problems"][0]


def test_trace_forms_one_tree_per_pipeline_run():
    cases = workloads.generate(workloads.specs("sweep", 0, toy=True))
    tracer = spans.Tracer()
    gate = run.Gate()
    with spans.instrument(tracer):
        run.color_pass(cases, gate, tracer, speed.Probe())
    assert spans.check(tracer.spans, len(cases)) == []
    roots = [s for s in tracer.spans if s.parent is None and s.name == spans.ROOT]
    assert len(roots) == len(cases)
    by_id = {s.id: s for s in tracer.spans}
    for span in tracer.spans:
        top = span
        while top.parent is not None:
            top = by_id[top.parent]
        assert top.run == span.run
        assert top.name in (spans.ROOT, spans.VALIDATE)
    names = {s.name for s in tracer.spans}
    assert {"acd.build", "acd.verify", "slackgen.gate", "sim_engine.run", "listcolor.solve"} <= names


def test_instrument_restores_the_package():
    from brooks_sim import phases
    from brooks_sim.graph_core.graph import Graph

    before = (phases.compute_acd, Graph.__init__)
    with spans.instrument(spans.Tracer()):
        assert phases.compute_acd is not before[0]
    assert (phases.compute_acd, Graph.__init__) == before


def test_probe_scales_a_call_by_the_probes_around_it():
    probe = speed.Probe()
    probe.points = [0.01, 0.03]
    assert probe.to_reference(2.0, 0) == pytest.approx(2.0 * speed.REFERENCE_S / 0.02)
    assert probe.to_reference(2.0, 1) == pytest.approx(2.0 * speed.REFERENCE_S / 0.03)


def test_trace_check_rejects_overlapping_children():
    tracer = spans.Tracer()
    root = tracer.open(spans.ROOT)
    a = tracer.open("acd.build")
    tracer.close(a)
    b = tracer.open("acd.verify")
    tracer.close(b)
    tracer.close(root)
    root.start, root.end = 0.0, 1.0
    a.start, a.end = 0.1, 0.6
    b.start, b.end = 0.4, 0.9  # overlaps a
    assert any("self+children" in p for p in spans.check(tracer.spans, 1))


def test_expected_table_covers_both_seeds_with_sweep_failures():
    table = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            assert set(table[workload][str(seed)]) == set(run.MODEL_UNITS)
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        assert table["sweep"][str(seed)]["fail_share"] != "0"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
