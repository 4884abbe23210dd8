"""End-to-end checks of the runner; each workload runs for a few seconds."""

import json
import os

import pytest

import run
from work import WORKLOADS

with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    for m in BENCHMARK["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_metric_and_its_overhead(workload):
    report, final = run.measure(workload, seed=7, seconds=0.1, trace=1)
    assert final["correct"], report["errors"]
    assert final["failed"] == 0 and final["attempted"] > 0
    assert set(final["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert final["metrics"]["trace.overhead"]["value"] > 0
    e2e = report["end_to_end"]
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())
