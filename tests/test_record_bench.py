"""The summary step of benchmarks/record_bench.py on canned run output; no
benchmark runs here."""

import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "record_bench.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(commit, p50, rss, failed=0):
    env = {"git_commit": commit, "nproc": 2}
    result = {"correct": failed == 0, "attempted": 40, "failed": failed,
              "metrics": {"doc_ms_p50": {"value": p50, "unit": "ms"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([
        f"# environment {json.dumps(env, sort_keys=True)}",
        "tag-long   end_to_end doc_ms_p50                               7.1 ms",
        json.dumps(result),
    ]) + "\n"


def test_summary_gives_each_metrics_median_min_and_max():
    script = _load_script()
    runs = [script.parse_run(_stdout("abc", p50, rss, failed))
            for p50, rss, failed in ((7.5, 99.0, 0), (6.9, 98.0, 0), (8.25, 98.5, 1))]
    record = script.summarize(runs)
    assert record["metrics"]["doc_ms_p50"] == {"median": 7.5, "min": 6.9, "max": 8.25, "unit": "ms",
                                               "values": [7.5, 6.9, 8.25]}
    assert record["metrics"]["peak_rss_mb"]["median"] == 98.5
    assert record["runs"] == 3 and record["attempted"] == 120 and record["failed"] == 1
    assert record["correct"] is False
    assert record["environment"] == {"git_commit": "abc", "nproc": 2}
