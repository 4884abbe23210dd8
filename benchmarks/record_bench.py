"""Record the repository's benchmark (BENCHMARK.json) as one BENCH file.

From the repository root it runs BENCHMARK.json's command (perfbench/run.py)
ROUNDS times for each workload, each run for the file's run_seconds, taking
the workloads in turn within a round. From each run it reads the JSON object
on the last stdout line ({"correct", "attempted", "failed", "metrics"}) and
the "# environment" line before it.

OUT then holds, per workload, each end-to-end metric's median, min and max
over the rounds (and the values themselves), whether every run was correct,
and the summed attempted and failed counts, with the first run's
environment. It also records the git commit of the checkout and whether its
tracked files differ from it, os.getloadavg() at the start and at the end
(a run beside another job is not comparable), and the BLAS thread count in
effect, read through the loaded OpenBLAS (None when it exports no thread
calls).

Usage: python3 benchmarks/record_bench.py OUT
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sevae import kernels  # noqa: E402

ROUNDS = 3
ENV_PREFIX = "# environment "


def parse_run(stdout):
    """(environment, result) of one run's stdout: the "# environment"
    line's object and the last line's."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX))
    return env, json.loads(lines[-1])


def summarize(runs):
    """One workload's record from its runs' (environment, result) pairs."""
    results = [result for _env, result in runs]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {"median": statistics.median(values), "min": min(values),
                         "max": max(values), "unit": first["unit"], "values": values}
    return {
        "runs": len(runs),
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
        "environment": runs[0][0],
    }


def _git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _run(command, workload, seconds):
    argv = [*command, "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description="record BENCHMARK.json's workloads as a BENCH file")
    ap.add_argument("out", help="path of the JSON file to write")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    calls = kernels._openblas_thread_calls()
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    record = {
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "blas_threads": calls[0]() if calls is not None else None,
        "loadavg_start": list(os.getloadavg()),
        "rounds": ROUNDS,
        "run_seconds": bench["run_seconds"],
    }
    names = [w["name"] for w in bench["workloads"]]
    runs = {name: [] for name in names}
    for _ in range(ROUNDS):
        for name in names:
            runs[name].append(_run(bench["command"], name, bench["run_seconds"]))
    record["loadavg_end"] = list(os.getloadavg())
    record["workloads"] = {name: summarize(runs[name]) for name in names}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
