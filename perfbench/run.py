"""sevae benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {vae-train,rnn-train,tag-long}
        [--seed N] [--seconds S] [--trace 0|1]

The seed makes the inputs (perfbench/gen.py); the package only ever sees
the generated JSONL files and, for tag-long, checkpoints written from
them. Every measurement runs in a fresh child process (perfbench/work.py)
that imports the package from ./src. Untraced runs print the end-to-end
metrics; --trace 1 alternates untraced rounds with rounds under span
tracing (perfbench/tracing.py) and prints the per-layer metrics and the
tracing overhead. BLAS thread variables are left as found and recorded.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it are a human-readable table and the environment.
Per-run details go to perfbench/out/ (and the spans of traced runs).
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from work import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
LOSS_RTOL = 1e-6
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "SEVAE_BACKEND")

END_TO_END = (("setup_s", "s"), ("clauses_per_s", "1/s"), ("eval_clauses_per_s", "1/s"),
              ("doc_ms_p50", "ms"), ("doc_ms_p95", "ms"), ("peak_rss_mb", "MB"))


def per_layer_unit(name):
    for suffix, unit in ((".calls", "count"), (".gflop", "GFLOP"), (".gbyte", "GB"),
                         (".tokens", "tokens"), (".bytes", "bytes"), ("_share", "ratio"),
                         (".overhead", "ratio"), ("_eff", "ratio"), (".s", "s"),
                         (".self_s", "s")):
        if name.endswith(suffix):
            return unit
    if ".nodes_per_clause." in name:
        return "nodes/clause"
    if ".floats_per_step." in name:
        return "floats/step"
    raise ValueError(f"no unit for per-layer metric {name!r}")


# ---------------------------------------------------------------------------
# statistics


def percentile(samples, p):
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of zero samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def model_percentile(per_model, p):
    """Geometric mean over models of each model's p-th percentile.

    The models' latencies form separate clusters (rnn-train: disc and gen
    at 1-3 ms, ctx and lat at 7-45 ms), so the percentile of the pooled
    samples can fall in the gap between two clusters, where it swings
    with a few samples either side. Each model's own percentile lies
    inside its cluster, and the geometric mean weighs a given relative
    change of any model alike."""
    values = [percentile(xs, p) for xs in per_model.values()]
    return math.exp(statistics.fmean(math.log(v) for v in values))


def samples_beyond(per_model, p):
    """How many samples, over all models, exceed their model's p-th percentile."""
    return sum(sum(x > percentile(xs, p) for x in xs) for xs in per_model.values())


def tail_percentile(per_model, ladder=TAIL_LADDER):
    """(p, model_percentile) for the highest p in ladder with >= 10
    samples beyond it."""
    for p in ladder:
        if samples_beyond(per_model, p) >= 10:
            return p, model_percentile(per_model, p)
    return None


# ---------------------------------------------------------------------------
# child processes


def run_child(mode, workload, workdir, seconds=0.0, trace=0, spans=None):
    """Run perfbench/work.py in a fresh process; returns its result dict."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "work.py"), "--mode", mode, "--workload", workload,
           "--dir", workdir, "--t0", repr(t0), "--seconds", repr(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    # the child's stdout goes to stderr: the last stdout line is reserved
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child for {workload} exited with code {proc.returncode}")
    with open(os.path.join(workdir, f"result-{mode}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(workload, seed, workdir):
    for part, records in gen.make_inputs(WORKLOADS[workload]["inputs"], seed).items():
        gen.write_jsonl(records, os.path.join(workdir, f"{part}.jsonl"))


def environment(child_env):
    env = dict(child_env)
    env.update({
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    })
    return env


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = os.path.join(".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# metrics and checks


def round_times(units):
    """(train, checkpoint io, tag) seconds of each round, summed over models."""
    n = min(len(unit["doc_ms"]) for unit in units.values())
    out = []
    for i in range(n):
        train = sum(sum(u["epoch_s"][i]) for u in units.values() if u["epoch_s"])
        io = sum(u["io_s"][i] for u in units.values() if u["io_s"])
        tag = sum(sum(u["doc_ms"][i]) for u in units.values()) / 1e3
        out.append((train, io, tag))
    return out


def median_round(units, parts=(0, 1, 2)):
    """Median over rounds of the seconds a round spends in parts.

    Every round repeats identical work. On a shared 2-vCPU host, other
    tenants slowed whole stretches of a run by up to 1.7x; there the
    median round was steadier across runs than the fastest one."""
    return statistics.median(sum(r[i] for i in parts) for r in round_times(units))


def doc_samples(units):
    """Per model, each document's median tag latency over the rounds, in ms.

    One sample is one document tagged by one model. Every round tags the
    same documents, so a document's rounds differ by what else ran on the
    machine meanwhile and by intermittent stalls of the program (a
    garbage-collection pass); their median drops a slowdown that hits a
    minority of rounds and keeps one that hits most of them. Percentiles over every (document, round) time instead spread
    0.11-0.18 (IQR/median) across seeds on rnn-train, against 0.06-0.07
    for these."""
    return {name: [statistics.median(doc) for doc in zip(*unit["doc_ms"])]
            for name, unit in units.items()}


def end_to_end(result, setups):
    units = result["units"]
    doc_ms = doc_samples(units)
    trained = result["clauses_trained_per_round"]
    tagged = result["clauses_tagged_per_round"]
    values = {
        "setup_s": statistics.median(setups),
        "clauses_per_s": (trained + tagged) / median_round(units),
        "eval_clauses_per_s": tagged / median_round(units, (2,)),
        "doc_ms_p50": model_percentile(doc_ms, 50),
        "doc_ms_p95": model_percentile(doc_ms, 95),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def extras(result):
    """Metrics printed for people but not gated: they do not apply to
    every workload, or they are 0 on a healthy run."""
    units = result["units"]
    doc_ms = doc_samples(units)
    out = {}
    if result["clauses_trained_per_round"]:
        out["train_clauses_per_s"] = (result["clauses_trained_per_round"]
                                      / median_round(units, (0,)), "1/s")
        out["test_macro_f1"] = (statistics.fmean(result["test_macro_f1"].values()), "ratio")
    out["doc_samples"] = (sum(len(xs) for xs in doc_ms.values()), "count")
    out["doc_samples_beyond_p95"] = (samples_beyond(doc_ms, 95), "count")
    tail = tail_percentile(doc_ms)
    if tail:
        out[f"doc_ms_p{tail[0]:g}"] = (tail[1], "ms")
    out["doc_same_length_share"] = (result["doc_same_length_share"], "ratio")
    for name, size in result["vocab_size"].items():
        out[f"vocab_size.{name}"] = (size, "types")
    out["rounds"] = (len(result["round_walls_s"]), "count")
    return out


def compare_outputs(a, b, what, clauses_per_epoch):
    """Failed-operation count and messages where two runs' outputs differ:
    one per document tagged differently, one per clause of an epoch whose
    losses differ."""
    failed, errors = 0, []
    for name, preds in a["preds"].items():
        other = b["preds"].get(name)
        if other is None:
            failed += len(preds)
            errors.append(f"{name}: no predictions in {what}")
            continue
        bad = sum(x != y for x, y in zip(preds, other)) + abs(len(preds) - len(other))
        if bad:
            failed += bad
            errors.append(f"{name}: {bad} documents tagged differently in {what}")
    for name, losses in a["losses"].items():
        other = b["losses"].get(name)
        if not losses_close(losses, other):
            failed += len(losses) * clauses_per_epoch
            errors.append(f"{name}: epoch losses differ in {what}")
    return failed, errors


def losses_close(a, b, rtol=LOSS_RTOL):
    if b is None or len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        for x, y in zip(row_a, row_b):
            if not abs(x - y) <= rtol * max(abs(x), abs(y), 1e-300):
                return False
    return True


def load_reference(workload):
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get("workloads", {}).get(workload)


# ---------------------------------------------------------------------------


def collect(workload, seed, seconds, trace):
    """Generate the inputs and run the children; returns the measuring
    child's result and every set-up time."""
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        write_inputs(workload, seed, workdir)
        if not WORKLOADS[workload]["train"]:
            run_child("prep", workload, workdir)
        # set-up probes before and after the measurement sample the machine
        # at different times; set-up time is their median
        setups = [run_child("setup", workload, workdir)["setup_s"] for _ in range(SETUP_PROBES)]
        spans = os.path.join(out_dir, f"{workload}-seed{seed}-spans.tsv") if trace else None
        result = run_child("measure", workload, workdir, seconds, trace, spans)
        setups.append(result["setup_s"])
        setups += [run_child("setup", workload, workdir)["setup_s"] for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, setups


def measure(workload, seed, seconds, trace):
    """Run one benchmark; returns (report dict, final JSON object)."""
    result, setups = collect(workload, seed, seconds, trace)
    attempted = result["attempted"]
    failed = result["failed"]
    errors = list(result["errors"])
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    if reference:
        n, errs = compare_outputs(reference, result, "this run against perfbench/reference.json",
                                  result["clauses_per_epoch"])
        failed += n
        errors += errs

    more = extras(result)
    more["failed_frac"] = (failed / attempted, "ratio")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(result["environment"]),
        "end_to_end": end_to_end(result, setups),
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in more.items()},
        "setup_samples_s": setups,
        "units": result["units"],
        "reference_checked": bool(reference),
        "errors": errors,
    }
    if trace:
        layers = dict(result["per_layer"])
        layers["trace.overhead"] = (median_round(result["traced_units"])
                                    / median_round(result["units"]))
        report["per_layer"] = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
        report["shares"] = result["shares"]
        metrics = report["per_layer"]
    else:
        metrics = report["end_to_end"]
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(report, result=final), fh, indent=1)
    return report, final


def print_report(report):
    w = report["workload"]
    print(f"# environment {json.dumps(report['environment'], sort_keys=True)}")
    for section in ("end_to_end", "extras", "per_layer"):
        for name, m in report.get(section, {}).items():
            print(f"{w:10s} {section:10s} {name:40s} {m['value']:.6g} {m['unit']}")
    for model, roots in report.get("shares", {}).items():
        for root, parts in roots.items():
            text = " ".join(f"{part} {share:.0%}" for part, share in parts.items() if share)
            print(f"{w:10s} share      {model} {root}: {text}")
    for err in report["errors"]:
        print(f"{w:10s} error      {err}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="sevae end-to-end and per-layer benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "sevae")):
        print("perfbench: run from the repository root (no src/sevae here)", file=sys.stderr)
        return 2
    try:
        report, final = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
