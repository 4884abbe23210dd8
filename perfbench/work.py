"""Benchmark child process: set-up, timed rounds and output checks.

Run by perfbench/run.py, one fresh process per measurement:

    python3 perfbench/work.py --mode {prep,setup,measure} --workload NAME
        --dir WORKDIR --t0 MONOTONIC_SPAWN_TIME [--seconds S] [--trace 0|1]
        [--spans PATH]

It drives the public calls that ``sevae train`` and ``sevae eval`` make:
data.load_corpus -> harness.train -> harness.save_checkpoint /
harness.load_checkpoint -> harness.predict_codes per document. Traced
runs of a workload with a sweep grid also run ``sevae sweep --jobs 2``
through cli.main once, after the rounds, for the cli.* metrics. A round is
one fixed unit of work (train every model of the workload for a fixed
number of epochs and tag the test documents, or tag the long documents
with every loaded model); rounds repeat until the time budget is spent,
at least MIN_ROUNDS times. Every round repeats identical work, so the
outputs of all rounds must be identical too. Results go to
WORKDIR/result-<mode>.json.
"""

import argparse
import json
import math
import os
import resource
import sys
import time

from tracing import BASELINE_CLASSES, TENSOR_OPS, Tracer

# inputs names the generator's input kind (perfbench/gen.py)
WORKLOADS = {
    "vae-train": {"models": ("vae-bow", "vae-lstm", "vae-xfmr"), "train": True, "inputs": "train"},
    "rnn-train": {"models": ("disc", "gen", "lat", "ctx"), "train": True, "inputs": "train",
                  "sweep": True},
    "tag-long": {"models": ("disc", "gen", "lat", "ctx", "vae-bow", "vae-lstm", "vae-xfmr"),
                 "train": False, "inputs": "tag-long"},
}
# the low-resource grid of the traced sweep: 2 models x 2 seeds at k=4;
# Pool.map hands each worker one gen cell, then one ctx cell
SWEEP_ARGS = ("--models", "gen,ctx", "--ks", "4", "--seeds", "1,2",
              "--max-epochs", "1", "--jobs", "2")
SWEEP_CELLS = 4
# per-model time shares printed for traced runs
SHARE_ROOTS = ("harness.train", "harness.predict_codes")
SHARE_PARTS = ("tensor.backward", "kernels.lstm_forward", "kernels.lstm_backward",
               "encoders.encode_pooled", "harness.adam_step")
TRAIN_EPOCHS = 1
TRAIN_SEED = 0
PREP_EPOCHS = 1
# every time reported is the median of at least this many rounds
MIN_ROUNDS = 3
# keep every child well inside the runner's per-run time limit
HARD_STOP_S = 100.0
CHECK_DOCS = 2


def import_sevae(root):
    """Import the package from root/src; refuse any other installation."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import sevae
    from sevae import cli, data, harness, models  # noqa: F401
    if not os.path.abspath(sevae.__file__).startswith(src + os.sep):
        raise SystemExit(f"sevae imported from {sevae.__file__}, not from {src}")
    return sevae


def documents(clauses):
    """Clauses grouped by doc_id, in file order."""
    docs = {}
    for cl in clauses:
        docs.setdefault(cl.doc_id, []).append(cl)
    return list(docs.values())


def same_length_share(groups):
    """Share of items whose value occurs at least twice in its own group."""
    total = shared = 0
    for group in groups:
        seen = {}
        for n in group:
            seen[n] = seen.get(n, 0) + 1
        total += len(group)
        shared += sum(k for k in seen.values() if k > 1)
    return shared / total if total else 0.0


def _losses(log):
    return [[rec[k] for k in sorted(rec) if k != "epoch"] for rec in log]


class Child:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.sevae = import_sevae(os.getcwd())
        self.tracer = None
        if args.trace:
            self.tracer = Tracer()
            self.tracer.install(self.sevae)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def path(self, name):
        return os.path.join(self.args.dir, name)

    def fail(self, n, message):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(message)

    def set_model(self, name):
        if self.tracer:
            self.tracer.model = name

    # ------------------------------------------------------------------

    def setup(self):
        data, harness = self.sevae.data, self.sevae.harness
        self.train = data.load_corpus(self.path("train.jsonl"))
        self.test = data.load_corpus(self.path("test.jsonl"))
        self.docs = documents(self.test)
        self.loaded = {}
        if not self.spec["train"]:
            for name in self.spec["models"]:
                self.set_model(name)
                model, vocab, _meta = harness.load_checkpoint(self.path(f"{name}.ckpt"))
                self.loaded[name] = (model, vocab)
        return time.monotonic() - self.args.t0

    def tag(self, model, vocab):
        """Per-document predictions and latencies (ms) of one model."""
        predict = self.sevae.harness.predict_codes
        preds, lat = [], []
        for doc in self.docs:
            if self.tracer:
                self.tracer.new_request()
            t0 = time.perf_counter()
            codes = predict(model, doc, vocab)
            lat.append((time.perf_counter() - t0) * 1e3)
            preds.append(codes)
        if self.tracer:
            self.tracer.request = -1
        return preds, lat

    def train_model(self, name):
        """Train, checkpoint, reload and tag; returns the round's record."""
        sevae = self.sevae
        harness = sevae.harness
        spec = sevae.models.default_spec(name)
        cfg = harness.default_train_config(name, max_epochs=TRAIN_EPOCHS, seed=TRAIN_SEED)
        split = sevae.data.Split(self.train, [], self.test, "perfbench")
        marks = [time.perf_counter()]
        result = harness.train(spec, split, cfg, log_hook=lambda rec: marks.append(time.perf_counter()))
        t1 = time.perf_counter()
        # one unit per epoch; the last also holds the snapshot restore
        marks[-1] = t1
        epoch_s = [b - a for a, b in zip(marks, marks[1:])]
        if self.tracer:
            self.tracer.request = -1
        ckpt = self.path(f"{name}.ckpt")
        harness.save_checkpoint(result, ckpt)
        model, vocab, _meta = harness.load_checkpoint(ckpt)
        t2 = time.perf_counter()
        preds, lat = self.tag(model, vocab)
        rec = {"epoch_s": epoch_s, "io_s": t2 - t1, "doc_ms": lat,
               "losses": _losses(result.log), "preds": preds}
        return rec, result

    def check_losses(self, name, losses):
        for epoch, row in enumerate(losses):
            if not all(math.isfinite(v) for v in row):
                self.fail(len(self.train), f"{name}: non-finite loss in epoch {epoch}: {row}")

    def measure(self):
        """Repeat rounds; every unit of work (one training epoch of one
        model, its checkpoint round trip, one document tagged by one model)
        gets one time per round under units[model].

        With tracing, rounds alternate between untraced ones (units) and
        traced ones (traced_units): the tracer is installed for traced
        rounds only. The overhead then compares rounds measured side by
        side, and the check that every round's outputs equal the first
        round's also compares traced with untraced outputs."""
        models = self.spec["models"]
        n_train = len(self.train) * TRAIN_EPOCHS if self.spec["train"] else 0

        def new_units():
            return {name: {"epoch_s": [], "io_s": [], "doc_ms": []} for name in models}

        plain, traced = new_units(), new_units()
        first = {}
        last_result = {}
        walls = []
        min_rounds = MIN_ROUNDS * (2 if self.tracer else 1)
        if self.tracer:
            self.tracer.uninstall()
            self.counts_at_start = dict(self.tracer.counts)
        started = time.perf_counter()
        while True:
            in_trace = self.tracer is not None and len(walls) % 2 == 1
            if in_trace:
                self.tracer.install(self.sevae)
            units = traced if in_trace else plain
            t_round = time.perf_counter()
            for name in models:
                self.set_model(name)
                ops = len(self.docs) + n_train
                self.attempted += ops
                try:
                    if n_train:
                        rec, last_result[name] = self.train_model(name)
                    else:
                        preds, lat = self.tag(*self.loaded[name])
                        rec = {"doc_ms": lat, "losses": [], "preds": preds}
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.fail(ops, f"{name}: {type(exc).__name__}: {exc}")
                    continue
                for key in ("epoch_s", "io_s", "doc_ms"):
                    if key in rec:
                        units[name][key].append(rec[key])
                self.check_losses(name, rec["losses"])
                ref = first.setdefault(name, rec)
                if rec["losses"] != ref["losses"]:
                    self.fail(n_train, f"{name}: losses differ between rounds")
                bad = sum(a != b for a, b in zip(rec["preds"], ref["preds"]))
                if bad:
                    self.fail(bad, f"{name}: {bad} documents tagged differently between rounds")
            walls.append(time.perf_counter() - t_round)
            if in_trace:
                self.tracer.uninstall()
            elapsed = time.perf_counter() - started
            if elapsed >= HARD_STOP_S:
                break
            if elapsed >= self.args.seconds and len(walls) >= min_rounds:
                break
        rounds_window = (started, time.perf_counter())
        if self.tracer:
            self.counts_at_end = dict(self.tracer.counts)
            shares = self.tracer.shares(SHARE_ROOTS, SHARE_PARTS, *rounds_window)
            if self.spec.get("sweep"):
                self.run_sweep()
        self.check_reload(first, last_result)
        gold = [int(cl.label) for cl in self.test]
        f1 = {}
        for name, rec in first.items():
            pred = [c for codes in rec["preds"] for c in codes]
            f1[name] = self.sevae.harness.compute_metrics(gold, pred)[1]
        out = {
            "units": plain,
            "round_walls_s": walls,
            "clauses_per_epoch": len(self.train),
            "clauses_trained_per_round": n_train * len(models),
            "clauses_tagged_per_round": len(self.test) * len(models),
            "losses": {k: v["losses"] for k, v in first.items()},
            "preds": {k: v["preds"] for k, v in first.items()},
            "test_macro_f1": f1,
            "doc_same_length_share": self.doc_share(),
            "vocab_size": {name: len(last_result[name].vocab if n_train else self.loaded[name][1])
                           for name in first},
        }
        if self.tracer:
            out["traced_units"] = traced
            out["per_layer"] = self.per_layer(rounds_window, len(walls) // 2, n_train)
            out["shares"] = shares
        return out

    def run_sweep(self):
        """One ``sevae sweep --jobs 2`` grid through cli.main, traced; its
        outputs must be one finite row per cell."""
        self.set_model(None)
        out = self.path("sweep")
        args = ["sweep", "--train", self.path("train.jsonl"), "--test", self.path("test.jsonl"),
                "--out", out, *SWEEP_ARGS]
        self.attempted += SWEEP_CELLS
        self.tracer.install(self.sevae, worker_log=self.path("worker-spans.tsv"))
        try:
            code = self.sevae.cli.main(args)
        finally:
            self.tracer.uninstall()
            self.tracer.merge_worker_spans(self.path("worker-spans.tsv"))
        if code != 0:
            self.fail(SWEEP_CELLS, f"sweep exited with code {code}")
            return
        with open(os.path.join(out, "sweep_meta.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        bad = SWEEP_CELLS - sum(all(math.isfinite(v) for v in row[3:]) for row in rows)
        if bad:
            self.fail(bad, f"sweep: {bad} of {SWEEP_CELLS} cells missing or not finite")

    def check_reload(self, first, last_result):
        """The checkpoint-loaded model must tag exactly as the in-memory one."""
        if self.spec["train"]:
            for name, result in last_result.items():
                self.set_model(name)
                preds, _ = self.tag(result.model, result.vocab)
                bad = sum(a != b for a, b in zip(preds, first[name]["preds"]))
                if bad:
                    self.fail(bad, f"{name}: {bad} documents tagged differently after reload")
            return
        with open(self.path("expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        for name, docs in expected.items():
            got = first.get(name, {}).get("preds", [])[:len(docs)]
            bad = sum(a != b for a, b in zip(got, docs)) + len(docs) - len(got)
            if bad:
                self.fail(bad, f"{name}: {bad} documents tagged differently after reload")

    def per_layer(self, window, n_rounds, n_train):
        """Per-layer metrics of one set-up plus one round.

        Spans and counters before the first round count once; those of the
        rounds are averaged over the rounds; the cli.* metrics come from the
        one sweep after the rounds. Per-model metrics are 0 for
        models the workload does not run, as are layers it does not reach.
        The two input shares are the fraction of clauses whose token length
        another clause of the same optimizer step (batch) or of the same
        document also has, the property length bucketing depends on.
        """
        tr = self.tracer
        setup = tr.totals(until=window[0])
        measured = tr.totals(since=window[0], until=window[1])
        counts = tr.counts
        models = self.sevae.models.MODEL_NAMES

        def span(name, field):
            i = {"calls": 0, "s": 1, "self_s": 2}[field]
            return setup.get(name, [0, 0.0, 0.0])[i] + measured.get(name, [0, 0.0, 0.0])[i] / n_rounds

        m = {}
        m["tensor.backward.s"] = span("tensor.backward", "s")
        m["tensor.backward.calls"] = span("tensor.backward", "calls")
        trained = n_train * n_rounds if self.spec["train"] else 0
        for name in models:
            nodes = counts.get(("tensor.nodes", name), 0.0)
            m[f"tensor.nodes_per_clause.{name}"] = nodes / trained if trained else 0.0
        for op in TENSOR_OPS:
            m[f"tensor.op.{op}.calls"] = span(f"tensor.op.{op}", "calls")
            m[f"tensor.op.{op}.s"] = span(f"tensor.op.{op}", "s")
        for k in ("lstm_forward", "lstm_backward"):
            m[f"kernels.{k}.calls"] = span(f"kernels.{k}", "calls")
            m[f"kernels.{k}.s"] = span(f"kernels.{k}", "s")
            m[f"kernels.{k}.gflop"] = self.round_count(f"kernels.{k}.flop", n_rounds) / 1e9
            m[f"kernels.{k}.gbyte"] = self.round_count(f"kernels.{k}.byte", n_rounds) / 1e9
        m["encoders.encode_pooled.calls"] = span("encoders.encode_pooled", "calls")
        m["encoders.encode_pooled.s"] = span("encoders.encode_pooled", "s")
        m["encoders.encode_pooled.tokens"] = self.round_count("encoders.encode_pooled.tokens", n_rounds)
        for fn in ("posterior", "decode", "elbo_loss", "classify_map"):
            m[f"vae.{fn}.s"] = span(f"vae.{fn}", "s")
        for short in BASELINE_CLASSES:
            m[f"baselines.{short}.loss.s"] = span(f"baselines.{short}.loss", "s")
            m[f"baselines.{short}.predict.s"] = span(f"baselines.{short}.predict", "s")
        m["harness.train.s"] = span("harness.train", "s")
        m["harness.train.self_s"] = span("harness.train", "self_s")
        m["harness.adam_step.calls"] = span("harness.adam_step", "calls")
        m["harness.adam_step.s"] = span("harness.adam_step", "s")
        for name in models:
            steps = counts.get(("harness.adam_step.steps", name), 0.0)
            floats = counts.get(("harness.adam_step.floats", name), 0.0)
            m[f"harness.adam_step.floats_per_step.{name}"] = floats / steps if steps else 0.0
        m["harness.clip_global_norm.s"] = span("harness.clip_global_norm", "s")
        m["harness.predict_codes.s"] = span("harness.predict_codes", "s")
        m["harness.save_checkpoint.s"] = span("harness.save_checkpoint", "s")
        m["harness.save_checkpoint.bytes"] = self.round_count("harness.save_checkpoint.bytes", n_rounds)
        m["harness.load_checkpoint.s"] = span("harness.load_checkpoint", "s")
        m["data.load_corpus.s"] = span("data.load_corpus", "s")
        m["data.build_vocab.s"] = span("data.build_vocab", "s")
        m["data.paragraphs_of.s"] = span("data.paragraphs_of", "s")
        m["models.build_model.s"] = span("models.build_model", "s")
        # the sweep runs once, after the rounds
        after = tr.totals(since=window[1])
        cells = after.get("cli.sweep_cell", [0, 0.0, 0.0])
        sweep_s = after.get("cli.sweep", [0, 0.0, 0.0])[1]
        jobs = counts.get("cli.sweep.jobs", 0.0)
        m["cli.sweep_cell.calls"] = cells[0]
        m["cli.sweep_cell.s"] = cells[1]
        m["cli.sweep.parallel_eff"] = cells[1] / (jobs * sweep_s) if sweep_s else 0.0
        by_request = {}
        for req, n in tr.lengths:
            by_request.setdefault(req, []).append(n)
        m["input.batch_same_length_share"] = same_length_share(by_request.values())
        m["input.doc_same_length_share"] = self.doc_share()
        return m

    def doc_share(self):
        return same_length_share([[len(cl.tokens) for cl in doc] for doc in self.docs])

    def round_count(self, key, n_rounds):
        """A counter's set-up part plus its per-round part."""
        before = self.counts_at_start.get(key, 0.0)
        during = self.counts_at_end.get(key, 0.0) - before
        return before + during / n_rounds

    # ------------------------------------------------------------------

    def prep(self):
        """Write the tag-long checkpoints and the in-memory predictions of
        the first documents, for the reload check."""
        sevae = self.sevae
        harness = sevae.harness
        train = sevae.data.load_corpus(self.path("train.jsonl"))
        docs = documents(sevae.data.load_corpus(self.path("test.jsonl")))[:CHECK_DOCS]
        expected = {}
        for name in self.spec["models"]:
            spec = sevae.models.default_spec(name)
            cfg = harness.default_train_config(name, max_epochs=PREP_EPOCHS, seed=TRAIN_SEED)
            result = harness.train(spec, sevae.data.Split(train, [], [], "perfbench"), cfg)
            harness.save_checkpoint(result, self.path(f"{name}.ckpt"))
            expected[name] = [harness.predict_codes(result.model, doc, result.vocab) for doc in docs]
        with open(self.path("expected.json"), "w", encoding="utf-8") as fh:
            json.dump(expected, fh)

    def run(self):
        mode = self.args.mode
        if mode == "prep":
            self.prep()
            return {}
        setup_s = self.setup()
        out = {"setup_s": setup_s}
        if mode == "measure":
            out.update(self.measure())
            if self.tracer and self.args.spans:
                self.tracer.write(self.args.spans)
        out["attempted"] = self.attempted
        out["failed"] = self.failed
        out["errors"] = self.errors
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["environment"] = self.environment()
        return out

    def environment(self):
        import numpy as np
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            blas = None
        return {"kernels_backend": self.sevae.kernels.BACKEND, "numpy": np.__version__,
                "blas": blas}


def main(argv=None):
    ap = argparse.ArgumentParser(description="perfbench child process")
    ap.add_argument("--mode", choices=("prep", "setup", "measure"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    out = Child(args).run()
    with open(os.path.join(args.dir, f"result-{args.mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
