"""Span tracing installed from outside the package under test.

Tracer.install() replaces public functions and methods of the package with
wrappers that record one span per call: (name, start, end, parent span,
request id, model). A request is one optimizer step or one tagged
document; model is the model being trained or tagged. Each
wrapper replaces the name where its caller looks it up, e.g.
``harness.adam_step`` (a module global that ``harness.train`` reads) or
``harness.build_vocab`` (the name ``harness`` imported from ``data``).
Counters (tape nodes, LSTM flops, trainable floats, checkpoint bytes,
clause lengths per request) are recorded at the same boundaries.
uninstall() restores every original. Spans stay in memory until write().

Sweep cells run in pool worker processes, whose memory this process never
sees: their wrapper appends each call's span to a file instead, and
merge_worker_spans() reads it back. time.perf_counter() is the system-wide
monotonic clock on Linux, so worker and parent times are comparable.
"""

import os
import time
from collections import defaultdict

TENSOR_OPS = ("affine", "matmul", "softmax", "log_softmax", "logsumexp", "layer_norm",
              "cross_entropy", "embedding", "lstm_seq", "concat")
BASELINE_CLASSES = {"disc": "DiscModel", "gen": "ClassLMModel",
                    "lat": "LatentClassLMModel", "ctx": "CtxModel"}


def lstm_cost(T, H):
    """(flops, bytes) of one LSTM kernel pass over T steps at hidden size H.

    Counts the recurrent matvec (8H^2 flops per step) and the gate
    arithmetic (about 13H flops per step), and the float64 bytes of the
    recurrent weights read once per step plus the per-step gate, state and
    input rows (4H weights rows of H, 4H input row, 4H gate row, 2H states).
    """
    flops = T * (8 * H * H + 13 * H)
    moved = 8 * T * (4 * H * H + 4 * H + 4 * H + 2 * H)
    return flops, moved


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self._next_request = 0
        self.model = None
        self.counts = defaultdict(float)
        self.lengths = []  # (request, clause length) per training clause
        self._installed = []

    def new_request(self):
        self.request = self._next_request
        self._next_request += 1

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr with a span-recording wrapper.

        before(args) runs at entry; after(args, result) runs at exit with
        the call's return value.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.request, tracer.model)
            if after is not None:
                after(args, out)
            return out

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        wrapper.__module__ = getattr(original, "__module__", None)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        own = attr in vars(owner)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, own))

    def wrap_in_workers(self, owner, attr, name, log_path):
        """Replace owner.attr with a wrapper that appends (name, start,
        end) of every call to log_path; for calls made in forked workers."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            end = time.perf_counter()
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{name}\t{start!r}\t{end!r}\n")
            return out

        # pool workers unpickle the function by module and qualified name,
        # which must resolve to this wrapper
        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__module__ = original.__module__
        own = attr in vars(owner)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, own))

    def merge_worker_spans(self, log_path):
        """Add the spans written by wrap_in_workers wrappers, then empty the log."""
        if not os.path.exists(log_path):
            return
        with open(log_path, encoding="utf-8") as fh:
            for line in fh:
                name, start, end = line.split("\t")
                self.spans.append((name, float(start), float(end), -1, -1, self.model))
        os.remove(log_path)

    def uninstall(self):
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # ------------------------------------------------------------------
    # counters

    def _count(self, key, value):
        self.counts[key] += value

    def _lengths(self, lengths):
        for n in lengths:
            self.lengths.append((self.request, int(n)))

    def install(self, sevae, worker_log=os.devnull):
        """Wrap every layer boundary named in perfbench's per-layer metrics.

        worker_log is the file the sweep cells' worker-side spans go to."""
        tensor, kernels, encoders = sevae.tensor, sevae.kernels, sevae.encoders
        vae, baselines, harness, data = sevae.vae, sevae.baselines, sevae.harness, sevae.data
        c = self._count

        self.wrap(tensor.Tape, "backward", "tensor.backward",
                  before=lambda a: c(("tensor.nodes", self.model), len(a[0].nodes)))
        for op in TENSOR_OPS:
            self.wrap(tensor, op, f"tensor.op.{op}")

        def lstm_fwd(a):
            flops, moved = lstm_cost(a[0].shape[0], a[2].shape[0])
            c("kernels.lstm_forward.flop", flops)
            c("kernels.lstm_forward.byte", moved)

        def lstm_bwd(a):
            flops, moved = lstm_cost(*a[0].shape)
            c("kernels.lstm_backward.flop", flops)
            c("kernels.lstm_backward.byte", moved)

        self.wrap(kernels, "lstm_forward", "kernels.lstm_forward", before=lstm_fwd)
        self.wrap(kernels, "lstm_backward", "kernels.lstm_backward", before=lstm_bwd)

        self.wrap(encoders, "encode_pooled", "encoders.encode_pooled",
                  before=lambda a: c("encoders.encode_pooled.tokens", len(a[0])))

        self.wrap(vae.VAEModel, "posterior", "vae.posterior")
        self.wrap(vae.VAEModel, "decode", "vae.decode")
        self.wrap(vae.VAEModel, "elbo_loss", "vae.elbo_loss",
                  before=lambda a: self._lengths([len(a[1])]))
        self.wrap(vae.VAEModel, "classify_map", "vae.classify_map")

        for short, cls_name in BASELINE_CLASSES.items():
            cls = getattr(baselines, cls_name)
            if short == "ctx":
                self.wrap(cls, "paragraph_loss", "baselines.ctx.loss",
                          before=lambda a: self._lengths([len(ids) for ids in a[1]]))
                self.wrap(cls, "predict_paragraph_probs", "baselines.ctx.predict")
            else:
                self.wrap(cls, "loss", f"baselines.{short}.loss",
                          before=lambda a: self._lengths([len(a[1])]))
                self.wrap(cls, "predict_probs", f"baselines.{short}.predict")

        def first_step(a):
            self.new_request()

        def step_done(a, out):
            c(("harness.adam_step.floats", self.model), sum(g.size for g in a[1].values()))
            c(("harness.adam_step.steps", self.model), 1)
            self.new_request()

        self.wrap(harness, "train", "harness.train", before=first_step)
        self.wrap(harness, "adam_step", "harness.adam_step", after=step_done)
        self.wrap(harness, "clip_global_norm", "harness.clip_global_norm")
        self.wrap(harness, "predict_codes", "harness.predict_codes")
        self.wrap(harness, "save_checkpoint", "harness.save_checkpoint",
                  after=lambda a, out: c("harness.save_checkpoint.bytes", os.path.getsize(a[1])))
        self.wrap(harness, "load_checkpoint", "harness.load_checkpoint")
        self.wrap(harness, "build_vocab", "data.build_vocab")
        self.wrap(harness, "paragraphs_of", "data.paragraphs_of")
        self.wrap(harness, "build_model", "models.build_model")
        self.wrap(data, "load_corpus", "data.load_corpus")

        # _cmd_sweep calls _run_jobs(_sweep_cell, jobs, n_jobs) by module globals
        cli = sevae.cli
        self.wrap(cli, "_run_jobs", "cli.sweep", before=lambda a: c("cli.sweep.jobs", a[2]))
        self.wrap_in_workers(cli, "_sweep_cell", "cli.sweep_cell", worker_log)

    # ------------------------------------------------------------------
    # reduction

    def totals(self, since=0.0, until=float("inf")):
        """{name: [calls, seconds, self seconds]} over spans starting in [since, until)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        child_time = defaultdict(float)
        for name, start, end, parent, _req, _model in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _parent, _req, _model) in enumerate(self.spans):
            if not since <= start < until:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time.get(idx, 0.0)
        return out

    def shares(self, roots, parts, since=0.0, until=float("inf")):
        """{model: {root: {part: share}}}: the share of each model's time in
        root spans (e.g. harness.train) spent in part spans below them.

        Only spans starting in [since, until) count."""
        top = []  # name of each span's outermost ancestor
        for name, _start, _end, parent, _req, _model in self.spans:
            top.append(top[parent] if parent >= 0 else name)
        root_s = defaultdict(float)
        part_s = defaultdict(float)
        for idx, (name, start, end, parent, _req, model) in enumerate(self.spans):
            if not since <= start < until or top[idx] not in roots:
                continue
            if parent < 0:
                root_s[model, name] += end - start
            elif name in parts:
                part_s[model, top[idx], name] += end - start
        out = {}
        for (model, root), total in sorted(root_s.items(), key=lambda kv: str(kv[0])):
            out.setdefault(model, {})[root] = {
                part: part_s[model, root, part] / total for part in parts}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\tmodel\n")
            for idx, (name, start, end, parent, req, model) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\t{req}\t{model}\n")
