"""Training, evaluation, latent export, checkpointing, sweep aggregates.

Training runs each logical batch the same way for every model: one tape,
one model.batch_loss summed over the batch, one backward, whose returned
gradient dict is scaled to the batch mean and handed to one Adam step
(bias correction, global-norm clipping before the update). The dict is
dropped before the next batch's forward, so at most one gradient set is
alive; tensors carry no gradient. Early stopping watches validation
macro-F1 (the best-validation parameter snapshot is what training
returns). The baselines store the clauses (paragraphs for ctx) back to
back, so each LSTM direction is one ragged-batch kernel call; the vae
models run the clauses as one padded (B, n) stack with a key mask. Each
item's loss is the one the per-item path (loss, paragraph_loss,
elbo_loss) computes, up to rounding.

Evaluation, the per-epoch validation included, and latent export tag
through one loop, _tag_runs: one tape-free pass per run of clauses in
input order, or of whole paragraphs for ctx, where a run closes before
its size as the model stores it (padded to its longest clause for the vae
family, back to back for the baselines) would pass data.RUN_TOKENS (512)
tokens and a longer unit runs alone. tag_probs makes each pass
model.batch_probs, export_latents model.posterior_means (one encoder
pass over the same runs). Each pass runs the code training runs, with
its finiteness checked once per run instead of once per op. A run
rounds differently from its units tagged one at a time (a one-unit
batch_probs call), so its probabilities agree with theirs within 1e-12
relative, and its codes are theirs unless two labels tie within that
tolerance.

Everything a run reports is a pure function of (model spec, data
manifest, seed). The protocol grids (the k-per-label sweep and
leave-one-genre-out) are run by the CLI, one pool cell per grid point;
this module supplies the sweep's aggregation (aggregate_sweep).

Evaluation produces an EvalReport: micro accuracy, macro-F1 as the
unweighted mean of per-class F1 over all 7 classes (absent classes score
0), per-class precision/recall/F1/support, and a 7x7 confusion matrix
with rows = gold and columns = predicted in label-code order.

Checkpoints are a versioned binary container documented in CHECKPOINT
FORMAT below; round-trips are bit-exact because parameters are stored as
raw little-endian float64.
"""

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .data import (
    N_LABELS, Vocab, atomic_write, build_vocab, default_min_count, label_prior, paragraphs_of,
    tagging_runs,
)
from .errors import CheckpointError, DataError, NumericsError
from .models import ModelSpec, build_model, spec_hash
from .tensor import Tape, _all_finite, deferred_checks
from .vae import VAEModel

# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.0
    logical_batch: int = 32
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    grad_clip: float = 5.0
    beta_warmup_steps: int = 0  # > 0: vae beta rises linearly over this many updates

    def __post_init__(self):
        # the float checks are written so that NaN and infinities fail them
        if not 0 < self.lr < math.inf:
            raise DataError(f"lr must be positive and finite, got {self.lr}")
        if self.max_epochs < 1:
            raise DataError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if self.logical_batch < 1:
            raise DataError("logical_batch must be >= 1")
        if self.beta_warmup_steps < 0:
            raise DataError("beta_warmup_steps must be >= 0")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.weight_decay < math.inf:
            raise DataError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.grad_clip < math.inf:
            raise DataError(f"grad_clip must be finite and >= 0 (0 turns clipping off), got {self.grad_clip}")

    def to_json(self):
        return dict(self.__dict__)


def default_train_config(model_name, **overrides):
    """Stable desk-scale defaults: lr 5e-4 for the variational models
    (transformer encoders), 1e-3 for the baselines."""
    lr = 5e-4 if model_name.startswith("vae") else 1e-3
    cfg = {"lr": lr}
    cfg.update(overrides)
    return TrainConfig(**cfg)


# ---------------------------------------------------------------------------
# optimizer

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def clip_global_norm(grads, max_norm):
    """Scale the whole gradient set so its global L2 norm is <= max_norm.

    The arrays of grads are scaled in place; returns grads.
    """
    if max_norm <= 0:
        return grads
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return grads


def init_adam_state(params):
    return {
        "t": 0,
        "m": {k: np.zeros_like(p.data) for k, p in params.items() if p.requires_grad},
        "v": {k: np.zeros_like(p.data) for k, p in params.items() if p.requires_grad},
    }


def adam_step(params, grads, state, cfg):
    """One bias-corrected Adam update; clips to global norm first.

    Decoupled weight decay: the decay term bypasses the moment estimates.
    The step runs in place: clipping scales the arrays of grads, and each
    parameter's update uses two scratch arrays of its size, freed before
    the next parameter's. Every gradient is checked first, so a bad one
    (unknown name, wrong shape, NaN or inf) changes no parameter or moment.
    """
    for name, g in grads.items():
        if name not in state["m"]:
            raise DataError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].data.shape:
            raise DataError(f"gradient shape {g.shape} does not match parameter {name!r}")
        if not _all_finite(g):
            raise NumericsError(f"non-finite gradient for parameter {name!r} at Adam step {state['t'] + 1}")
    grads = clip_global_norm(grads, cfg.grad_clip)
    state["t"] += 1
    t = state["t"]
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    # each line keeps the operation order of the textbook expressions
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # p -= lr*(m/c1) / (sqrt(v/c2) + eps), so the results are the same bits
    for name, g in grads.items():
        m = state["m"][name]
        v = state["v"][name]
        p = params[name].data
        m *= b1
        step = np.multiply(1.0 - b1, g)
        m += step
        v *= b2
        np.multiply(1.0 - b2, g, out=step)
        step *= g
        v += step
        np.divide(m, c1, out=step)
        np.multiply(cfg.lr, step, out=step)
        denom = np.divide(v, c2)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step
        if cfg.weight_decay:
            np.multiply(cfg.lr * cfg.weight_decay, p, out=step)
            p -= step
        del step, denom


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    per_class: list
    confusion: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "per_class": self.per_class,
            "confusion": self.confusion.tolist(),
            "metadata": self.metadata,
        }


def compute_metrics(gold, predicted):
    """Accuracy, macro-F1, per-class table, confusion matrix from codes."""
    gold = np.asarray(gold, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if gold.shape != predicted.shape or gold.size == 0:
        raise DataError("metrics need equal-length, non-empty gold/prediction lists")
    confusion = np.zeros((N_LABELS, N_LABELS), dtype=np.int64)
    np.add.at(confusion, (gold, predicted), 1)
    accuracy = float(np.trace(confusion)) / float(confusion.sum())
    per_class = []
    f1s = np.zeros(N_LABELS)
    for c in range(N_LABELS):
        tp = float(confusion[c, c])
        gold_c = float(confusion[c, :].sum())
        pred_c = float(confusion[:, c].sum())
        precision = tp / pred_c if pred_c > 0 else 0.0
        recall = tp / gold_c if gold_c > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        f1s[c] = f1
        per_class.append(
            {"precision": precision, "recall": recall, "f1": f1, "support": int(gold_c)}
        )
    return accuracy, float(f1s.mean()), per_class, confusion


def _tag_runs(model, clauses, vocab, run_pass):
    """run_pass's rows (model.batch_probs or posterior_means), row for row
    with clauses, which must not be empty.

    The model's input units (clauses, or for a paragraph consumer the
    paragraphs of paragraphs_of) are cut into tagging runs in that order,
    each one run_pass of at most RUN_TOKENS tokens as the model stores it
    (data.tagging_runs): the vae family pads a run to its longest clause,
    the baselines store it back to back. A longer unit runs alone.

    Each pass runs under tensor.deferred_checks(): no op scans its output,
    and the run's rows are scanned once instead. When that or an op's
    input scan fails, the run is replayed with every op's check, which
    raises the NumericsError a pass outside the context raises, naming the
    same op. The rows are the same bits either way.
    """
    if model.consumes == "paragraph":
        paragraphs = paragraphs_of(clauses)
        units = [[vocab.encode(cl.tokens) for cl in par] for par in paragraphs]
        sizes = [sum(len(ids) for ids in par) for par in units]
    else:
        units = [vocab.encode(cl.tokens) for cl in clauses]
        sizes = [len(ids) for ids in units]
    runs = tagging_runs(sizes, padded=isinstance(model, VAEModel))
    rows = np.concatenate([_checked_once(run_pass, units[lo:hi]) for lo, hi in runs])
    if model.consumes == "paragraph":
        row = {cl.coords: r for r, cl in enumerate(cl for par in paragraphs for cl in par)}
        rows = rows[[row[cl.coords] for cl in clauses]]
    return rows


def _checked_once(run_pass, units):
    """run_pass(units) with its finiteness checked once (see _tag_runs).
    A replay that raises nothing (a deferred scan can read a parameter
    that no per-op check reads) returns its rows."""
    try:
        with deferred_checks():
            rows = run_pass(units)
        if _all_finite(rows):
            return rows
    except NumericsError:
        pass
    return run_pass(units)


def tag_probs(model, clauses, vocab):
    """Label probabilities, (len(clauses), 7), row for row with clauses,
    from one model.batch_probs pass per tagging run (_tag_runs)."""
    if not clauses:
        return np.empty((0, N_LABELS))
    return _tag_runs(model, clauses, vocab, model.batch_probs)


def export_latents(model, clauses, vocab):
    """One (coords, label, genre, mu) row per clause of a vae model, in
    input order; one model.posterior_means pass per tagging run (_tag_runs)."""
    if not clauses:
        return []
    means = _tag_runs(model, clauses, vocab, model.posterior_means)
    return [(cl.doc_id, cl.par_id, cl.clause_idx, cl.label.name, cl.genre, mu)
            for cl, mu in zip(clauses, means)]


def predict_codes(model, clauses, vocab):
    """Per-clause predicted label codes; ties go to the lowest code."""
    return tag_probs(model, clauses, vocab).argmax(axis=1).tolist()


def evaluate(model, clauses, vocab, metadata=None):
    if not clauses:
        raise DataError("cannot evaluate on zero clauses")
    gold = [int(cl.label) for cl in clauses]
    predicted = predict_codes(model, clauses, vocab)
    accuracy, macro_f1, per_class, confusion = compute_metrics(gold, predicted)
    return EvalReport(accuracy, macro_f1, per_class, confusion, dict(metadata or {}))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: object
    vocab: Vocab
    spec: ModelSpec
    config: TrainConfig
    log: list
    best_val_macro_f1: float
    meta: dict  # spec_hash, model, split provenance, seed


def _encode_items(model, clauses, vocab):
    if model.consumes == "paragraph":
        return [
            ([np.asarray(vocab.encode(cl.tokens)) for cl in par], [int(cl.label) for cl in par])
            for par in paragraphs_of(clauses)
        ]
    return [(np.asarray(vocab.encode(cl.tokens)), int(cl.label)) for cl in clauses]


def _snapshot(params):
    return {k: p.data.copy() for k, p in params.items()}


def _restore(params, snap):
    # the snapshot is dropped after this, so its arrays are taken over
    for k, p in params.items():
        p.data = snap[k]


def train(spec, split, cfg, log_hook=None):
    """Build and fit a model on a split; returns the best-validation state.

    The vocabulary and label prior come from split.train alone. With an
    empty validation partition there is no early stopping: training runs
    all max_epochs and returns the final parameters.
    """
    if not split.train:
        raise DataError("empty training split")
    vocab = build_vocab(split.train, default_min_count(split.train))
    prior = label_prior(split.train)
    model = build_model(spec, len(vocab), prior, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    items = _encode_items(model, split.train, vocab)
    state = init_adam_state(model.params)
    is_vae = isinstance(model, VAEModel)

    log = []
    best_f1 = -1.0
    best_snap = None
    stale = 0
    step = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(items))
        part_sums = {}
        for lo in range(0, len(order), cfg.logical_batch):
            chunk = order[lo:lo + cfg.logical_batch]
            warmup = {}
            if is_vae and cfg.beta_warmup_steps > 0:
                warmup["beta"] = model.beta * min(1.0, (step + 1) / cfg.beta_warmup_steps)
            with Tape() as tape:
                loss, parts = model.batch_loss([items[idx] for idx in chunk], rng, **warmup)
                # the batch mean, scaled in place
                grads = {k: np.multiply(g, 1.0 / len(chunk), out=g)
                         for k, g in tape.backward(loss, model.params).items()}
            for key, value in parts.items():
                part_sums[key] = part_sums.get(key, 0.0) + value
            adam_step(model.params, grads, state, cfg)
            # free the gradients before the next batch's forward
            del grads
            step += 1
        record = {"epoch": epoch}
        for key in sorted(part_sums):
            record[key] = part_sums[key] / len(items)
        if split.validation:
            report = evaluate(model, split.validation, vocab)
            record["val_accuracy"] = report.accuracy
            record["val_macro_f1"] = report.macro_f1
            if report.macro_f1 > best_f1:
                best_f1 = report.macro_f1
                best_snap = _snapshot(model.params)
                stale = 0
            else:
                stale += 1
        log.append(record)
        if log_hook:
            log_hook(record)
        # stale grows only with a validation split
        if stale >= cfg.patience:
            break
    if best_snap is not None:
        _restore(model.params, best_snap)
    meta = {"spec_hash": spec_hash(spec), "model": spec.name,
            "provenance": split.provenance, "seed": cfg.seed}
    return TrainResult(model, vocab, spec, cfg, log, best_f1, meta)


# ---------------------------------------------------------------------------
# protocol outputs


def aggregate_sweep(rows):
    """(model, k, mean_acc, std_acc, mean_f1, std_f1) per (model, k) group of
    the run rows (model, k, seed, accuracy, macro_f1), in first-appearance
    order; std is the population std."""
    groups = {}
    order = []
    for name, k, _seed, acc, f1 in rows:
        key = (name, k)
        if key not in groups:
            groups[key] = ([], [])
            order.append(key)
        groups[key][0].append(acc)
        groups[key][1].append(f1)
    out = []
    for name, k in order:
        accs, f1s = groups[(name, k)]
        accs = np.asarray(accs)
        f1s = np.asarray(f1s)
        out.append((name, k, float(accs.mean()), float(accs.std()),
                    float(f1s.mean()), float(f1s.std())))
    return out


# ---------------------------------------------------------------------------
# checkpoints
#
# CHECKPOINT FORMAT (version 1, all integers little-endian):
#   bytes 0..7    magic b"SEVCKPT\n"
#   bytes 8..11   format version, u32
#   bytes 12..75  spec hash, 64 lowercase hex chars (ascii)
#   bytes 76..83  header length L, u64
#   bytes 84..    header JSON (utf-8): {"spec", "vocab", "meta"}
#   next 4        array count, u32
#   per array:    name length u16, name utf-8, trainable u8, ndim u8,
#                 ndim dims (u64 each), then prod(dims) float64 values
# Parameters are raw float64, so save/load round-trips are bit-exact.

CHECKPOINT_MAGIC = b"SEVCKPT\n"
CHECKPOINT_VERSION = 1


def save_checkpoint(result, path, meta=None):
    """Serialize a TrainResult's model, spec, and vocabulary."""
    atomic_write(path, _checkpoint_chunks(result, meta))


def _checkpoint_chunks(result, meta):
    """The checkpoint file as a stream of byte chunks; each parameter's
    values are written straight from its float64 array."""
    header = {
        "spec": result.spec.to_json(),
        "vocab": result.vocab.to_json(),
        "meta": dict(meta or {}, seed=result.config.seed),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    params = result.model.params
    yield b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        spec_hash(result.spec).encode("ascii"),
        struct.pack("<Q", len(header_bytes)),
        header_bytes,
        struct.pack("<I", len(params)),
    ])
    for name in sorted(params):
        data = np.ascontiguousarray(params[name].data, dtype="<f8")
        name_bytes = name.encode("utf-8")
        yield struct.pack(f"<H{len(name_bytes)}sBB{data.ndim}Q", len(name_bytes), name_bytes,
                          1 if params[name].requires_grad else 0, data.ndim, *data.shape)
        yield memoryview(data)


class _Reader:
    """Reads a checkpoint file front to back. Every length is claimed
    against the bytes left in the file before anything is read or
    allocated, so a damaged length reads as a truncated file."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def claim(self, n):
        if n > self.left:
            raise CheckpointError("truncated checkpoint")
        self.left -= n

    def take(self, n):
        self.claim(n)
        return self.fill(bytearray(n))

    def u(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def fill(self, buf):
        """Read the next bytes, already claimed, straight into buf."""
        view = memoryview(buf).cast("B")
        if self.fh.readinto(view) != view.nbytes:  # the file shrank while it was read
            raise CheckpointError("truncated checkpoint")
        return buf


def load_checkpoint(path):
    """Rebuild (model, vocab, meta) from a checkpoint file.

    The file is streamed, never read whole. Once the header has passed
    its checks, the model of the stamped spec is built once with no seed:
    nothing is drawn, and each stored array is read straight into the
    uninitialised float64 buffer of the parameter whose name and shape it
    matches. The model's parameters are therefore the only model-sized
    allocation. An array holding NaN or inf is a CheckpointError naming
    it, so such a file fails here rather than at its first tagging op. A
    damaged file (truncated, or any byte changed) either still parses to a
    model of the stamped spec or raises CheckpointError, never another
    error.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(_Reader(fh))
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None


def _read_checkpoint(r):
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    stored_hash = r.take(64)
    header_bytes = r.take(r.u("<Q"))
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        spec = ModelSpec.from_json(header["spec"])
        vocab = Vocab.from_json(header["vocab"])
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError(f"meta is a {type(meta).__name__}")
    except (ValueError, KeyError, TypeError, AttributeError, DataError) as exc:
        # ValueError covers undecodable bytes and JSON; the others are
        # fields of the wrong type or value
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    if spec_hash(spec).encode("ascii") != stored_hash:
        raise CheckpointError("spec hash mismatch between header and stamp")
    # no seed: every parameter, a baseline's prior too, is filled below
    try:
        model = build_model(spec, len(vocab))
    except DataError as exc:
        raise CheckpointError(f"checkpoint spec cannot be built: {exc}") from None
    unread = set(model.params)
    for _ in range(r.u("<I")):
        # an undecodable name cannot match a parameter
        name = r.take(r.u("<H")).decode("utf-8", errors="replace")
        if name not in unread:
            what = "stored twice" if name in model.params else "unexpected"
            raise CheckpointError(f"parameter set mismatch: {name!r} {what}")
        unread.remove(name)
        r.u("<B")  # the trainable flag; the rebuilt model knows its own
        shape = tuple(r.u("<Q") for _ in range(r.u("<B")))
        # math.prod stays exact for any u64 dims, so a damaged dim reads
        # as a truncated file rather than overflowing
        r.claim(8 * math.prod(shape))
        p = model.params[name]
        if shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {shape}, model {p.data.shape}"
            )
        r.fill(p.data)  # float64 and C-contiguous, as every parameter is built
        if sys.byteorder == "big":  # the file stores little-endian values
            p.data.byteswap(inplace=True)
        if not _all_finite(p.data):
            raise CheckpointError(f"non-finite values in stored array {name!r}")
    if r.left:
        raise CheckpointError("trailing bytes after checkpoint payload")
    if unread:
        raise CheckpointError(f"parameter set mismatch: missing {sorted(unread)}")
    return model, vocab, meta
