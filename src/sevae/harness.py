"""Training, evaluation, checkpointing, and the sweep/cross-genre TSVs.

Training accumulates gradients over a logical batch, then takes one Adam
step with bias correction and global-norm clipping before the update;
early stopping watches validation macro-F1 (the best-validation parameter
snapshot is what training returns). Every model runs each logical batch
the same way: one tape, one model.batch_loss summed over the batch, one
backward. The baselines store the clauses (paragraphs for ctx) back to
back, so each LSTM direction is one ragged-batch kernel call; the vae
models run the clauses as one padded (B, n) stack with a key mask. Each
item's loss is the one the per-item path (loss, paragraph_loss,
elbo_loss) computes, up to rounding.

Evaluation, the per-epoch validation included, tags through tag_probs:
one tape-free pass (model.batch_probs) per run of clauses in input order,
or of whole paragraphs for ctx, where a run closes before its size padded
to its longest unit would pass data.RUN_TOKENS (512) tokens and a longer
unit runs alone. Each pass runs
the code training runs. A run rounds differently from its units tagged
one at a time (the batch of one: predict_probs, predict_paragraph_probs),
so its probabilities agree with theirs within 1e-12 relative, and its
codes are theirs unless two labels tie within that tolerance.

Everything a run reports is a pure function of (model spec, data
manifest, seed). The protocol grids (the k-per-label sweep and
leave-one-genre-out) are run by the CLI, one pool cell per grid point;
this module supplies their aggregation and TSV writers.

Evaluation produces an EvalReport: micro accuracy, macro-F1 as the
unweighted mean of per-class F1 over all 7 classes (absent classes score
0), per-class precision/recall/F1/support, and a 7x7 confusion matrix
with rows = gold and columns = predicted in label-code order.

Checkpoints are a versioned binary container documented in CHECKPOINT
FORMAT below; round-trips are bit-exact because parameters are stored as
raw little-endian float64.
"""

import io
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import (
    N_LABELS, Vocab, atomic_write, build_vocab, default_min_count, label_prior, paragraphs_of,
    tagging_runs,
)
from .errors import CheckpointError, DataError
from .models import ModelSpec, build_model, spec_hash
from .tensor import Tape, zero_grads
from .vae import VAEModel

# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    logical_batch: int = 32
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    grad_clip: float = 5.0
    beta_warmup_steps: int = 0  # > 0: vae beta rises linearly over this many updates

    def __post_init__(self):
        # the float checks are written so that NaN fails them too
        if self.lr <= 0:
            raise DataError("lr must be positive")
        if self.max_epochs < 1:
            raise DataError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if self.logical_batch < 1:
            raise DataError("logical_batch must be >= 1")
        if self.beta_warmup_steps < 0:
            raise DataError("beta_warmup_steps must be >= 0")
        if not self.weight_decay >= 0:
            raise DataError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not self.grad_clip >= 0:
            raise DataError(f"grad_clip must be >= 0 (0 turns clipping off), got {self.grad_clip}")
        if not self.eps > 0:
            raise DataError(f"eps must be positive, got {self.eps}")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise DataError(f"betas must be two values in [0, 1), got {self.betas}")

    def to_json(self):
        d = self.__dict__.copy()
        d["betas"] = list(self.betas)
        return d


def default_train_config(model_name, **overrides):
    """Stable desk-scale defaults: lr 5e-4 for the variational models
    (transformer encoders), 1e-3 for the baselines."""
    lr = 5e-4 if model_name.startswith("vae") else 1e-3
    cfg = {"lr": lr}
    cfg.update(overrides)
    return TrainConfig(**cfg)


# ---------------------------------------------------------------------------
# optimizer


def clip_global_norm(grads, max_norm):
    """Scale the whole gradient set so its global L2 norm is <= max_norm."""
    if max_norm <= 0:
        return grads
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
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
    """
    for name, g in grads.items():
        if name not in state["m"]:
            raise DataError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].data.shape:
            raise DataError(f"gradient shape {g.shape} does not match parameter {name!r}")
    grads = clip_global_norm(grads, cfg.grad_clip)
    state["t"] += 1
    t = state["t"]
    b1, b2 = cfg.betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, g in grads.items():
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p = params[name]
        p.data -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)
        if cfg.weight_decay:
            p.data -= cfg.lr * cfg.weight_decay * p.data


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


def tag_probs(model, clauses, vocab):
    """Label probabilities, (len(clauses), 7), row for row with clauses.

    The model's input units (clauses, or for a paragraph consumer the
    paragraphs of paragraphs_of) are cut into tagging runs in that order
    (data.tagging_runs: at most RUN_TOKENS tokens once padded to the
    run's longest unit, a longer unit alone),
    and each run is one model.batch_probs pass.
    """
    if not clauses:
        return np.empty((0, N_LABELS))
    if model.consumes == "paragraph":
        paragraphs = paragraphs_of(clauses)
        units = [[vocab.encode(cl.tokens) for cl in par] for par in paragraphs]
        sizes = [sum(len(ids) for ids in par) for par in units]
    else:
        units = [vocab.encode(cl.tokens) for cl in clauses]
        sizes = [len(ids) for ids in units]
    probs = np.concatenate([model.batch_probs(units[lo:hi]) for lo, hi in tagging_runs(sizes)])
    if model.consumes == "paragraph":
        row = {cl.coords: r for r, cl in enumerate(cl for par in paragraphs for cl in par)}
        probs = probs[[row[cl.coords] for cl in clauses]]
    return probs


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
    for k, p in params.items():
        p.data = snap[k].copy()


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
            zero_grads(model.params)
            warmup = {}
            if is_vae and cfg.beta_warmup_steps > 0:
                warmup["beta"] = model.beta * min(1.0, (step + 1) / cfg.beta_warmup_steps)
            with Tape() as tape:
                loss, parts = model.batch_loss([items[idx] for idx in chunk], rng, **warmup)
                tape.backward(loss)
            for key, value in parts.items():
                part_sums[key] = part_sums.get(key, 0.0) + value
            inv = 1.0 / len(chunk)
            grads = {
                k: (p.grad * inv if p.grad is not None else np.zeros_like(p.data))
                for k, p in model.params.items() if p.requires_grad
            }
            adam_step(model.params, grads, state, cfg)
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
            if stale >= cfg.patience:
                break
        else:
            log.append(record)
            if log_hook:
                log_hook(record)
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


def write_sweep_tsv(rows, path):
    lines = ["model\tk\tseed\taccuracy\tmacro_f1\n"]
    for name, k, seed, acc, f1 in rows:
        lines.append(f"{name}\t{k}\t{seed}\t{acc!r}\t{f1!r}\n")
    atomic_write(path, "".join(lines))


def write_sweep_aggregates_tsv(aggregates, path):
    lines = ["model\tk\tmean_accuracy\tstd_accuracy\tmean_macro_f1\tstd_macro_f1\n"]
    for name, k, ma, sa, mf, sf in aggregates:
        lines.append(f"{name}\t{k}\t{ma!r}\t{sa!r}\t{mf!r}\t{sf!r}\n")
    atomic_write(path, "".join(lines))


def write_cross_genre_tsv(rows, path):
    lines = ["model\tgenre\taccuracy\tmacro_f1\n"]
    for name, genre, acc, f1 in rows:
        lines.append(f"{name}\t{genre}\t{acc!r}\t{f1!r}\n")
    atomic_write(path, "".join(lines))


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
    header = {
        "spec": result.spec.to_json(),
        "vocab": result.vocab.to_json(),
        "meta": dict(meta or {}, seed=result.config.seed),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(spec_hash(result.spec).encode("ascii"))
    buf.write(struct.pack("<Q", len(header_bytes)))
    buf.write(header_bytes)
    params = result.model.params
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        p = params[name]
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<H", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<BB", 1 if p.requires_grad else 0, p.data.ndim))
        for dim in p.data.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    atomic_write(path, buf.getvalue())


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))[0]


def load_checkpoint(path, expected_spec=None):
    """Rebuild (model, vocab, meta) from a checkpoint file.

    With expected_spec given, the stored spec hash must match it. A damaged
    file (truncated, or any byte changed) either still parses to a model of
    the stamped spec or raises CheckpointError, never another error.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
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
    if expected_spec is not None and spec_hash(expected_spec).encode("ascii") != stored_hash:
        raise CheckpointError(
            f"spec hash mismatch: checkpoint holds {spec.name!r} with hash "
            f"{stored_hash[:12].decode('ascii')}…, expected {expected_spec.name!r}"
        )
    arrays = {}
    n_arrays = r.u("<I")
    for _ in range(n_arrays):
        # an undecodable name cannot match a parameter; the set check says so
        name = r.take(r.u("<H")).decode("utf-8", errors="replace")
        r.u("<B")  # the trainable flag; the rebuilt model knows its own
        ndim = r.u("<B")
        shape = tuple(r.u("<Q") for _ in range(ndim))
        # math.prod stays exact for any u64 dims, so a damaged dim reads
        # as a truncated file rather than overflowing; the values keep
        # their flat form until the shape has matched the model's
        arrays[name] = (np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").copy(), shape)
    if r.pos != len(blob):
        raise CheckpointError("trailing bytes after checkpoint payload")
    # a baseline's label prior is a stored non-trainable array that
    # replaces this placeholder below; the vae models have none
    model = build_model(spec, len(vocab), np.full(N_LABELS, 1.0 / N_LABELS), seed=0)
    stored = set(arrays)
    expected = set(model.params)
    if stored != expected:
        missing = sorted(expected - stored)
        extra = sorted(stored - expected)
        raise CheckpointError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
    for name, p in model.params.items():
        data, shape = arrays[name]
        if shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {shape}, model {p.data.shape}"
            )
        p.data = data.reshape(shape)
    return model, vocab, meta
