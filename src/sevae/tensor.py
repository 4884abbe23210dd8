"""Reverse-mode automatic differentiation over float64 numpy arrays.

A dynamic tape: ops executed inside a ``with Tape() as tp`` block append one
node each, in execution order, and ``tp.backward(loss, params)`` replays them
once in reverse and returns the gradient of every trainable parameter as a
dict its caller owns; tensors carry no gradient. Outside a tape, the same
ops run plain forward math with no recording, which is the evaluation path.

Every op validates its output for NaN/Inf and fails fast naming the op;
models therefore never silently train on poisoned values. Every pass the
package runs (each training step's forward, each tagging run, each of
gradcheck's probes and its analytic pass) goes through checked(fn,
*args), which first runs fn with no op scanning its output, inside
np.errstate(over="raise", divide="raise", invalid="raise"), and scans the
result once. The ops that can map a non-finite input to a finite output
(relu, clamp, exp, narrow, embedding, segment_max and lstm_seq) scan their
inputs there, so a value the per-op checks would stop on still shows.
When a scan fails or numpy raises a FloatingPointError, checked drops the
nodes the attempt left on the active tape and runs fn again with every
per-op check and numpy's own error handling; that run's result, or the
NumericsError naming the op, is the pass's. All data is float64
throughout -- finite-difference verification needs the headroom.

The op set is deliberately small, and each op takes only the shapes the
models pass it: matmul of two 2-D operands or of two stacks with identical
batch dims, (..., m, k) @ (..., k, n), and a GraphError for anything else;
affine, x @ w + b for x of any (..., d_in); elementwise arithmetic and
activations; concat/narrow/reshape/transpose; sums and per-segment means
and maxima; embedding, a row gather by a 1-D or 2-D id array (which also
repeats rows); softmax / log-softmax / logsumexp over one axis,
cross-entropy, layer norm, dropout; a fused LSTM op over a batch of
sequences stored back to back, whose forward/backward run through the
numpy kernels; and factored_loglik, the next-token log-likelihood of each
segment under every (row, column) tilt of shared base logits, whose
softmax normaliser is a matmul over max-shifted exponentials.
Everything else in the package is composed from these.

A batch of variable-length sequences is one (N, ...) array of their rows
stored back to back plus their lengths; the segment ops, lstm_seq and
factored_loglik take it in that form, so the recurrent models need no
padding or masks, and a single sequence is the batch of one. Attention
cannot run back to back: the transformers (encoders.py) pad a batch to
one stack and add a key mask to the attention scores.
"""

import math
import threading
from collections import namedtuple

import numpy as np

from . import kernels
from .errors import GraphError, NumericsError


class _State(threading.local):
    """Per thread: the active Tape, and whether a checked() attempt runs."""

    tape = None
    checking = False


_STATE = _State()


class Tensor:
    """A float64 array, marked requires_grad if gradients flow to it."""

    __slots__ = ("data", "requires_grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._node_id = -1

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # operator sugar; scalars and arrays are lifted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of ops for one forward pass.

    Nodes are (targets, backward_fn): ``backward_fn(out_grad)`` returns
    one gradient array per input (or None for inputs that need none), and
    targets says where each goes: the node id of an op output on this tape,
    the leaf tensor itself, or None for a constant. A node holds no op
    output, so an activation stays alive only while a backward_fn (or the
    caller) needs it. backward consumes the nodes, so it runs once per
    tape, and returns the gradients instead of storing them anywhere.
    Tapes do not nest; evaluation code simply runs outside any tape.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        if _STATE.tape is not None:
            raise GraphError("tapes do not nest")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        return False

    def backward(self, loss, params):
        """{name: gradient of loss} for every requires_grad entry of the
        mapping params; an entry the loss does not reach gets zeros."""
        if not isinstance(loss, Tensor):
            raise GraphError("backward expects a Tensor loss")
        if loss.data.ndim != 0:
            raise GraphError(f"non-scalar loss of shape {loss.data.shape}")
        if loss._tape is not self or loss._node_id < 0:
            raise GraphError("backward before forward: loss was not recorded on this tape")
        if loss._node_id >= len(self.nodes):
            raise GraphError("backward already ran on this tape")
        grads = {loss._node_id: np.ones((), dtype=np.float64)}
        leaves = {}  # leaf tensor -> its gradient so far
        for node_id in range(len(self.nodes) - 1, -1, -1):
            out_grad = grads.pop(node_id, None)
            # a node is dropped once replayed: the arrays only it holds are
            # freed while the rest of the backward pass runs
            node, self.nodes[node_id] = self.nodes[node_id], None
            if out_grad is None:
                continue
            targets, backward_fn = node
            for target, grad in zip(targets, backward_fn(out_grad)):
                if grad is None or target is None:
                    continue
                if isinstance(target, int):
                    prev = grads.get(target)
                    grads[target] = grad if prev is None else prev + grad
                elif target in leaves:
                    np.add(leaves[target], grad, out=leaves[target])
                else:
                    # a backward_fn may hand one array to several inputs
                    # (add passes g through), so the first contribution
                    # is copied before later ones are added in place
                    leaves[target] = np.array(grad, dtype=np.float64)
        self.nodes = []
        return {k: leaves[p] if p in leaves else np.zeros_like(p.data)
                for k, p in params.items() if p.requires_grad}


def as_tensor(x):
    """Lift scalars and arrays to constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _all_finite(arr):
    # any NaN or inf makes the sum of squares non-finite, so the elementwise
    # scan only runs on a bad array or on finite values whose squares
    # overflow (beyond about 1e154). np.vdot is one BLAS call that, unlike
    # arr.sum() and np.dot, raises no floating-point warning on overflow,
    # and it beats arr.sum() on contiguous arrays of every size
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _check_finite(arr, op_name):
    if not _all_finite(arr):
        raise NumericsError(f"non-finite values in output of op '{op_name}'")


def _finite_result(out):
    """Whether a pass's result holds only finite values: a Tensor, an
    array or a float, or a tuple or dict of them (a loss and its parts)."""
    if isinstance(out, tuple):
        return all(_finite_result(x) for x in out)
    if isinstance(out, dict):
        return all(_finite_result(x) for x in out.values())
    return _all_finite(np.asarray(out.data if isinstance(out, Tensor) else out, dtype=np.float64))


def checked(fn, *args):
    """fn(*args) with its finiteness checked once (see the module
    docstring). fn must give the same result when run twice: a caller
    whose pass draws noise restores its generator at the start of fn.
    Checked passes do not nest."""
    if _STATE.checking:
        raise GraphError("checked passes do not nest")
    tape = _STATE.tape
    mark = len(tape.nodes) if tape is not None else 0
    _STATE.checking = True
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = fn(*args)
        if _finite_result(out):
            return out
    except (NumericsError, FloatingPointError):
        pass
    finally:
        _STATE.checking = False
    if tape is not None:
        del tape.nodes[mark:]
    return fn(*args)


def _check_healing_inputs(op_name, *arrays):
    """Inside a checked() attempt, the input scan of an op whose output
    can be finite when an input is not."""
    if _STATE.checking and not all(_all_finite(a) for a in arrays):
        raise NumericsError(f"non-finite input to op '{op_name}'")


def _grad_target(t, tape):
    """Where the backward pass sends input t's gradient (see Tape)."""
    if not t.requires_grad:
        return None
    return t._node_id if t._tape is tape and t._node_id >= 0 else t


def _from_op(op_name, out_data, inputs, backward_fn):
    """Wrap an op's output; on an active tape, record its node. A
    backward_fn captures the arrays it needs, never an input tensor, so
    that the tape keeps no more of the forward pass alive than that."""
    if not _STATE.checking:
        _check_finite(out_data, op_name)
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _STATE.tape
    if tape is not None and out.requires_grad:
        out._tape = tape
        out._node_id = len(tape.nodes)
        tape.nodes.append((tuple(_grad_target(t, tape) for t in inputs), backward_fn))
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _from_op("add", a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _from_op("sub", a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _from_op("mul", ad * bd, (a, b), backward)


def neg(a):
    a = as_tensor(a)

    def backward(g):
        return (-g,)

    return _from_op("neg", -a.data, (a,), backward)


def matmul(a, b):
    """np.matmul of two 2-D operands, or of two stacks with identical batch
    dims, (..., m, k) @ (..., k, n)."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if min(ad.ndim, bd.ndim) < 2 or ad.shape[:-2] != bd.shape[:-2]:
        raise GraphError(f"matmul needs 2-D operands or stacks with identical batch dims, "
                         f"got {ad.shape} and {bd.shape}")
    out = np.matmul(ad, bd)

    def backward(g):
        return (
            np.matmul(g, np.swapaxes(bd, -1, -2)),
            np.matmul(np.swapaxes(ad, -1, -2), g),
        )

    return _from_op("matmul", out, (a, b), backward)


def affine(x, w, b):
    """x @ w + b in one node for x of shape (..., d_in); b broadcasts over
    leading dims. Leading dims are flattened, so a (B, n, d_in) stack costs
    one 2-D matmul per product instead of one per row."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd, sb = x.data, w.data, b.data.shape
    x2 = xd.reshape(-1, xd.shape[-1])
    out = (np.matmul(x2, wd) + b.data).reshape(xd.shape[:-1] + wd.shape[1:])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        dx = np.matmul(g2, wd.T).reshape(xd.shape)
        return dx, np.matmul(x2.T, g2), _unbroadcast(g2, sb)

    return _from_op("affine", out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# activations and elementwise transforms


def relu(a):
    a = as_tensor(a)
    _check_healing_inputs("relu", a.data)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _from_op("relu", np.where(mask, a.data, 0.0), (a,), backward)


def exp(a):
    a = as_tensor(a)
    _check_healing_inputs("exp", a.data)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _from_op("exp", out, (a,), backward)


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient flows only where unclipped."""
    a = as_tensor(a)
    _check_healing_inputs("clamp", a.data)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        return (g * inside,)

    return _from_op("clamp", np.clip(a.data, lo, hi), (a,), backward)


def dropout(a, p, rng):
    """Inverted dropout; call only on the training path with a seeded rng."""
    a = as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise GraphError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def backward(g):
        return (g * keep,)

    return _from_op("dropout", a.data * keep, (a,), backward)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _from_op("reshape", a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    a = as_tensor(a)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _from_op("transpose", np.ascontiguousarray(np.transpose(a.data, axes)), (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise GraphError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _from_op("concat", np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    if start < 0 or start + length > a.data.shape[axis]:
        raise GraphError(
            f"narrow [{start}, {start + length}) out of range for axis {axis} of shape {a.data.shape}"
        )
    _check_healing_inputs("narrow", a.data)
    index = tuple(slice(None) if d != axis else slice(start, start + length) for d in range(a.data.ndim))
    shape = a.data.shape

    def backward(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)

    return _from_op("narrow", np.ascontiguousarray(a.data[index]), (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None):
    a = as_tensor(a)
    shape = a.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _from_op("sum", a.data.sum(axis=axis), (a,), backward)


# runs of consecutive rows: the segment of every row, and where each
# segment starts and how long it is
_Segments = namedtuple("_Segments", "seg starts lengths")


def _segment_layout(lengths, n_rows, op_name):
    """The _Segments of n_rows rows cut into runs of the given lengths,
    which must be 1-D, each >= 1, summing to n_rows."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1 or lengths.sum() != n_rows:
        raise GraphError(
            f"{op_name} needs segment lengths >= 1 that sum to {n_rows} rows, got {lengths.tolist()}")
    starts = np.cumsum(lengths) - lengths
    return _Segments(np.repeat(np.arange(lengths.shape[0]), lengths), starts, lengths)


def _segment_block(x, layout, axis, fill):
    """x with its row axis `axis` split into (segment, position) axes of
    shape (S, L), L the longest segment; positions past a segment's end
    hold fill."""
    seg, starts, lengths = layout
    shape = x.shape[:axis] + (lengths.shape[0], int(lengths.max())) + x.shape[axis + 1:]
    out = np.full(shape, fill)
    out[(slice(None),) * axis + (seg, np.arange(seg.shape[0]) - starts[seg])] = x
    return out


def _segment_sum(x, layout, axis):
    """Sum of x over the rows of each segment along `axis`, which becomes
    the segment axis."""
    return _segment_block(x, layout, axis, 0.0).sum(axis=axis + 1)


def segment_mean(a, lengths):
    """Mean over each run of consecutive rows of a (N, D) array; lengths
    (S,) gives the runs, the result is (S, D)."""
    a = as_tensor(a)
    layout = _segment_layout(lengths, a.data.shape[0], "segment_mean")
    counts = layout.lengths[:, None]

    def backward(g):
        return ((g / counts)[layout.seg],)

    return _from_op("segment_mean", _segment_sum(a.data, layout, 0) / counts, (a,), backward)


def segment_max(a, lengths):
    """Max over each run of consecutive rows of a (N, D) array; lengths
    (S,) gives the runs, the result is (S, D). Ties route the gradient to
    the first maximum of a run."""
    a = as_tensor(a)
    layout = _segment_layout(lengths, a.data.shape[0], "segment_max")
    _check_healing_inputs("segment_max", a.data)
    rows = layout.starts[:, None] + _segment_block(a.data, layout, 0, -np.inf).argmax(axis=1)
    cols = np.arange(a.data.shape[1])
    shape = a.data.shape

    def backward(g):
        full = np.zeros(shape)
        full[rows, cols] = g
        return (full,)

    return _from_op("segment_max", a.data[rows, cols], (a,), backward)


# ---------------------------------------------------------------------------
# lookup and normalization


def embedding(table, ids):
    """Row gather from a (V, E) table by a (n,) or (B, n) id array, giving
    (n, E) or (B, n, E); backward scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise GraphError("embedding ids must be a 1-D or 2-D index array")
    shape = table.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= shape[0]):
        raise GraphError(f"embedding id out of range [0, {shape[0]})")
    _check_healing_inputs("embedding", table.data)

    def backward(g):
        full = np.zeros(shape)
        np.add.at(full, ids, g)
        return (full,)

    return _from_op("embedding", table.data[ids], (table,), backward)


def _require_finite_input(a, op_name):
    if not _all_finite(a.data):
        raise NumericsError(f"non-finite input to op '{op_name}'")


def softmax(a, axis=-1):
    """Stable softmax; translation-invariant and order-preserving."""
    a = as_tensor(a)
    _require_finite_input(a, "softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _from_op("softmax", out, (a,), backward)


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    _require_finite_input(a, "log_softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _from_op("log_softmax", out, (a,), backward)


def logsumexp(a, axis=-1):
    """log sum exp over one axis with max-shift; exact under translation of
    the input."""
    a = as_tensor(a)
    if a.data.size == 0:
        raise NumericsError("empty reduction in logsumexp")
    _require_finite_input(a, "logsumexp")
    m = a.data.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True)) + m
    soft = np.exp(a.data - out)
    out = out.squeeze(axis=axis)

    def backward(g):
        return (soft * np.expand_dims(g, axis),)

    return _from_op("logsumexp", out, (a,), backward)


def cross_entropy(logits, targets):
    """Summed negative log-likelihood of integer targets under row softmax.

    logits: (..., V), one row per target; targets: int array of the leading
    shape, or a scalar int for (V,) logits. Returns a 0-d tensor:
    sum over rows r of -log softmax(logits_r)[target_r].
    """
    logits = as_tensor(logits)
    _require_finite_input(logits, "cross_entropy")
    ld = logits.data
    rows = ld.reshape(-1, ld.shape[-1])
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != ld.shape[:-1]:
        raise GraphError(f"cross_entropy got logits of shape {ld.shape} but targets of shape {tgt.shape}")
    tgt = tgt.reshape(-1)
    if tgt.size and (tgt.min() < 0 or tgt.max() >= rows.shape[1]):
        raise GraphError(f"cross_entropy target out of range [0, {rows.shape[1]})")
    picks = (np.arange(tgt.shape[0]), tgt)
    shifted = rows - rows.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = -logp[picks].sum()
    shape = ld.shape

    def backward(g):
        grad = np.exp(logp)
        grad[picks] -= 1.0
        grad *= g
        return (grad.reshape(shape),)

    return _from_op("cross_entropy", out, (logits,), backward)


# Below this, a factored normaliser sum has lost relative precision to
# underflow of its terms; it happens only when the tilts spread past about
# 700 nats, and factored_loglik then takes the direct path.
_FACTORED_TINY = 1e-280


def _direct_logp(bd, row, cd):
    """Max-shifted log-softmax of base + row + cols as a (J, T, V) block."""
    logits = bd[None, :, :] + row[None, None, :] + cd[:, None, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _direct_loglik(bd, rd, cd, tgt):
    """Reference for factored_loglik on arrays: one (J, T, V) block per row."""
    steps = np.arange(tgt.shape[0])
    return np.stack([_direct_logp(bd, row, cd)[:, steps, tgt].sum(axis=1) for row in rd])


def _direct_backward(g, bd, rd, cd, tgt):
    """Gradients of _direct_loglik for the upstream gradient g (I, J)."""
    steps = np.arange(tgt.shape[0])
    dbase, drows, dcols = np.zeros_like(bd), np.zeros_like(rd), np.zeros_like(cd)
    for i, row in enumerate(rd):
        dlogits = -g[i][:, None, None] * np.exp(_direct_logp(bd, row, cd))
        dlogits[:, steps, tgt] += g[i][:, None]
        dbase += dlogits.sum(axis=0)
        drows[i] = dlogits.sum(axis=(0, 1))
        dcols += dlogits.sum(axis=1)
    return dbase, drows, dcols


def factored_loglik(base, rows, cols, targets, lengths):
    """Summed next-token log-likelihood of each segment under every
    (row, column) tilt.

    base: (N, V) logits of S segments stored back to back, lengths (S,)
    long; rows: (S, I, V) tilts of each segment; cols: (J, V) tilts shared
    by all segments; targets: (N,) ints. Entry [s, i, j] of the (S, I, J)
    result is the sum over the steps t of segment s of
    log softmax(base[t] + rows[s, i] + cols[j])[targets[t]].

    With A, B, C the max-shifted exponentials of base, rows and cols, the
    normaliser of step t (in segment s) under (i, j) is exp(shifts) *
    S[i, t, j], where S = (B[s, i] * A[t]) @ C.T is one matmul over all
    steps; the backward is matmuls too, so neither direction builds the
    (I, J, N, V) logits, and the sums over each segment's steps are taken
    on a zero-padded (segment, step) block. When some S falls below
    _FACTORED_TINY, both directions use the direct max-shifted block, one
    segment and row at a time.
    """
    base, rows, cols = as_tensor(base), as_tensor(rows), as_tensor(cols)
    for t in (base, rows, cols):
        _require_finite_input(t, "factored_loglik")
    bd, rd, cd = base.data, rows.data, cols.data
    tgt = np.asarray(targets, dtype=np.int64)
    if bd.ndim != 2 or rd.ndim != 3 or cd.ndim != 2:
        raise GraphError("factored_loglik expects 2-D base and cols and 3-D rows")
    n_steps, n_vocab = bd.shape
    if rd.shape[2] != n_vocab or cd.shape[1] != n_vocab:
        raise GraphError(
            f"factored_loglik widths differ: base {bd.shape}, rows {rd.shape}, cols {cd.shape}")
    if tgt.shape != (n_steps,):
        raise GraphError(f"factored_loglik got {n_steps} steps but targets of shape {tgt.shape}")
    if not tgt.size or tgt.min() < 0 or tgt.max() >= n_vocab:
        raise GraphError(f"factored_loglik needs at least one target, all in [0, {n_vocab})")
    layout = _segment_layout(lengths, n_steps, "factored_loglik")
    seg, starts, lengths = layout
    n_seg, n_rows, n_cols = lengths.shape[0], rd.shape[1], cd.shape[0]
    if rd.shape[0] != n_seg:
        raise GraphError(f"factored_loglik got {n_seg} segments but rows of shape {rd.shape}")
    bounds = list(zip(starts.tolist(), (starts + lengths).tolist()))
    steps = np.arange(n_steps)
    mb = bd.max(axis=1, keepdims=True)
    mr = rd.max(axis=2, keepdims=True)
    mc = cd.max(axis=1, keepdims=True)
    a, b, c = np.exp(bd - mb), np.exp(rd - mr), np.exp(cd - mc)
    # each step's row tilts times its base exponentials, (I, N, V), in one
    # C-contiguous block: gathered into it, then multiplied in place (one
    # segment's row tilts broadcast from (I, 1, V)); mode="clip", which no
    # valid index meets, keeps np.take from buffering its output
    b_steps = np.swapaxes(b, 0, 1)
    ab = np.empty((n_rows, n_steps, n_vocab))
    if n_seg > 1:
        np.take(b_steps, seg, axis=1, out=ab, mode="clip")
        ab *= a
    else:
        np.multiply(b_steps, a, out=ab)
    ab = ab.reshape(n_rows * n_steps, n_vocab)
    s = (ab @ c.T).reshape(n_rows, n_steps, n_cols)
    direct = s.min() < _FACTORED_TINY

    if direct:
        out = np.stack([_direct_loglik(bd[lo:hi], rd[k], cd, tgt[lo:hi])
                        for k, (lo, hi) in enumerate(bounds)])
    else:
        # each target logit minus its row's max, summed over the segment
        picked = (
            _segment_sum(bd[steps, tgt] - mb[:, 0], layout, 0)[:, None, None]
            + _segment_sum(rd[seg, :, tgt] - mr[seg, :, 0], layout, 0)[:, :, None]
            + _segment_sum((cd[:, tgt] - mc).T, layout, 0)[:, None, :]
        )
        out = picked - np.swapaxes(_segment_sum(np.log(s), layout, 1), 0, 1)

    def backward(g):
        # d out[s, i, j] / d logit[t, v] = onehot[t, v] - P[i, j, t, v]
        if direct:
            dbase, drows, dcols = np.empty_like(bd), np.empty_like(rd), np.zeros_like(cd)
            for k, (lo, hi) in enumerate(bounds):
                dbase[lo:hi], drows[k], dcol = _direct_backward(g[k], bd[lo:hi], rd[k], cd, tgt[lo:hi])
                dcols += dcol
            return dbase, drows, dcols
        counts = np.zeros((n_seg, n_vocab))
        np.add.at(counts, (seg, tgt), 1.0)
        w = np.swapaxes(g, 0, 1)[:, seg] / s  # (I, N, J)
        bq = w @ c  # (I, N, V): sum_j W C, times B
        bq *= b_steps[:, seg] if n_seg > 1 else b_steps
        dbase = -a * bq.sum(axis=0)
        dbase[steps, tgt] += g.sum(axis=(1, 2))[seg]
        drows = (-np.swapaxes(_segment_sum(bq * a[None, :, :], layout, 1), 0, 1)
                 + g.sum(axis=2)[:, :, None] * counts[:, None, :])
        dcols = -c * (w.reshape(n_rows * n_steps, n_cols).T @ ab) + g.sum(axis=1).T @ counts
        return dbase, drows, dcols

    return _from_op("factored_loglik", out, (base, rows, cols), backward)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _from_op("layer_norm", out, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# fused recurrence


def _packed_layout(lengths, n_rows, reverse):
    """Where the kernels' packed time-major layout takes its rows from.

    For sequences stored back to back (lengths (B,), summing to n_rows),
    returns (src, order, batch_sizes, prev): packed row p is row src[p] of
    the stored order; order lists the sequences longest first (ties keep
    their order), which is the order of the kernels' initial states;
    batch_sizes[t] counts the sequences still running at step t; and
    packed row B + q follows packed row prev[q] of the same sequence.
    reverse runs every sequence from its last row to its first.
    """
    _seg, starts, lengths = _segment_layout(lengths, n_rows, "lstm_seq")
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    running = np.arange(sorted_len[0])[:, None] < sorted_len[None, :]  # (T, B)
    step, rank = np.nonzero(running)
    batch_sizes = running.sum(axis=1)
    offsets = np.cumsum(batch_sizes) - batch_sizes
    pos = sorted_len[rank] - 1 - step if reverse else step
    src = starts[order][rank] + pos
    n_seq = lengths.shape[0]
    prev = offsets[step[n_seq:] - 1] + rank[n_seq:]
    return src, order, batch_sizes, prev


def lstm_seq(x, wx, whT, b, h0, c0, lengths, reverse=False):
    """LSTM over B sequences stored back to back as the rows of x (N, E).

    lengths (B,) gives each sequence's row count; h0 and c0 are the (B, H)
    initial states. Returns the hidden states (N, H), row for row with x.
    With reverse, each sequence runs from its last row to its first (the
    backward half of a BiLSTM), and its states still line up with x.

    One tape node. The rows are gathered into the kernels' packed
    time-major layout (longest sequence first), so each time step is one
    matmul over the sequences still running, and the input and weight
    products are single matmuls over all N rows. whT holds the recurrent
    weights transposed, (4H, H). A single sequence is the case B = 1, and
    its packed layout is x itself, reversed or not.
    """
    x, wx, whT, b, h0, c0 = (as_tensor(t) for t in (x, wx, whT, b, h0, c0))
    src, order, batch_sizes, prev = _packed_layout(lengths, x.data.shape[0], reverse)
    state_shape = (order.shape[0], whT.data.shape[1])
    if h0.data.shape != state_shape or c0.data.shape != state_shape:
        raise GraphError(
            f"lstm_seq needs ({state_shape[0]}, H={state_shape[1]}) initial states, "
            f"got {h0.data.shape} and {c0.data.shape}")
    # saturated gates turn an infinite input finite; the weights are always
    # parameters, which no op checks
    _check_healing_inputs("lstm_seq", x.data, h0.data, c0.data)
    xp = x.data[src]
    xw = np.matmul(xp, wx.data) + b.data
    h0s, c0s = h0.data[order], c0.data[order]
    hs, cs, gates = kernels.lstm_forward(xw, whT.data, h0s, c0s, batch_sizes)
    out = np.empty_like(hs)
    out[src] = hs

    def backward(g):
        dgates, dh0s, dc0s = kernels.lstm_backward(g[src], gates, cs, whT.data, c0s, batch_sizes)
        hprev = np.concatenate((h0s, hs[prev]))
        dx = np.empty_like(xp)
        dx[src] = np.matmul(dgates, wx.data.T)
        dh0, dc0 = np.empty_like(dh0s), np.empty_like(dc0s)
        dh0[order], dc0[order] = dh0s, dc0s
        dwx = np.matmul(xp.T, dgates)
        dwhT = np.matmul(dgates.T, hprev)
        return dx, dwx, dwhT, dgates.sum(axis=0), dh0, dc0

    return _from_op("lstm_seq", out, (x, wx, whT, b, h0, c0), backward)


# ---------------------------------------------------------------------------
# parameters


def affine_plan(w, b, fan_in, fan_out):
    """The model-plan entries (models.build_model) of an affine map."""
    yield w, (fan_in, fan_out), "xavier"
    yield b, (fan_out,), "zeros"
