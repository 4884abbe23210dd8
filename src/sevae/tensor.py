"""Reverse-mode automatic differentiation over float64 numpy arrays.

A dynamic tape: ops executed inside a ``with Tape() as tp`` block append one
node each, in execution order, and ``tp.backward(loss)`` replays them once in
reverse, accumulating gradients additively. Outside a tape, the same ops run
plain forward math with no recording, which is the evaluation path.

Every op validates its output for NaN/Inf and fails fast naming the op;
models therefore never silently train on poisoned values. All data is
float64 throughout -- finite-difference verification needs the headroom.

The op set is deliberately small: matmul (incl. stacked 3-D), affine,
elementwise arithmetic and activations, concat/slice/reshape/transpose,
reductions, embedding lookup, softmax / log-softmax / logsumexp,
cross-entropy, layer norm, dropout, a fused LSTM sequence op whose
forward/backward run through the kernels backend, and factored_loglik, the
next-token log-likelihood under every (row, column) tilt of shared base
logits, whose softmax normaliser is a matmul over max-shifted exponentials.
Everything else in the package is composed from these.
"""

import math
import threading

import numpy as np

from . import kernels
from .errors import GraphError, NumericsError

_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tensor:
    """A float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._node_id = -1

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

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

    Nodes are (inputs, backward_fn, out): ``backward_fn(out_grad)`` returns
    one gradient array per input (or None for inputs that need none).
    backward consumes the nodes, so it runs once per tape. Tapes do not
    nest; evaluation code simply runs outside any tape.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        if _active_tape() is not None:
            raise GraphError("tapes do not nest")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        return False

    def backward(self, loss):
        """Populate .grad on every requires_grad leaf reachable from loss.

        Leaf gradients accumulate additively across backward calls (gradient
        accumulation over a logical batch); use zero_grad to reset.
        """
        if not isinstance(loss, Tensor):
            raise GraphError("backward expects a Tensor loss")
        if loss.data.ndim != 0:
            raise GraphError(f"non-scalar loss of shape {loss.data.shape}")
        if loss._tape is not self or loss._node_id < 0:
            raise GraphError("backward before forward: loss was not recorded on this tape")
        if loss._node_id >= len(self.nodes):
            raise GraphError("backward already ran on this tape")
        grads = {loss._node_id: np.ones((), dtype=np.float64)}
        for node_id in range(len(self.nodes) - 1, -1, -1):
            out_grad = grads.pop(node_id, None)
            if out_grad is None:
                continue
            inputs, backward_fn, _out = self.nodes[node_id]
            in_grads = backward_fn(out_grad)
            for tensor, grad in zip(inputs, in_grads):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor._tape is self and tensor._node_id >= 0:
                    prev = grads.get(tensor._node_id)
                    grads[tensor._node_id] = grad if prev is None else prev + grad
                elif tensor.grad is None:
                    # a backward_fn may hand one array to several inputs
                    # (add passes g through), so the first contribution
                    # is copied before later ones are added in place
                    tensor.grad = np.array(grad, dtype=np.float64)
                else:
                    np.add(tensor.grad, grad, out=tensor.grad)
        # nodes and their outputs reference each other; dropping the nodes
        # frees the graph's arrays now instead of at a cyclic collection
        self.nodes = []


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


def _from_op(op_name, out_data, inputs, backward_fn):
    _check_finite(out_data, op_name)
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        out._tape = tape
        out._node_id = len(tape.nodes)
        tape.nodes.append((tuple(inputs), backward_fn, out))
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

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _from_op("add", a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

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
    """np.matmul semantics for 1-D/2-D operands and equal-batch 3-D stacks."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim >= 3 or bd.ndim >= 3:
        if ad.shape[:-2] != bd.shape[:-2]:
            raise GraphError("stacked matmul requires identical batch dims")
    out = np.matmul(ad, bd)

    def backward(g):
        if ad.ndim == 1 and bd.ndim == 1:
            return g * bd, g * ad
        if ad.ndim == 1:  # (k,) @ (k,n) -> (n,)
            return np.matmul(bd, g), np.outer(ad, g)
        if bd.ndim == 1:  # (m,k) @ (k,) -> (m,)
            return np.outer(g, bd), np.matmul(ad.T, g)
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
    xd, wd = x.data, w.data
    x2 = xd.reshape(-1, xd.shape[-1]) if xd.ndim > 2 else xd
    out = (np.matmul(x2, wd) + b.data).reshape(xd.shape[:-1] + wd.shape[1:])

    def backward(g):
        if xd.ndim == 1:
            return np.matmul(wd, g), np.outer(xd, g), _unbroadcast(g, b.data.shape)
        g2 = g.reshape(-1, g.shape[-1])
        dx = np.matmul(g2, wd.T).reshape(xd.shape)
        return dx, np.matmul(x2.T, g2), _unbroadcast(g2, b.data.shape)

    return _from_op("affine", out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# activations and elementwise transforms


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _from_op("relu", np.where(mask, a.data, 0.0), (a,), backward)


def exp(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _from_op("exp", out, (a,), backward)


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient flows only where unclipped."""
    a = as_tensor(a)
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


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise GraphError("stack of zero tensors")

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(np.ascontiguousarray(moved[i]) for i in range(len(tensors)))

    return _from_op("stack", np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    if start < 0 or start + length > a.data.shape[axis]:
        raise GraphError(
            f"narrow [{start}, {start + length}) out of range for axis {axis} of shape {a.data.shape}"
        )
    index = tuple(slice(None) if d != axis else slice(start, start + length) for d in range(a.data.ndim))

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _from_op("narrow", np.ascontiguousarray(a.data[index]), (a,), backward)


def flip0(a):
    """Reverse along axis 0 (drives the backward direction of the BiLSTM)."""
    a = as_tensor(a)

    def backward(g):
        return (np.ascontiguousarray(g[::-1]),)

    return _from_op("flip0", np.ascontiguousarray(a.data[::-1]), (a,), backward)


def repeat_row(v, n):
    """Tile (..., P) into n identical rows, (..., n, P); gradient sums over rows."""
    v = as_tensor(v)
    if v.data.ndim < 1:
        raise GraphError("repeat_row expects at least a vector")

    def backward(g):
        return (g.sum(axis=-2),)

    return _from_op("repeat_row", np.repeat(v.data[..., None, :], n, axis=-2), (v,), backward)


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


def mean(a, axis=None):
    a = as_tensor(a)
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    return _from_op("mean", a.data.mean(axis=axis), (a,), backward)


def max_(a, axis=None):
    """Max reduction; ties route the gradient to the first maximum."""
    a = as_tensor(a)
    ad = a.data
    if axis is None:
        flat_idx = int(np.argmax(ad))

        def backward(g):
            full = np.zeros_like(ad)
            full.flat[flat_idx] = g
            return (full,)

        return _from_op("max", ad.max(), (a,), backward)

    idx = np.argmax(ad, axis=axis)

    def backward(g):
        full = np.zeros_like(ad)
        grid = np.ogrid[tuple(slice(s) for s in idx.shape)]
        sel = list(grid)
        sel.insert(axis if axis >= 0 else ad.ndim + axis, idx)
        full[tuple(sel)] = g
        return (full,)

    return _from_op("max", ad.max(axis=axis), (a,), backward)


# ---------------------------------------------------------------------------
# lookup and normalization


def embedding(table, ids):
    """Row gather from a (V, E) table by a (n,) or (B, n) id array, giving
    (n, E) or (B, n, E); backward scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise GraphError("embedding ids must be a 1-D or 2-D index array")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise GraphError(f"embedding id out of range [0, {table.data.shape[0]})")

    def backward(g):
        full = np.zeros_like(table.data)
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


def logsumexp(a, axis=None):
    """log sum exp with max-shift; exact under translation of the input."""
    a = as_tensor(a)
    if a.data.size == 0:
        raise NumericsError("empty reduction in logsumexp")
    _require_finite_input(a, "logsumexp")
    m = a.data.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True)) + m
    soft = np.exp(a.data - out)
    if axis is None:
        out = out.reshape(())
    else:
        out = out.squeeze(axis=axis)

    def backward(g):
        if axis is None:
            return (soft * g,)
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

    def backward(g):
        grad = np.exp(logp)
        grad[picks] -= 1.0
        grad *= g
        return (grad.reshape(ld.shape),)

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


def factored_loglik(base, rows, cols, targets):
    """Summed next-token log-likelihood under every (row, column) tilt.

    base: (T, V) logits; rows: (I, V) and cols: (J, V) tilts added to every
    step; targets: (T,) ints. Entry [i, j] of the (I, J) result is
    sum_t log softmax(base[t] + rows[i] + cols[j])[targets[t]].

    With A, B, C the max-shifted exponentials of base, rows and cols, the
    normaliser of step t under (i, j) is exp(shifts) * S[i, t, j], where
    S = (B[i] * A[t]) @ C.T is one matmul; the backward is matmuls too, so
    neither direction builds the (I, J, T, V) logits. When some S falls
    below _FACTORED_TINY, both directions use the direct max-shifted block,
    one row at a time.
    """
    base, rows, cols = as_tensor(base), as_tensor(rows), as_tensor(cols)
    for t in (base, rows, cols):
        _require_finite_input(t, "factored_loglik")
    bd, rd, cd = base.data, rows.data, cols.data
    tgt = np.asarray(targets, dtype=np.int64)
    if bd.ndim != 2 or rd.ndim != 2 or cd.ndim != 2:
        raise GraphError("factored_loglik expects 2-D base, rows and cols")
    n_steps, n_vocab = bd.shape
    if rd.shape[1] != n_vocab or cd.shape[1] != n_vocab:
        raise GraphError(
            f"factored_loglik widths differ: base {bd.shape}, rows {rd.shape}, cols {cd.shape}")
    if tgt.shape != (n_steps,):
        raise GraphError(f"factored_loglik got {n_steps} steps but targets of shape {tgt.shape}")
    if not tgt.size or tgt.min() < 0 or tgt.max() >= n_vocab:
        raise GraphError(f"factored_loglik needs at least one target, all in [0, {n_vocab})")
    n_rows, n_cols = rd.shape[0], cd.shape[0]
    steps = np.arange(n_steps)
    mb = bd.max(axis=1, keepdims=True)
    mr = rd.max(axis=1, keepdims=True)
    mc = cd.max(axis=1, keepdims=True)
    a, b, c = np.exp(bd - mb), np.exp(rd - mr), np.exp(cd - mc)
    ab = (b[:, None, :] * a[None, :, :]).reshape(n_rows * n_steps, n_vocab)
    s = (ab @ c.T).reshape(n_rows, n_steps, n_cols)
    direct = s.min() < _FACTORED_TINY

    if direct:
        out = _direct_loglik(bd, rd, cd, tgt)
    else:
        # each target logit minus its row's max, summed over steps
        picked = (
            (bd[steps, tgt] - mb[:, 0]).sum()
            + (rd[:, tgt] - mr).sum(axis=1)[:, None]
            + (cd[:, tgt] - mc).sum(axis=1)[None, :]
        )
        out = picked - np.log(s).sum(axis=1)

    def backward(g):
        # d out[i, j] / d logit[t, v] = onehot[t, v] - P[i, j, t, v]
        if direct:
            return _direct_backward(g, bd, rd, cd, tgt)
        counts = np.bincount(tgt, minlength=n_vocab)
        w = g[:, None, :] / s  # (I, T, J)
        bq = b[:, None, :] * (w @ c)  # (I, T, V): sum_j W C, times B
        dbase = -a * bq.sum(axis=0)
        dbase[steps, tgt] += g.sum()
        drows = -(bq * a[None, :, :]).sum(axis=1) + g.sum(axis=1)[:, None] * counts
        dcols = -c * (w.reshape(n_rows * n_steps, n_cols).T @ ab) + g.sum(axis=0)[:, None] * counts
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


def _stack_rows(parts):
    """np.stack, without the copy for a single part."""
    return parts[0][None] if len(parts) == 1 else np.stack(parts)


def lstm_seq(x, wx, whT, b, h0, c0):
    """Full LSTM pass over a (T, E) input with (H,) initial states, or over
    a (B, T, E) stack of equal-length inputs with (B, H) initial states;
    returns hidden states (T, H) or (B, T, H).

    One tape node for the whole stack. The kernels backend runs the time
    loop of each sequence in turn; the input and weight products run once
    over all B*T rows, so a stack builds one weight-gradient set. whT holds
    the recurrent weights transposed, (4H, H).
    """
    x, wx, whT, b, h0, c0 = (as_tensor(t) for t in (x, wx, whT, b, h0, c0))
    stacked = x.data.ndim == 3
    xs, h0s, c0s = (t.data if stacked else t.data[None] for t in (x, h0, c0))
    n_seq, n_steps, n_in = xs.shape
    x2 = xs.reshape(-1, n_in)
    xw = (np.matmul(x2, wx.data) + b.data).reshape(n_seq, n_steps, -1)
    runs = [kernels.lstm_forward(xw[i], whT.data, h0s[i], c0s[i]) for i in range(n_seq)]
    hs, cs, gates = (_stack_rows(parts) for parts in zip(*runs))

    def backward(g):
        gs = g if stacked else g[None]
        back = [
            kernels.lstm_backward(np.ascontiguousarray(gs[i]), gates[i], cs[i], whT.data, c0s[i])
            for i in range(n_seq)
        ]
        dgates, dh0, dc0 = (_stack_rows(parts) for parts in zip(*back))
        dgates = dgates.reshape(n_seq * n_steps, -1)
        hprev = np.concatenate((h0s[:, None, :], hs[:, :-1]), axis=1).reshape(n_seq * n_steps, -1)
        dwhT = np.matmul(dgates.T, hprev)
        dx = np.matmul(dgates, wx.data.T).reshape(x.data.shape)
        dwx = np.matmul(x2.T, dgates)
        db = dgates.sum(axis=0)
        if not stacked:
            dh0, dc0 = dh0[0], dc0[0]
        return dx, dwx, dwhT, db, dh0, dc0

    return _from_op("lstm_seq", hs if stacked else hs[0], (x, wx, whT, b, h0, c0), backward)


# ---------------------------------------------------------------------------
# parameter constructors


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def uniform_param(rng, shape, scale=0.1):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def xavier_param(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def zero_grads(params):
    """Reset gradients on a mapping or iterable of tensors."""
    values = params.values() if hasattr(params, "values") else params
    for p in values:
        p.zero_grad()
