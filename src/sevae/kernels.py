"""Hot numeric kernels: the LSTM sequence recurrences, in plain numpy.

Every recurrent model in the package runs its time loop through the two
kernels below, so they dominate training time.

Both kernels take a batch of sequences in packed time-major form, the
layout of PyTorch's PackedSequence: with the sequences sorted longest
first, step t holds one row for each of the first batch_sizes[t]
sequences, and the steps follow each other. Each step is then one matmul
over the sequences still running; a single sequence is the batch of one,
whose steps are matvecs.

Gate layout along the 4H axis is [input, forget, cell, output]. The weight
matrix is stored pre-transposed as ``whT`` with shape (4H, H).

The forward kernel's steps allocate nothing, which matters at B=1, where
tagging runs one clause or paragraph and a step is little more than its
recurrent product (benchmarks/bench_kernels.py prints both); it consumes
the xw it is given, whose rows become the gates it returns. The backward
kernel's steps still build their terms as fresh arrays, and it consumes
the gates, whose rows become the gradients it returns.

The two directions of a BiLSTM are independent chains, so
tensor.bilstm_seq runs them, kernels and products, at the same time
through concurrently(): one on the calling thread, one on a persistent
worker thread. At B=1 a step of ctx's width reads all 2.88 MB of its
recurrent weights, more than one core's L2, so one chain cannot use two
cores, while two chains can. That holds only with BLAS at one thread,
so concurrently() runs both under one_blas_thread: after any
multi-threaded BLAS call an idle OpenBLAS worker spins on the second
core for about 0.1 s. Products taken at one thread also give the same
bits whatever the BLAS thread count.
"""

import ctypes
import functools
import os
from concurrent import futures

import numpy as np

# the kernel implementation, recorded in benchmark environments
BACKEND = "numpy"


def lstm_forward(xw, whT, h0, c0, batch_sizes):
    """Run an LSTM over a batch of sequences in packed time-major form.

    xw:  (N, 4H) input projections, x_t @ Wx + b already applied; the rows
         of step t are the next batch_sizes[t] rows, one per sequence, in
         the order of h0 (longest sequence first)
    whT: (4H, H) recurrent weights, transposed
    h0, c0: (B, H) initial states
    batch_sizes: (T,) ints, non-increasing, batch_sizes[0] == B: how many
         sequences are still running at step t

    Returns (hs, cs, gates): hidden states (N, H), cell states (N, H), and
    the activated gate values (N, 4H) saved for the backward pass, all in
    the row order of xw. gates is xw itself, overwritten: the caller hands
    xw over. Each step is one (n, H) @ (H, 4H) product.

    A step allocates nothing: it takes its product into a (B, 4H) scratch,
    adds that to its own rows of xw to make the pre-activations (the bits
    of product + xw, as addition commutes), writes gates and states in
    place there and into its rows of cs and hs, and reads the previous
    step's states from theirs. The sigmoid runs over the whole 4H
    block, the cell block's tanh having been taken from the
    pre-activations first; every element still goes through the same
    operations as 1 / (1 + exp(-g)), tanh(g), f * c + i * u and
    o * tanh(c), so the bits are those of each expression taken whole.
    """
    N = xw.shape[0]
    H = h0.shape[1]
    H2, H3 = 2 * H, 3 * H
    hs = np.empty((N, H))
    cs = np.empty((N, H))
    gates = xw
    u = np.empty((h0.shape[0], H))  # the cell candidates, then i * u
    hw = np.empty((h0.shape[0], 4 * H))  # the recurrent product
    wh = whT.T
    h, c = h0, c0
    start = 0
    # exp(-g) overflows to inf for g < -709, where 1 / (1 + inf) is the
    # exact sigmoid 0; the cell block's sigmoid, which its tanh then
    # overwrites, must not warn of it either
    with np.errstate(over="ignore"):
        for n in batch_sizes:
            stop = start + n
            gt, ct, ht, ut, hwt = gates[start:stop], cs[start:stop], hs[start:stop], u[:n], hw[:n]
            np.dot(h[:n], wh, out=hwt)
            gt += hwt
            np.tanh(gt[:, H2:H3], out=ut)
            np.negative(gt, out=gt)
            np.exp(gt, out=gt)
            gt += 1.0
            np.divide(1.0, gt, out=gt)
            gt[:, H2:H3] = ut
            ut *= gt[:, :H]
            np.multiply(gt[:, H:H2], c[:n], out=ct)
            ct += ut
            np.tanh(ct, out=ht)
            ht *= gt[:, H3:]
            h, c = ht, ct
            start = stop
    return hs, cs, gates


def lstm_backward(dhs, gates, cs, whT, c0, batch_sizes):
    """Reverse-time LSTM gradient over the packed layout of lstm_forward.

    dhs: (N, H) upstream gradient on every hidden state
    gates, cs: forward-pass caches; c0: (B, H) initial cell states
    Returns (dgates, dh0, dc0) where dgates (N, 4H) is the gradient on the
    pre-activation gate inputs and dh0, dc0 are (B, H); weight/input
    gradients follow from dgates by plain matmuls outside this kernel.
    dgates is gates itself, overwritten: the caller hands gates over.
    """
    N, H = dhs.shape
    B = c0.shape[0]
    dgates = gates
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    stop = N
    for t in range(batch_sizes.shape[0] - 1, -1, -1):
        n = batch_sizes[t]
        start = stop - n
        dht = dhs[start:stop] + dh[:n]
        i = gates[start:stop, :H]
        f = gates[start:stop, H : 2 * H]
        u = gates[start:stop, 2 * H : 3 * H]
        o = gates[start:stop, 3 * H :]
        tc = np.tanh(cs[start:stop])
        do = dht * tc
        dct = dc[:n] + dht * o * (1.0 - tc * tc)
        if t > 0:
            prev = start - batch_sizes[t - 1]
            cprev = cs[prev : prev + n]
        else:
            cprev = c0
        di = dct * u
        du = dct * i
        df = dct * cprev
        dc[:n] = dct * f
        # each block's gradient goes over its own gates, which only the
        # right-hand side of that line still reads
        dgates[start:stop, :H] = di * i * (1.0 - i)
        dgates[start:stop, H : 2 * H] = df * f * (1.0 - f)
        dgates[start:stop, 2 * H : 3 * H] = du * (1.0 - u * u)
        dgates[start:stop, 3 * H :] = do * o * (1.0 - o)
        dh[:n] = np.dot(dgates[start:stop], whT)
        stop = start
    return dgates, dh, dc


# ---------------------------------------------------------------------------
# BLAS threads and the worker thread


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the loaded OpenBLAS's thread count, through ctypes,
    or None when no loaded library exports them; looked up on first use.
    numpy's bundled build names them scipy_openblas_{get,set}_num_threads64_."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({parts[-1] for parts in map(str.split, fh)
                            if len(parts) >= 6 and "openblas" in os.path.basename(parts[-1])})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class one_blas_thread:
    """Scope in which BLAS runs at one thread; the previous count is set
    back on exit. It does nothing when no OpenBLAS thread call was found.
    Scopes nest, and the count is per process, not per thread."""

    __slots__ = ("_old",)

    def __enter__(self):
        calls = _openblas_thread_calls()
        self._old = calls[0]() if calls is not None else 1
        if self._old != 1:
            calls[1](1)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._old != 1:
            _openblas_thread_calls()[1](self._old)
        return False


# the worker thread of concurrently(), made on first use; a forked child
# has no thread behind its parent's executor, so it makes its own
_WORKER = None


def _forget_worker():
    global _WORKER
    _WORKER = None


os.register_at_fork(after_in_child=_forget_worker)


def _under(err, fn):
    with np.errstate(**err):
        return fn()


def concurrently(background, foreground):
    """(background(), foreground()), with background run on the worker
    thread while foreground runs on this one, both under this thread's
    numpy error state (numpy keeps it per thread) and with BLAS at one
    thread (one_blas_thread), since a spinning BLAS worker would take the
    core the worker thread needs; the previous count is set back after.
    It returns, or raises foreground's error, else background's, only
    once both have ended. Run plain-array work in background, never a
    tensor op (the tape and the checked() state are per thread)."""
    global _WORKER
    if _WORKER is None:
        _WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="sevae-kernels")
    with one_blas_thread():
        job = _WORKER.submit(_under, np.geterr(), background)
        try:
            fore = foreground()
        except BaseException:
            job.exception()  # waits for background, whose error is dropped
            raise
        return job.result(), fore
