"""Hot numeric kernels: LSTM sequence recurrences, JIT-compiled or plain numpy.

Every recurrent model in the package runs its time loop through the two
kernels below, so they dominate training time. By default they are compiled
with numba's ``@njit``; setting the environment variable ``SEVAE_BACKEND=numpy``
before import selects the pure-numpy fallback instead (identical code path,
interpreted). ``SEVAE_BACKEND=numba`` forces JIT and raises if numba is
missing. The un-jitted functions stay importable as ``lstm_forward_py`` /
``lstm_backward_py`` so benchmarks can compare both backends in one process.

Both kernels take a batch of sequences in packed time-major form, the
layout of PyTorch's PackedSequence: with the sequences sorted longest
first, step t holds one row for each of the first batch_sizes[t]
sequences, and the steps follow each other. Each step is then one matmul
over the sequences still running; a single sequence is the batch of one,
whose steps are matvecs. The kernels use only slices, elementwise ufuncs
and np.dot, so that numba can compile them.

Gate layout along the 4H axis is [input, forget, cell, output]. The weight
matrix is stored pre-transposed as ``whT`` with shape (4H, H).
"""

import os

import numpy as np

_choice = os.environ.get("SEVAE_BACKEND", "auto").strip().lower()
if _choice not in ("auto", "numba", "numpy"):
    raise ValueError(f"SEVAE_BACKEND must be auto, numba, or numpy (got {_choice!r})")

if _choice == "numpy":
    BACKEND = "numpy"
else:
    try:
        from numba import njit

        BACKEND = "numba"
    except ImportError:
        if _choice == "numba":
            raise
        BACKEND = "numpy"

if BACKEND == "numba":
    _jit = njit(cache=True)
else:

    def _jit(fn):
        return fn


def lstm_forward_py(xw, whT, h0, c0, batch_sizes):
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
    the row order of xw. Each step is one (n, H) @ (H, 4H) product.
    """
    N = xw.shape[0]
    H = h0.shape[1]
    H2, H3 = 2 * H, 3 * H
    hs = np.empty((N, H))
    cs = np.empty((N, H))
    gates = np.empty((N, 4 * H))
    wh = whT.T
    h = h0.copy()
    c = c0.copy()
    start = 0
    for n in batch_sizes:
        stop = start + n
        g = xw[start:stop] + np.dot(h[:n], wh)
        gt = gates[start:stop]
        # the input and forget gates are one block of 2H sigmoids
        gt[:, :H2] = 1.0 / (1.0 + np.exp(-g[:, :H2]))
        gt[:, H2:H3] = np.tanh(g[:, H2:H3])
        gt[:, H3:] = 1.0 / (1.0 + np.exp(-g[:, H3:]))
        c = gt[:, H:H2] * c[:n] + gt[:, :H] * gt[:, H2:H3]
        h = gt[:, H3:] * np.tanh(c)
        hs[start:stop] = h
        cs[start:stop] = c
        start = stop
    return hs, cs, gates


def lstm_backward_py(dhs, gates, cs, whT, c0, batch_sizes):
    """Reverse-time LSTM gradient over the packed layout of lstm_forward.

    dhs: (N, H) upstream gradient on every hidden state
    gates, cs: forward-pass caches; c0: (B, H) initial cell states
    Returns (dgates, dh0, dc0) where dgates (N, 4H) is the gradient on the
    pre-activation gate inputs and dh0, dc0 are (B, H); weight/input
    gradients follow from dgates by plain matmuls outside this kernel.
    """
    N, H = dhs.shape
    B = c0.shape[0]
    dgates = np.empty((N, 4 * H))
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
        dgates[start:stop, :H] = di * i * (1.0 - i)
        dgates[start:stop, H : 2 * H] = df * f * (1.0 - f)
        dgates[start:stop, 2 * H : 3 * H] = du * (1.0 - u * u)
        dgates[start:stop, 3 * H :] = do * o * (1.0 - o)
        dh[:n] = np.dot(dgates[start:stop], whT)
        stop = start
    return dgates, dh, dc


lstm_forward = _jit(lstm_forward_py)
lstm_backward = _jit(lstm_backward_py)
