"""Hot numeric kernels: LSTM sequence recurrences, JIT-compiled or plain numpy.

Every recurrent model in the package runs its time loop through the two
kernels below, so they dominate training time. By default they are compiled
with numba's ``@njit``; setting the environment variable ``SEVAE_BACKEND=numpy``
before import selects the pure-numpy fallback instead (identical code path,
interpreted). ``SEVAE_BACKEND=numba`` forces JIT and raises if numba is
missing. The un-jitted functions stay importable as ``lstm_forward_py`` /
``lstm_backward_py`` so benchmarks can compare both backends in one process.

Gate layout along the 4H axis is [input, forget, cell, output]. The weight
matrix is stored pre-transposed as ``whT`` with shape (4H, H) so both the
forward matvec and the backward matvec hit contiguous memory.
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


def lstm_forward_py(xw, whT, h0, c0):
    """Run an LSTM over a sequence of pre-projected inputs.

    xw:  (T, 4H) input projections, x_t @ Wx + b already applied
    whT: (4H, H) recurrent weights, transposed
    h0, c0: (H,) initial state

    Returns (hs, cs, gates): hidden states (T, H), cell states (T, H), and
    the activated gate values (T, 4H) saved for the backward pass.
    """
    T = xw.shape[0]
    H = h0.shape[0]
    hs = np.empty((T, H))
    cs = np.empty((T, H))
    gates = np.empty((T, 4 * H))
    h = h0.copy()
    c = c0.copy()
    for t in range(T):
        g = xw[t] + np.dot(whT, h)
        i = 1.0 / (1.0 + np.exp(-g[:H]))
        f = 1.0 / (1.0 + np.exp(-g[H : 2 * H]))
        u = np.tanh(g[2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-g[3 * H :]))
        c = f * c + i * u
        h = o * np.tanh(c)
        gates[t, :H] = i
        gates[t, H : 2 * H] = f
        gates[t, 2 * H : 3 * H] = u
        gates[t, 3 * H :] = o
        hs[t] = h
        cs[t] = c
    return hs, cs, gates


def lstm_backward_py(dhs, gates, cs, whT, c0):
    """Reverse-time LSTM gradient.

    dhs: (T, H) upstream gradient on every hidden state
    gates, cs: forward-pass caches
    Returns (dgates, dh0, dc0) where dgates (T, 4H) is the gradient on the
    pre-activation gate inputs; weight/input gradients follow from it by
    plain matmuls outside this kernel.
    """
    T, H = dhs.shape
    dgates = np.empty((T, 4 * H))
    dh = np.zeros(H)
    dc = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dht = dhs[t] + dh
        i = gates[t, :H]
        f = gates[t, H : 2 * H]
        u = gates[t, 2 * H : 3 * H]
        o = gates[t, 3 * H :]
        tc = np.tanh(cs[t])
        do = dht * tc
        dct = dc + dht * o * (1.0 - tc * tc)
        if t > 0:
            cprev = cs[t - 1]
        else:
            cprev = c0
        di = dct * u
        du = dct * i
        df = dct * cprev
        dc = dct * f
        dgates[t, :H] = di * i * (1.0 - i)
        dgates[t, H : 2 * H] = df * f * (1.0 - f)
        dgates[t, 2 * H : 3 * H] = du * (1.0 - u * u)
        dgates[t, 3 * H :] = do * o * (1.0 - o)
        dh = np.dot(dgates[t], whT)
    return dgates, dh, dc


lstm_forward = _jit(lstm_forward_py)
lstm_backward = _jit(lstm_backward_py)
