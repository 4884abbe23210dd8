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
recurrent product (benchmarks/bench_kernels.py prints both); the backward
kernel's steps still build their terms as fresh arrays.
"""

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
    the row order of xw. Each step is one (n, H) @ (H, 4H) product.

    A step allocates nothing: it writes its pre-activations, gates and
    states straight into its own rows of gates, cs and hs, and reads the
    previous step's states from theirs. The sigmoid runs over the whole 4H
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
    gates = np.empty((N, 4 * H))
    u = np.empty((h0.shape[0], H))  # the cell candidates, then i * u
    wh = whT.T
    h, c = h0, c0
    start = 0
    # exp(-g) overflows to inf for g < -709, where 1 / (1 + inf) is the
    # exact sigmoid 0; the cell block's sigmoid, which its tanh then
    # overwrites, must not warn of it either
    with np.errstate(over="ignore"):
        for n in batch_sizes:
            stop = start + n
            gt, ct, ht, ut = gates[start:stop], cs[start:stop], hs[start:stop], u[:n]
            np.dot(h[:n], wh, out=gt)
            gt += xw[start:stop]
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

