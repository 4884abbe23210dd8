import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevae import kernels
from sevae import tensor as Tn
from sevae.gradcheck import check_gradients


def reference_lstm(xw, whT, h0, c0):
    """Step-by-step scalar-math reference, independent of the kernel code."""
    T, four_h = xw.shape
    H = four_h // 4
    hs = np.zeros((T, H))
    cs = np.zeros((T, H))
    h, c = h0.astype(float).copy(), c0.astype(float).copy()
    for t in range(T):
        g = xw[t] + whT @ h
        i = 1 / (1 + np.exp(-g[0:H]))
        f = 1 / (1 + np.exp(-g[H:2 * H]))
        u = np.tanh(g[2 * H:3 * H])
        o = 1 / (1 + np.exp(-g[3 * H:4 * H]))
        c = f * c + i * u
        h = o * np.tanh(c)
        hs[t], cs[t] = h, c
    return hs, cs


def make_case(rng, T=7, H=5):
    xw = rng.standard_normal((T, 4 * H))
    whT = rng.standard_normal((4 * H, H)) * 0.4
    h0 = rng.standard_normal(H) * 0.3
    c0 = rng.standard_normal(H) * 0.3
    return xw, whT, h0, c0


def forward1(fn, xw, whT, h0, c0):
    """A forward kernel on one sequence: (H,) states, each step a batch of one."""
    steps = np.ones(xw.shape[0], dtype=np.int64)
    return fn(xw, whT, h0[None], c0[None], steps)


def backward1(fn, dhs, gates, cs, whT, c0):
    steps = np.ones(dhs.shape[0], dtype=np.int64)
    dgates, dh0, dc0 = fn(dhs, gates, cs, whT, c0[None], steps)
    return dgates, dh0[0], dc0[0]


def test_forward_matches_reference(rng):
    for _ in range(5):
        xw, whT, h0, c0 = make_case(rng)
        hs, cs, gates = forward1(kernels.lstm_forward, xw, whT, h0, c0)
        ref_hs, ref_cs = reference_lstm(xw, whT, h0, c0)
        np.testing.assert_allclose(hs, ref_hs, atol=1e-12)
        np.testing.assert_allclose(cs, ref_cs, atol=1e-12)
        T_, H = ref_hs.shape
        assert gates.shape == (T_, 4 * H)
        assert np.all((gates[:, :2 * H] > 0) & (gates[:, :2 * H] < 1))
        assert np.all(np.abs(gates[:, 2 * H:3 * H]) < 1)


def test_backward_matches_finite_differences(rng):
    xw, whT, h0, c0 = make_case(rng, T=4, H=3)
    dhs = rng.standard_normal((4, 3))

    def loss(xw_, h0_, c0_):
        hs, _, _ = forward1(kernels.lstm_forward, xw_, whT, h0_, c0_)
        return float(np.sum(hs * dhs))

    _, cs, gates = forward1(kernels.lstm_forward, xw, whT, h0, c0)
    dgates, dh0, dc0 = backward1(kernels.lstm_backward, dhs, gates, cs, whT, c0)

    step = 1e-6
    for arr, grad in ((h0, dh0), (c0, dc0)):
        for j in range(arr.size):
            orig = arr[j]
            arr[j] = orig + step
            up = loss(xw, h0, c0)
            arr[j] = orig - step
            dn = loss(xw, h0, c0)
            arr[j] = orig
            num = (up - dn) / (2 * step)
            assert abs(num - grad[j]) < 1e-6

    # dgates is the grad on pre-activation inputs, which equals d loss / d xw
    flat = xw.ravel()
    for j in range(0, flat.size, 7):
        orig = flat[j]
        flat[j] = orig + step
        up = loss(xw, h0, c0)
        flat[j] = orig - step
        dn = loss(xw, h0, c0)
        flat[j] = orig
        num = (up - dn) / (2 * step)
        assert abs(num - dgates.ravel()[j]) < 1e-6


def test_single_step_sequence(rng):
    xw, whT, h0, c0 = make_case(rng, T=1, H=4)
    hs, cs, gates = forward1(kernels.lstm_forward, xw, whT, h0, c0)
    ref_hs, ref_cs = reference_lstm(xw, whT, h0, c0)
    np.testing.assert_allclose(hs, ref_hs, atol=1e-12)
    steps = np.ones(1, dtype=np.int64)
    dgates, dh0, dc0 = kernels.lstm_backward(np.ones((1, 4)), gates, cs, whT, c0[None], steps)
    assert dgates.shape == (1, 16) and dh0.shape == (1, 4) and dc0.shape == (1, 4)


# ---------------------------------------------------------------------------
# ragged batches: the packed kernels and lstm_seq against one sequence at a
# time


def packed_rows(lengths):
    """(sequence, step) of every packed row, longest sequence first (ties
    in input order), and the batch size of every step; built by loops."""
    ranked = sorted(range(len(lengths)), key=lambda k: -lengths[k])
    rows, sizes = [], []
    for t in range(max(lengths)):
        running = [k for k in ranked if lengths[k] > t]
        rows += [(k, t) for k in running]
        sizes.append(len(running))
    return ranked, rows, np.array(sizes, dtype=np.int64)


ragged = dict(
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    reverse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(**ragged)
@example(lengths=[1], reverse=False, seed=0)
@example(lengths=[4, 1, 4, 2, 4, 1], reverse=True, seed=1)
def test_ragged_kernels_match_the_per_sequence_reference(lengths, reverse, seed):
    rng = np.random.default_rng(seed)
    H = 3
    whT = rng.standard_normal((4 * H, H)) * 0.4
    seqs = [rng.standard_normal((n, 4 * H)) for n in lengths]
    h0 = rng.standard_normal((len(lengths), H)) * 0.3
    c0 = rng.standard_normal((len(lengths), H)) * 0.3
    ranked, rows, sizes = packed_rows(lengths)
    xw = np.array([seqs[k][t] for k, t in rows])
    hs, cs, gates = kernels.lstm_forward(xw, whT, h0[ranked], c0[ranked], sizes)
    dhs = rng.standard_normal(hs.shape)
    dgates, dh0, dc0 = kernels.lstm_backward(dhs, gates, cs, whT, c0[ranked], sizes)
    for rank, k in enumerate(ranked):
        mine = [p for p, (seq, _t) in enumerate(rows) if seq == k]
        ref_hs, ref_cs = reference_lstm(seqs[k], whT, h0[k], c0[k])
        np.testing.assert_allclose(hs[mine], ref_hs, atol=1e-12, rtol=0)
        np.testing.assert_allclose(cs[mine], ref_cs, atol=1e-12, rtol=0)
        # the batch's backward is the sum of independent per-sequence ones
        one = backward1(kernels.lstm_backward, dhs[mine], gates[mine], cs[mine], whT, c0[k])
        np.testing.assert_allclose(dgates[mine], one[0], atol=1e-12, rtol=0)
        np.testing.assert_allclose(dh0[rank], one[1], atol=1e-12, rtol=0)
        np.testing.assert_allclose(dc0[rank], one[2], atol=1e-12, rtol=0)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(**ragged)
@example(lengths=[1], reverse=True, seed=0)
@example(lengths=[3, 3, 1, 3], reverse=False, seed=2)
def test_lstm_seq_matches_the_per_sequence_reference(lengths, reverse, seed):
    rng = np.random.default_rng(seed)
    D, H, B = 2, 3, len(lengths)
    p = {
        "x": rng.standard_normal((sum(lengths), D)),
        "wx": rng.standard_normal((D, 4 * H)) * 0.4,
        "whT": rng.standard_normal((4 * H, H)) * 0.4,
        "b": rng.standard_normal(4 * H) * 0.1,
        "h0": rng.standard_normal((B, H)) * 0.3,
        "c0": rng.standard_normal((B, H)) * 0.3,
    }
    p = {k: Tn.Tensor(v, requires_grad=True) for k, v in p.items()}
    hs = Tn.lstm_seq(p["x"], p["wx"], p["whT"], p["b"], p["h0"], p["c0"], lengths, reverse).data
    start = 0
    for k, n in enumerate(lengths):
        x = p["x"].data[start:start + n]
        xw = (x[::-1] if reverse else x) @ p["wx"].data + p["b"].data
        ref, _ = reference_lstm(xw, p["whT"].data, p["h0"].data[k], p["c0"].data[k])
        np.testing.assert_allclose(hs[start:start + n], ref[::-1] if reverse else ref, atol=1e-12, rtol=0)
        start += n

    weights = rng.standard_normal(hs.shape)

    def build():
        out = Tn.lstm_seq(p["x"], p["wx"], p["whT"], p["b"], p["h0"], p["c0"], lengths, reverse)
        return Tn.sum_(Tn.mul(out, weights))

    assert max(check_gradients(build, p).values()) < 1e-6
