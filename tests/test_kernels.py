import numpy as np

from sevae import kernels


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


def test_forward_matches_reference(rng):
    for _ in range(5):
        xw, whT, h0, c0 = make_case(rng)
        hs, cs, gates = kernels.lstm_forward(xw, whT, h0, c0)
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
        hs, _, _ = kernels.lstm_forward_py(xw_, whT, h0_, c0_)
        return float(np.sum(hs * dhs))

    _, cs, gates = kernels.lstm_forward(xw, whT, h0, c0)
    dgates, dh0, dc0 = kernels.lstm_backward(dhs, gates, cs, whT, c0)

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


def test_backends_agree(rng):
    # JIT and interpreted paths share the algorithm but may differ by a few
    # ULP via different libm/BLAS code paths; require near-bit agreement.
    for _ in range(3):
        xw, whT, h0, c0 = make_case(rng, T=9, H=6)
        a = kernels.lstm_forward(xw, whT, h0, c0)
        b = kernels.lstm_forward_py(xw, whT, h0, c0)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-13, rtol=0)
        dhs = rng.standard_normal(a[0].shape)
        ga = kernels.lstm_backward(dhs, a[2], a[1], whT, c0)
        gb = kernels.lstm_backward_py(dhs, b[2], b[1], whT, c0)
        for x, y in zip(ga, gb):
            np.testing.assert_allclose(x, y, atol=1e-12, rtol=0)


def test_backend_is_named():
    assert kernels.BACKEND in ("numba", "numpy")


def test_single_step_sequence(rng):
    xw, whT, h0, c0 = make_case(rng, T=1, H=4)
    hs, cs, gates = kernels.lstm_forward(xw, whT, h0, c0)
    ref_hs, ref_cs = reference_lstm(xw, whT, h0, c0)
    np.testing.assert_allclose(hs, ref_hs, atol=1e-12)
    dgates, dh0, dc0 = kernels.lstm_backward(np.ones((1, 4)), gates, cs, whT, c0)
    assert dgates.shape == (1, 16) and dh0.shape == (4,) and dc0.shape == (4,)
