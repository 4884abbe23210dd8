import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevae import tensor as T
from sevae.errors import GraphError, NumericsError
from sevae.gradcheck import check_gradients
from sevae.tensor import _all_finite


def leaf(data):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def grad_of(build, params):
    errs = check_gradients(build, params)
    return max(errs.values())


# ---------------------------------------------------------------------------
# forward values against plain-numpy oracles


def test_logsumexp_values():
    assert T.logsumexp(leaf([0.0, 0.0])).data == pytest.approx(math.log(2.0), abs=1e-15)
    assert T.logsumexp(leaf([5.0])).data == pytest.approx(5.0, abs=0.0)
    big = T.logsumexp(leaf([1000.0, 1000.0])).data
    assert big == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
    with pytest.raises(NumericsError, match="empty reduction"):
        T.logsumexp(leaf(np.zeros(0)))


def test_logsumexp_bounds_property(rng):
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 9)) * rng.uniform(0.1, 50)
        out = float(T.logsumexp(leaf(x)).data)
        assert out >= float(np.max(x)) - 1e-12
        assert out <= float(np.max(x)) + math.log(len(x)) + 1e-12


def test_softmax_values():
    np.testing.assert_allclose(T.softmax(leaf([0.0, 0.0, 0.0])).data, np.full(3, 1 / 3), atol=1e-15)
    out = T.softmax(leaf([math.log(1), math.log(2), math.log(3)])).data
    np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-14)
    np.testing.assert_allclose(T.softmax(leaf([123.456])).data, [1.0], atol=0.0)


def test_softmax_shift_invariance(rng):
    for _ in range(30):
        x = rng.standard_normal(7)
        k = rng.uniform(-100, 100)
        a = T.softmax(leaf(x)).data
        b = T.softmax(leaf(x + k)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_elementwise_forward(rng):
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(T.relu(leaf(x)).data, np.maximum(x, 0))
    np.testing.assert_allclose(T.exp(leaf(x)).data, np.exp(x))
    np.testing.assert_allclose(T.clamp(leaf(x), -0.5, 0.5).data, np.clip(x, -0.5, 0.5))


def test_matmul_shapes(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    np.testing.assert_allclose(T.matmul(leaf(a), leaf(b)).data, a @ b)
    s3 = rng.standard_normal((2, 3, 4))
    t3 = rng.standard_normal((2, 4, 5))
    np.testing.assert_allclose(T.matmul(leaf(s3), leaf(t3)).data, s3 @ t3)
    # a vector operand, a stack against a matrix, or unequal batch dims
    v = rng.standard_normal(4)
    for x, y in ((v, b), (a, v), (v, v), (s3, b), (s3, rng.standard_normal((3, 4, 5)))):
        with pytest.raises(GraphError, match="batch dims"):
            T.matmul(leaf(x), leaf(y))


def test_structural_ops_forward(rng):
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(T.reshape(leaf(x), (3, 4)).data, x.reshape(3, 4))
    np.testing.assert_array_equal(T.transpose(leaf(x), (1, 0)).data, x.T)
    np.testing.assert_array_equal(T.narrow(leaf(x), 0, 1, 2).data, x[1:3])
    np.testing.assert_array_equal(T.concat([leaf(x), leaf(x)], axis=1).data, np.concatenate([x, x], axis=1))
    np.testing.assert_array_equal(T.segment_max(leaf(x), [1, 3]).data, [x[0], x[1:].max(axis=0)])
    np.testing.assert_array_equal(T.segment_mean(leaf(x), [3, 1]).data, [x[:3].mean(axis=0), x[3]])
    with pytest.raises(GraphError, match="segment lengths"):
        T.segment_max(leaf(x), [2, 1])
    with pytest.raises(GraphError, match="segment lengths"):
        T.segment_mean(leaf(x), [4, 0])


def test_embedding_lookup_and_bad_ids(rng):
    table = leaf(rng.standard_normal((6, 3)))
    out = T.embedding(table, [1, 4, 1])
    np.testing.assert_array_equal(out.data, table.data[[1, 4, 1]])
    with pytest.raises(GraphError):
        T.embedding(table, [6])
    with pytest.raises(GraphError):
        T.embedding(table, [-1])


def test_cross_entropy_matches_manual(rng):
    logits = rng.standard_normal((5, 7))
    targets = [3, 0, 6, 2, 2]
    got = float(T.cross_entropy(leaf(logits), targets).data)
    lsm = logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
    want = -math.fsum(lsm[i, t] for i, t in enumerate(targets))
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(GraphError):
        T.cross_entropy(leaf(logits), [0, 1])
    with pytest.raises(GraphError):
        T.cross_entropy(leaf(logits), [7, 0, 0, 0, 0])


def test_max_reduction_first_tie(rng):
    # each segment's gradient goes to its first maximum, column by column
    x = leaf([[1.0, 2.0], [3.0, 2.0], [3.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 5.0]])
    with T.Tape() as tape:
        loss = T.sum_(T.segment_max(x, [4, 2]))
        grads = tape.backward(loss, {"x": x})
    np.testing.assert_array_equal(grads["x"], [[0, 1], [1, 0], [0, 0], [0, 0], [1, 1], [0, 0]])


# ---------------------------------------------------------------------------
# tape discipline


def test_quadratic_gradient():
    w = leaf([1.0, 2.0])
    with T.Tape() as tape:
        loss = T.sum_(T.mul(w, w))
        grads = tape.backward(loss, {"w": w})
    np.testing.assert_allclose(grads["w"], [2.0, 4.0], atol=1e-15)


def test_logsumexp_gradient_is_softmax():
    w = leaf([0.0, 0.0])
    with T.Tape() as tape:
        loss = T.logsumexp(w)
        grads = tape.backward(loss, {"w": w})
    np.testing.assert_allclose(grads["w"], [0.5, 0.5], atol=1e-15)


def test_backward_returns_every_trainable_entry_and_only_those():
    w, unused = leaf([1.0, 2.0]), leaf([[3.0], [4.0]])
    frozen = T.Tensor([5.0, 6.0])
    with T.Tape() as tape:
        loss = T.sum_(T.mul(T.mul(w, w), frozen))
        grads = tape.backward(loss, {"w": w, "frozen": frozen, "unused": unused})
    assert list(grads) == ["w", "unused"]
    np.testing.assert_array_equal(grads["w"], [10.0, 24.0])
    np.testing.assert_array_equal(grads["unused"], np.zeros((2, 1)))
    assert grads["unused"].dtype == np.float64


def test_param_used_twice_sums_both_paths():
    # oracle: algebraically merged single-use form of the same function
    w = leaf([0.3, -0.7])
    with T.Tape() as tape:
        loss = T.add(T.sum_(T.mul(w, w)), T.sum_(T.mul(w, T.Tensor(np.array([2.0, 2.0])))))
        grads = tape.backward(loss, {"w": w})
    np.testing.assert_allclose(grads["w"], 2 * w.data + 2.0, atol=1e-15)


def test_leaf_grads_never_alias_a_shared_upstream_array():
    # add hands one upstream array to both of its inputs; a's first
    # contribution is that array, and accumulating a's second one into it
    # in place must not reach b
    a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
    weights = np.array([0.5, -1.0])
    with T.Tape() as tape:
        loss = T.add(T.sum_(T.mul(a, weights)), T.sum_(T.mul(T.add(a, b), weights)))
        grads = tape.backward(loss, {"a": a, "b": b})
    np.testing.assert_array_equal(grads["a"], 2 * weights)
    np.testing.assert_array_equal(grads["b"], weights)
    assert not np.shares_memory(grads["a"], grads["b"])
    np.testing.assert_array_equal(weights, [0.5, -1.0])
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    # one leaf reached twice by the same array
    c = leaf([1.0, -2.0])
    with T.Tape() as tape:
        grads = tape.backward(T.sum_(T.mul(T.add(c, c), weights)), {"c": c})
    np.testing.assert_array_equal(grads["c"], 2 * weights)


def test_tapes_do_not_nest():
    with T.Tape():
        with pytest.raises(GraphError, match="nest"):
            with T.Tape():
                pass


def test_backward_requires_scalar_on_tape():
    w = leaf([1.0, 2.0])
    with T.Tape() as tape:
        vec = T.mul(w, w)
        with pytest.raises(GraphError):
            tape.backward(vec, {"w": w})
    off_tape = leaf(3.0)
    with T.Tape() as tape:
        _ = T.sum_(T.mul(w, w))
        with pytest.raises(GraphError):
            tape.backward(off_tape, {"w": w})


def test_backward_frees_the_graph_and_runs_once():
    w = leaf([1.0, 2.0])
    with T.Tape() as tape:
        loss = T.sum_(T.mul(w, w))
        grads = tape.backward(loss, {"w": w})
        assert tape.nodes == []
        with pytest.raises(GraphError, match="already ran"):
            tape.backward(loss, {"w": w})
    np.testing.assert_array_equal(grads["w"], [2.0, 4.0])


def test_tape_keeps_no_op_output_alive(rng):
    # the affine output feeds only relu and add, whose backward_fns keep a
    # mask and shapes: once the caller drops it, nothing holds its array
    x, w, b = leaf(rng.standard_normal((4, 3))), leaf(rng.standard_normal((3, 5))), leaf(np.zeros(5))
    with T.Tape() as tape:
        pre = T.affine(x, w, b)
        freed = weakref.ref(pre.data)
        loss = T.sum_(T.mul(T.relu(pre) + 1.0, 2.0))
        del pre
        assert freed() is None
        grads = tape.backward(loss, {"b": b})
    np.testing.assert_array_equal(grads["b"], 2.0 * (x.data @ w.data > 0).sum(axis=0))


def test_no_tape_means_no_recording():
    w = leaf([1.0])
    out = T.mul(w, w)
    assert out._tape is None and out._node_id < 0


def test_nonfinite_output_names_offending_op():
    with pytest.raises(NumericsError, match="exp"):
        T.exp(leaf([1000.0]))


def test_finite_guard_passes_finite_values_whose_sum_overflows():
    big = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(T.mul(leaf(big), 1.0).data, big)
        np.testing.assert_array_equal(T.softmax(leaf(big)).data, [0.5, 0.5])


def test_finite_guard_raises_no_warning_when_a_finite_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(T.mul(T.Tensor([1e308, 1e308]), 1.0).data, [1e308, 1e308])


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [1e308, np.nan]])
def test_finite_guard_catches_any_nonfinite_value(bad):
    x = np.linspace(-1.0, 1.0, 9)
    x[2:2 + len(bad)] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="output of op 'mul'"):
            T.mul(leaf(x), 1.0)
        with pytest.raises(NumericsError, match="input to op 'softmax'"):
            T.softmax(leaf(x))


def test_deferred_checks_and_tapes_exclude_each_other():
    with T.Tape():
        with pytest.raises(GraphError, match="tape"):
            with T.deferred_checks():
                pass
    with T.deferred_checks():
        with pytest.raises(GraphError, match="tape"):
            with T.Tape():
                pass
    # closed again: ops check their outputs
    with pytest.raises(NumericsError, match="output of op 'mul'"):
        T.mul(leaf([np.inf]), 1.0)


def test_deferred_checks_skip_output_scans():
    with T.deferred_checks(), np.errstate(invalid="ignore"):
        assert np.isnan(T.mul(leaf([np.inf]), 0.0).data[0])
        # the input checks the ops make in any pass stay
        with pytest.raises(NumericsError, match="input to op 'softmax'"):
            T.softmax(leaf([np.nan, 1.0]))


# each op that can map a non-finite input to a finite output, on an
# input holding -inf at [0, 0]
HEALING_OPS = {
    "relu": lambda a: T.relu(a),
    "clamp": lambda a: T.clamp(a, -1.0, 1.0),
    "exp": lambda a: T.exp(a),
    "narrow": lambda a: T.narrow(a, 0, 1, 1),
    "embedding": lambda a: T.embedding(a, [1]),
    "segment_max": lambda a: T.segment_max(a, [2]),
    "lstm_seq": lambda a: T.lstm_seq(a, np.ones((3, 8)), np.ones((8, 2)), np.zeros(8),
                                     np.zeros((1, 2)), np.zeros((1, 2)), [2]),
}


@pytest.mark.parametrize("op", sorted(HEALING_OPS))
def test_deferred_checks_scan_the_inputs_a_finite_output_can_hide(op):
    x = leaf(np.arange(6.0).reshape(2, 3))
    x.data[0, 0] = -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert _all_finite(HEALING_OPS[op](x).data)  # no per-op check fires
        with T.deferred_checks():
            with pytest.raises(NumericsError, match=f"input to op '{op}'"):
                HEALING_OPS[op](x)


def test_dropout_semantics(rng):
    x = leaf(np.ones(1000))
    assert T.dropout(x, 0.0, rng) is x
    kept = T.dropout(x, 0.25, np.random.default_rng(3)).data
    assert set(np.unique(kept)) == {0.0, 1 / 0.75}
    assert abs(kept.mean() - 1.0) < 0.06
    a = T.dropout(x, 0.5, np.random.default_rng(9)).data
    b = T.dropout(x, 0.5, np.random.default_rng(9)).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# finite-difference checks on every op family


def test_gradcheck_elementwise(rng):
    p = {"w": leaf(rng.uniform(-0.8, 0.8, size=6))}

    def build():
        w = p["w"]
        out = T.add(T.exp(w), T.exp(T.neg(T.relu(w))))
        out = T.add(out, T.clamp(w, -0.5, 0.5))
        return T.sum_(T.mul(out, out))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_matmul_affine(rng):
    p = {
        "x": leaf(rng.standard_normal((3, 4))),
        "w": leaf(rng.standard_normal((4, 2))),
        "b": leaf(rng.standard_normal(2)),
    }

    def build():
        return T.sum_(T.exp(T.affine(p["x"], p["w"], p["b"])))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_affine_stacked_input(rng):
    p = {
        "x": leaf(rng.standard_normal((2, 3, 4))),
        "w": leaf(rng.standard_normal((4, 2))),
        "b": leaf(rng.standard_normal(2)),
    }

    def build():
        return T.sum_(T.exp(T.affine(p["x"], p["w"], p["b"])))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_batched_matmul(rng):
    p = {
        "a": leaf(rng.standard_normal((2, 3, 4)) * 0.5),
        "b": leaf(rng.standard_normal((2, 4, 3)) * 0.5),
    }

    def build():
        return T.sum_(T.exp(T.matmul(p["a"], p["b"])))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_broadcast_add_mul(rng):
    p = {
        "m": leaf(rng.standard_normal((3, 4))),
        "v": leaf(rng.standard_normal(4)),
        "s": leaf(rng.standard_normal(())),
    }

    def build():
        out = T.add(p["m"], p["v"])
        out = T.mul(out, p["s"])
        return T.sum_(T.segment_mean(T.mul(out, out), [1, 2]))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_reductions_and_structure(rng):
    p = {"x": leaf(rng.standard_normal((4, 3)))}

    def build():
        x = p["x"]
        a = T.reshape(T.segment_max(x, [3, 1]), (6,))
        b = T.sum_(x, axis=1)
        c = T.narrow(T.transpose(x, (1, 0)), 0, 1, 2)
        top = T.concat([a, b], axis=0)
        return T.add(T.sum_(T.mul(top, top)), T.sum_(T.segment_mean(T.mul(c, c), [2])))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_softmax_family(rng):
    p = {"x": leaf(rng.standard_normal(6))}

    def build():
        x = p["x"]
        probs = T.softmax(x)
        return T.add(T.sum_(T.mul(probs, T.log_softmax(x))), T.logsumexp(x))

    assert grad_of(build, p) < 1e-6


def test_gradcheck_embedding_layernorm_ce(rng):
    p = {
        "emb": leaf(rng.standard_normal((8, 5))),
        "g": leaf(rng.uniform(0.5, 1.5, size=5)),
        "b": leaf(rng.standard_normal(5)),
        "w": leaf(rng.standard_normal((5, 4))),
    }

    def build():
        h = T.embedding(p["emb"], [2, 7, 2, 0])
        h = T.layer_norm(h, p["g"], p["b"])
        return T.cross_entropy(T.matmul(h, p["w"]), [1, 0, 3, 2])

    assert grad_of(build, p) < 1e-6


def test_gradcheck_lstm_seq(rng):
    H, D, n = 5, 4, 6
    p = {
        "x": leaf(rng.standard_normal((n, D)) * 0.5),
        "wx": leaf(rng.standard_normal((D, 4 * H)) * 0.3),
        "whT": leaf(rng.standard_normal((4 * H, H)) * 0.3),
        "b": leaf(rng.standard_normal(4 * H) * 0.1),
        "h0": leaf(rng.standard_normal((1, H)) * 0.2),
        "c0": leaf(rng.standard_normal((1, H)) * 0.2),
    }

    for reverse in (False, True):
        def build():
            hs = T.lstm_seq(p["x"], p["wx"], p["whT"], p["b"], p["h0"], p["c0"], [n], reverse)
            return T.sum_(T.mul(hs, hs))

        assert grad_of(build, p) < 1e-6


def test_gradcheck_stacked_sequence_ops(rng):
    # the (B, n) forms: 2-D ids, a (B, T, V) cross-entropy, an LSTM over
    # the stack's rows back to back fed each sequence's z at every step,
    # gathered by embedding as the lstm decoder does
    B, T_, V, E, H = 3, 4, 6, 3, 2
    p = {
        "emb": leaf(rng.standard_normal((V, E)) * 0.5),
        "z": leaf(rng.standard_normal((B, 2))),
        "wx": leaf(rng.standard_normal((E + 2, 4 * H)) * 0.3),
        "whT": leaf(rng.standard_normal((4 * H, H)) * 0.3),
        "b": leaf(rng.standard_normal(4 * H) * 0.1),
        "h0": leaf(rng.standard_normal((B, H)) * 0.2),
        "w": leaf(rng.standard_normal((H, V))),
    }
    ids = rng.integers(0, V, size=(B, T_))
    targets = rng.integers(0, V, size=(B, T_))

    def build():
        z_rows = T.embedding(p["z"], np.repeat(np.arange(B), T_).reshape(B, T_))
        x = T.concat([T.embedding(p["emb"], ids), z_rows], axis=2)
        rows = T.reshape(x, (B * T_, E + 2))
        hs = T.lstm_seq(rows, p["wx"], p["whT"], p["b"], p["h0"], T.mul(p["h0"], 0.5), [T_] * B)
        hs = T.reshape(hs, (B, T_, H))
        return T.cross_entropy(T.affine(hs, p["w"], T.Tensor(np.zeros(V))), targets)

    assert grad_of(build, p) < 1e-6


def test_stacked_lstm_seq_equals_per_sequence_calls(rng):
    # sequences of unequal length back to back, in both directions
    lengths, D, H = [5, 2, 5, 1], 4, 3
    B, N = len(lengths), sum(lengths)
    starts = np.cumsum(lengths) - lengths
    p = {
        "x": leaf(rng.standard_normal((N, D))),
        "wx": leaf(rng.standard_normal((D, 4 * H)) * 0.3),
        "whT": leaf(rng.standard_normal((4 * H, H)) * 0.3),
        "b": leaf(rng.standard_normal(4 * H) * 0.1),
        "h0": leaf(rng.standard_normal((B, H))),
        "c0": leaf(rng.standard_normal((B, H))),
    }
    weights = rng.standard_normal((N, H))

    def grads(build):
        with T.Tape() as tape:
            loss = build()
            return float(loss.data), tape.backward(loss, p)

    for reverse in (False, True):
        def stacked():
            hs = T.lstm_seq(p["x"], p["wx"], p["whT"], p["b"], p["h0"], p["c0"], lengths, reverse)
            return T.sum_(T.mul(hs, weights))

        def rows():
            total = 0.0
            for i, (start, n) in enumerate(zip(starts, lengths)):
                x = T.narrow(p["x"], 0, start, n)
                h0, c0 = (T.narrow(p[k], 0, i, 1) for k in ("h0", "c0"))
                hs = T.lstm_seq(x, p["wx"], p["whT"], p["b"], h0, c0, [n], reverse)
                total = T.add(total, T.sum_(T.mul(hs, weights[start:start + n])))
            return total

        loss_s, grad_s = grads(stacked)
        loss_r, grad_r = grads(rows)
        assert loss_s == pytest.approx(loss_r, rel=1e-12)
        for k in p:
            np.testing.assert_allclose(grad_s[k], grad_r[k], rtol=1e-12, atol=1e-14, err_msg=k)


@pytest.mark.parametrize("reverse", [False, True])
def test_packed_layout_of_one_sequence_is_its_rows(reverse):
    src, order, batch_sizes, prev = T._packed_layout([6], 6, reverse)
    rows = np.arange(6)
    np.testing.assert_array_equal(src, rows[::-1] if reverse else rows)
    np.testing.assert_array_equal(order, [0])
    np.testing.assert_array_equal(batch_sizes, np.ones(6))
    np.testing.assert_array_equal(prev, rows[:-1])


def test_lstm_seq_rejects_bad_lengths_and_states(rng):
    x = leaf(rng.standard_normal((5, 2)))
    wx, whT, b = leaf(np.zeros((2, 8))), leaf(np.zeros((8, 2))), leaf(np.zeros(8))
    h0 = leaf(np.zeros((2, 2)))
    with pytest.raises(GraphError, match="segment lengths"):
        T.lstm_seq(x, wx, whT, b, h0, h0, [3, 3])
    with pytest.raises(GraphError, match="segment lengths"):
        T.lstm_seq(x, wx, whT, b, h0, h0, [5, 0])
    with pytest.raises(GraphError, match="initial states"):
        T.lstm_seq(x, wx, whT, b, h0, h0, [5])


def test_gradcheck_concat_and_repeated_rows(rng):
    p = {"v": leaf(rng.standard_normal(4)), "u": leaf(rng.standard_normal(4))}

    def build():
        v, u = T.reshape(p["v"], (1, 4)), T.reshape(p["u"], (1, 4))
        m = T.concat([v, u, v], axis=0)
        r = T.embedding(u, [0, 0, 0])  # u repeated in 3 rows
        return T.sum_(T.mul(T.add(m, r), T.add(m, r)))

    assert grad_of(build, p) < 1e-6


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradcheck_ops_over_random_shapes(shape, data, seed):
    # the partner of a binary op drops some leading axes and cuts some of
    # the rest to size 1, so every broadcast the models rely on is drawn
    ndim, d = len(shape), shape[-1]
    kept = shape[data.draw(st.integers(0, ndim)):]
    other = tuple(1 if data.draw(st.booleans()) else n for n in kept)
    axis = data.draw(st.integers(-ndim, ndim - 1))
    d_out = data.draw(st.integers(1, 3))
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    n_rows = sum(lengths)
    x, y = leaf(rng.standard_normal(shape)), leaf(rng.standard_normal(other))
    w, b = leaf(rng.standard_normal((d, d_out))), leaf(rng.standard_normal(d_out))
    gain, bias = leaf(rng.standard_normal(d)), leaf(rng.standard_normal(d))
    # distinct values 0.5 apart: no segment_max tie within the step
    seg = leaf(rng.permutation(n_rows * d).reshape(n_rows, d) * 0.5 + rng.uniform(0, 0.1, (n_rows, d)))

    def weighted(out):
        # a fixed weight per output entry, so no gradient cancels by symmetry
        weights = np.random.default_rng(seed + 1).standard_normal(out.shape)
        return T.sum_(T.mul(out, weights))

    cases = {
        "add": (lambda: weighted(T.add(x, y)), [x, y]),
        "sub": (lambda: weighted(T.sub(y, x)), [x, y]),
        "mul": (lambda: weighted(T.mul(x, y)), [x, y]),
        "affine": (lambda: weighted(T.affine(x, w, b)), [x, w, b]),
        "softmax": (lambda: weighted(T.softmax(x, axis=axis)), [x]),
        "log_softmax": (lambda: weighted(T.log_softmax(x, axis=axis)), [x]),
        "logsumexp": (lambda: weighted(T.logsumexp(x, axis=axis)), [x]),
        "sum_": (lambda: weighted(T.sum_(x, axis=axis)), [x]),
        "layer_norm": (lambda: weighted(T.layer_norm(x, gain, bias)), [x, gain, bias]),
        "segment_mean": (lambda: weighted(T.segment_mean(seg, lengths)), [seg]),
        "segment_max": (lambda: weighted(T.segment_max(seg, lengths)), [seg]),
    }
    for op, (build, params) in cases.items():
        err = grad_of(build, {str(i): p for i, p in enumerate(params)})
        assert err < 1e-5, (op, shape, other, axis, err)


# ---------------------------------------------------------------------------
# factored next-token log-likelihood


def factored_inputs(rng, lengths, n_rows, n_cols, n_vocab, scale):
    p = {
        "base": leaf(rng.standard_normal((sum(lengths), n_vocab)) * scale),
        "rows": leaf(rng.standard_normal((len(lengths), n_rows, n_vocab)) * scale),
        "cols": leaf(rng.standard_normal((n_cols, n_vocab)) * scale),
    }
    return p, rng.integers(0, n_vocab, size=sum(lengths))


def naive_factored(base, rows, cols, targets, lengths):
    """Entry by entry and step by step: out[s, i, j] sums, over the steps t
    of segment s, log softmax(base[t] + rows[s, i] + cols[j])[targets[t]]."""
    out = np.zeros((len(lengths), rows.shape[1], cols.shape[0]))
    start = 0
    for s, n in enumerate(lengths):
        for i in range(rows.shape[1]):
            for j in range(cols.shape[0]):
                for t in range(start, start + n):
                    logits = base[t] + rows[s, i] + cols[j]
                    top = logits.max()
                    out[s, i, j] += logits[targets[t]] - top - math.log(np.exp(logits - top).sum())
        start += n
    return out


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 7)),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    forced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_loglik_matches_direct_reference(lengths, dims, scale, forced, seed):
    # scale 1e3 spreads the tilts past the factored normaliser's underflow
    # limit, so both the factored path and the direct fallback are drawn;
    # forced takes the fallback at every scale
    rng = np.random.default_rng(seed)
    p, targets = factored_inputs(rng, lengths, *dims, scale)
    weights = rng.standard_normal((len(lengths),) + dims[:2])
    want = naive_factored(p["base"].data, p["rows"].data, p["cols"].data, targets, lengths)

    def build():
        out = T.factored_loglik(p["base"], p["rows"], p["cols"], targets, lengths)
        return T.sum_(T.mul(out, weights))

    tiny = T._FACTORED_TINY
    if forced:
        T._FACTORED_TINY = math.inf
    try:
        got = T.factored_loglik(p["base"], p["rows"], p["cols"], targets, lengths).data
        assert got.shape == want.shape == (len(lengths),) + dims[:2]
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
        assert grad_of(build, p) < 1e-5
    finally:
        T._FACTORED_TINY = tiny


def test_factored_loglik_falls_back_when_normaliser_underflows(monkeypatch):
    calls = []
    direct = T._direct_loglik
    monkeypatch.setattr(T, "_direct_loglik", lambda *a: calls.append(a) or direct(*a))
    # base, row and column peak on different words 1000 nats apart, so every
    # factored term underflows, while each logit of the sum is -2000
    p = {
        "base": leaf([[0.0, -1e3, -1e3], [0.0, -1e3, -1e3]]),
        "rows": leaf([[[-1e3, 0.0, -1e3]]]),
        "cols": leaf([[-1e3, -1e3, 0.0]]),
    }
    out = T.factored_loglik(p["base"], p["rows"], p["cols"], [0, 2], [2])
    assert len(calls) == 1
    np.testing.assert_allclose(out.data, [[[-2.0 * math.log(3.0)]]], rtol=1e-14)
    build = lambda: T.sum_(T.factored_loglik(p["base"], p["rows"], p["cols"], [0, 2], [2]))
    assert grad_of(build, p) < 1e-6


def test_factored_loglik_rejects_bad_shapes_and_targets(rng):
    p, targets = factored_inputs(rng, [1, 3], 2, 3, 5, 1.0)
    with pytest.raises(GraphError, match=r"all in \[0, 5\)"):
        T.factored_loglik(p["base"], p["rows"], p["cols"], [0, 1, 2, 5], [1, 3])
    with pytest.raises(GraphError, match="targets of shape"):
        T.factored_loglik(p["base"], p["rows"], p["cols"], targets[:3], [1, 3])
    with pytest.raises(GraphError, match="widths differ"):
        T.factored_loglik(p["base"], p["rows"], leaf(np.zeros((3, 4))), targets, [1, 3])
    with pytest.raises(GraphError, match="segment lengths"):
        T.factored_loglik(p["base"], p["rows"], p["cols"], targets, [2, 3])
    with pytest.raises(GraphError, match="3 segments but rows"):
        T.factored_loglik(p["base"], p["rows"], p["cols"], targets, [1, 1, 2])
