import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def test_checked_skips_output_scans():
    # a finite pass runs once, and no op scans its output inside it
    seen = []

    def fn(x):
        seen.append(T.mul(leaf([np.inf]), 1.0).data[0])
        return T.mul(x, 2.0)

    np.testing.assert_array_equal(T.checked(fn, leaf([1.0, 2.0])).data, [2.0, 4.0])
    assert seen == [np.inf]
    # a non-finite result is replayed with per-op checks, which name the op
    seen.clear()
    with pytest.raises(NumericsError, match="output of op 'mul'"):
        T.checked(lambda x: T.mul(fn(x), np.inf), leaf([1.0, 2.0]))
    assert len(seen) == 1  # the replay stopped at fn's first op
    # the input checks the ops make in any pass stay
    with pytest.raises(NumericsError, match="input to op 'softmax'"):
        T.checked(T.softmax, leaf([np.nan, 1.0]))


def test_checked_replays_a_floating_point_error_with_numpys_handling():
    # the attempt raises on the overflow; the replay warns as a per-op pass
    # does, then its output check names the op
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericsError, match="output of op 'mul'"):
            T.checked(T.mul, leaf([1e308]), 10.0)


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
    "bilstm_seq": lambda a: T.bilstm_seq(a, (np.ones((3, 8)), np.ones((8, 2)), np.zeros(8)),
                                         (np.ones((3, 8)), np.ones((8, 2)), np.zeros(8)), [2]),
}
# the LSTM ops check their input projection, where the input's -inf shows
# before the saturated gates hide it
PROJECTING_OPS = ("bilstm_seq", "lstm_seq")


def _outcome(fn, *args):
    """fn(*args)'s output bytes, or the message of its NumericsError."""
    try:
        return fn(*args).data.tobytes()
    except NumericsError as err:
        return str(err)


@pytest.mark.parametrize("op", sorted(HEALING_OPS))
def test_checked_scans_the_inputs_a_finite_output_can_hide(op):
    x = leaf(np.arange(6.0).reshape(2, 3))
    x.data[0, 0] = -np.inf
    calls = []

    def fn(a):
        calls.append(a)
        return HEALING_OPS[op](a)

    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(HEALING_OPS[op], x)
        if op in PROJECTING_OPS:
            assert want == f"non-finite values in output of op '{op}'"
        else:
            assert isinstance(want, bytes)  # no per-op check fires
        got = _outcome(T.checked, fn, x)
    # the input scan failed the attempt, and the replay is the per-op pass
    assert len(calls) == 2
    assert got == want


def test_checked_drops_a_failed_attempts_nodes_from_the_tape():
    w = leaf([0.5, -1.0, 2.0])
    # a constant no per-op check reads, but exp's input scan does
    gate = T.Tensor([-np.inf, 0.0, 1.0])

    def fn():
        return T.sum_(T.mul(T.mul(w, w), T.exp(gate)))

    counts, grads = [], []
    for through in (T.checked, lambda f: f()):
        with T.Tape() as tape:
            before = T.sum_(T.mul(w, 3.0))
            loss = before + through(fn)
            counts.append(len(tape.nodes))
            grads.append(tape.backward(loss, {"w": w})["w"])
    assert counts[0] == counts[1] == 6
    assert grads[0].tobytes() == grads[1].tobytes()


def test_checked_passes_do_not_nest():
    with pytest.raises(GraphError, match="do not nest"):
        T.checked(T.checked, T.mul, leaf([1.0]), 2.0)
    # closed again: ops check their outputs
    with pytest.raises(NumericsError, match="output of op 'mul'"):
        T.mul(leaf([np.inf]), 1.0)


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
    src, order, batch_sizes, prev = T._packed_layout([6], 6, reverse, "lstm_seq")
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


@pytest.mark.parametrize("op", ["lstm_seq", "bilstm_seq"])
def test_lstm_ops_name_themselves_on_bad_lengths(rng, op):
    x = leaf(rng.standard_normal((5, 2)))
    wx, whT, b = leaf(np.zeros((2, 8))), leaf(np.zeros((8, 2))), leaf(np.zeros(8))
    h0 = leaf(np.zeros((2, 2)))
    with pytest.raises(GraphError, match=f"^{op} needs segment lengths"):
        if op == "lstm_seq":
            T.lstm_seq(x, wx, whT, b, h0, h0, [3, 3])
        else:
            T.bilstm_seq(x, (wx, whT, b), (wx, whT, b), [3, 3])


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


# ---------------------------------------------------------------------------
# rewritten ops against their reference expressions, bit for bit

# Each op below was rewritten onto numpy's fast paths. REFERENCES holds the
# plain numpy expressions it replaced: name -> (op, reference). op takes
# the input tensors and keyword arguments; reference takes the input arrays
# and the same keywords and returns (output, backward), backward mapping the
# upstream gradient to one gradient per input.


def _ref_relu(a):
    mask = a > 0
    return np.where(mask, a, 0.0), lambda g: (g * mask,)


def _ref_clamp(a, lo, hi):
    inside = (a >= lo) & (a <= hi)
    return np.clip(a, lo, hi), lambda g: (g * inside,)


def _ref_dropout(a, p, seed):
    keep = (np.random.default_rng(seed).random(a.shape) >= p) / (1.0 - p)
    return a * keep, lambda g: (g * keep,)


def _ref_softmax(a, axis):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return out, lambda g: (out * (g - (g * out).sum(axis=axis, keepdims=True)),)


def _ref_log_softmax(a, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return out, lambda g: (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)


def _ref_logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    soft = np.exp(a - out)
    return out.squeeze(axis=axis), lambda g: (soft * np.expand_dims(g, axis),)


def _ref_cross_entropy(logits, targets):
    rows = logits.reshape(-1, logits.shape[-1])
    picks = (np.arange(rows.shape[0]), targets.reshape(-1))
    shifted = rows - rows.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(g):
        grad = np.exp(logp)
        grad[picks] -= 1.0
        grad *= g
        return (grad.reshape(logits.shape),)

    return -logp[picks].sum(), backward


def _ref_affine(x, w, b):
    x2 = x.reshape(-1, x.shape[-1])
    out = (np.matmul(x2, w) + b).reshape(x.shape[:-1] + w.shape[1:])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return np.matmul(g2, w.T).reshape(x.shape), np.matmul(x2.T, g2), g2.sum(axis=0)

    return out, backward


def _ref_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv

    def backward(g):
        dxhat = g * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        axes = tuple(range(g.ndim - 1))
        return (dxhat - m1 - xhat * m2) * inv, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return xhat * gain + bias, backward


def _ref_transpose(a, axes):
    out = np.ascontiguousarray(np.transpose(a, axes))
    return out, lambda g: (np.transpose(g, tuple(np.argsort(axes))),)


def _ref_add(a, b):
    return a + b, lambda g: (T._unbroadcast(g, a.shape), T._unbroadcast(g, b.shape))


def _ref_sub(a, b):
    return a - b, lambda g: (T._unbroadcast(g, a.shape), -T._unbroadcast(g, b.shape))


def _ref_mul(a, b):
    return a * b, lambda g: (T._unbroadcast(g * b, a.shape), T._unbroadcast(g * a, b.shape))


REFERENCES = {
    "relu": (T.relu, _ref_relu),
    "clamp": (T.clamp, _ref_clamp),
    "dropout": (lambda a, p, seed: T.dropout(a, p, np.random.default_rng(seed)), _ref_dropout),
    "softmax": (T.softmax, _ref_softmax),
    "log_softmax": (T.log_softmax, _ref_log_softmax),
    "logsumexp": (T.logsumexp, _ref_logsumexp),
    "cross_entropy": (T.cross_entropy, _ref_cross_entropy),
    "affine": (T.affine, _ref_affine),
    "layer_norm": (T.layer_norm, _ref_layer_norm),
    "transpose": (T.transpose, _ref_transpose),
    "add": (T.add, _ref_add),
    "sub": (T.sub, _ref_sub),
    "mul": (T.mul, _ref_mul),
}

# signed zeros, subnormals, values whose squares or products overflow, and
# ordinary values
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                1e300, -1e300, 1e154, 1.0, -1.0)
_ELEMENTS = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-1e3, 1e3))


@st.composite
def _rewritten_op_case(draw, name):
    """(input arrays, keyword arguments) of one call of a rewritten op."""
    dims = st.integers(1, 4)

    def arr(shape):
        return draw(hnp.arrays(np.float64, shape, elements=_ELEMENTS))

    shape = tuple(draw(st.lists(dims, min_size=1, max_size=3)))
    if name == "relu":
        return [arr(shape)], {}
    if name == "clamp":
        return [arr(shape)], {"lo": -1.0, "hi": draw(st.sampled_from((0.0, 1.0)))}
    if name == "dropout":
        return [arr(shape)], {"p": draw(st.sampled_from((0.1, 0.5))), "seed": draw(st.integers(0, 9))}
    if name in ("softmax", "log_softmax", "logsumexp"):
        return [arr(shape)], {"axis": draw(st.integers(-1, len(shape) - 1))}
    if name == "cross_entropy":
        targets = draw(hnp.arrays(np.int64, shape[:-1], elements=st.integers(0, shape[-1] - 1)))
        return [arr(shape)], {"targets": targets}
    if name == "affine":
        d_in, d_out = draw(dims), draw(dims)
        return [arr(shape + (d_in,)), arr((d_in, d_out)), arr((d_out,))], {}
    if name == "layer_norm":
        return [arr(shape), arr(shape[-1:]), arr(shape[-1:])], {}
    if name == "transpose":
        return [arr(shape)], {"axes": tuple(draw(st.permutations(range(len(shape)))))}
    # add, sub, mul: the second operand broadcasts (a scalar, a row, a
    # column or the full shape)
    other = draw(st.sampled_from(((), shape[-1:], shape[:-1] + (1,), shape)))
    return [arr(shape), arr(other)], {}


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", sorted(REFERENCES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rewritten_ops_give_their_references_bits(name, data):
    op, reference = REFERENCES[name]
    arrays, kwargs = data.draw(_rewritten_op_case(name))
    inputs = [a.copy() for a in arrays]
    with np.errstate(all="ignore"):
        want, want_backward = reference(*arrays, **kwargs)
        want = np.asarray(want)
        if not np.isfinite(want).all():
            # the per-op pass rejects what the reference overflows to
            with pytest.raises(NumericsError, match=f"op '{name}'"):
                op(*map(leaf, inputs), **kwargs)
            return
        with T.Tape() as tape:
            out = op(*map(leaf, inputs), **kwargs)
            g = data.draw(hnp.arrays(np.float64, out.shape, elements=_ELEMENTS))
            g_in = g.copy()
            got_grads = tape.nodes[out._node_id][1](g)
        _same_bits(out.data, want)
        want_grads = want_backward(g)
    assert len(got_grads) == len(want_grads)
    for got, expected in zip(got_grads, want_grads):
        _same_bits(np.asarray(got), np.asarray(expected))
    # the in-place updates touch only arrays the op made
    for a, before in zip(inputs, arrays):
        assert a.tobytes() == before.tobytes()
    assert g.tobytes() == g_in.tobytes()


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
def test_arithmetic_gives_no_gradient_for_a_constant_input(op, rng):
    x, mask = rng.standard_normal((2, 3, 4)), rng.standard_normal((1, 4))
    for a, b in ((leaf(x), T.Tensor(mask)), (T.Tensor(mask), leaf(x))):
        with T.Tape() as tape:
            out = op(a, b)
            g = rng.standard_normal(out.shape)
            got = tape.nodes[out._node_id][1](g)
        want = REFERENCES[op.__name__][1](a.data, b.data)[1](g)
        for t, grad, expected in zip((a, b), got, want):
            if t.requires_grad:
                _same_bits(grad, expected)
            else:
                assert grad is None
