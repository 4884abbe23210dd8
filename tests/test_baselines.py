import math

import numpy as np
import pytest

from sevae import baselines as B
from sevae import kernels
from sevae import tensor as T
from sevae.data import SEType
from sevae.gradcheck import check_gradients

VOCAB = 14
UNIFORM = np.full(7, 1 / 7)


def tilted_prior():
    p = np.array([0.30, 0.05, 0.20, 0.10, 0.15, 0.08, 0.12])
    return p / p.sum()


def disc(rng, **kw):
    return B.DiscModel(VOCAB, UNIFORM, rng, embed_dim=kw.get("e", 6), hidden_dim=kw.get("h", 5))


def gen(rng, prior=UNIFORM):
    return B.ClassLMModel(VOCAB, prior, rng, embed_dim=6, hidden_dim=5)


def lat(rng, prior=UNIFORM, c=3):
    return B.LatentClassLMModel(VOCAB, prior, rng, embed_dim=6, hidden_dim=5, n_latent=c)


def ctx(rng):
    return B.CtxModel(VOCAB, UNIFORM, rng, embed_dim=5, hidden_dim=6)


def np_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def np_lstm_states(params, name, ids, hidden):
    emb = params["emb"].data[np.asarray(ids, dtype=np.int64)]
    xw = emb @ params[f"{name}.wx"].data + params[f"{name}.b"].data
    steps = np.ones(xw.shape[0], dtype=np.int64)
    hs, _, _ = kernels.lstm_forward(xw, params[f"{name}.whT"].data,
                                       np.zeros((1, hidden)), np.zeros((1, hidden)), steps)
    return hs


# ---------------------------------------------------------------------------
# discriminative baseline


def test_disc_probs_match_numpy_oracle(rng):
    m = disc(rng)
    ids = [5, 9, 7, 11]
    got = m.predict_probs(ids)
    hs = np_lstm_states(m.params, "lstm", ids, 5)
    logits = hs.mean(axis=0) @ m.params["out.w"].data + m.params["out.b"].data
    np.testing.assert_allclose(got, np.exp(np_log_softmax(logits)), atol=1e-12)
    assert math.fsum(got.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_disc_zeroed_head_uniform_and_ln7(rng):
    m = disc(rng)
    m.params["out.w"].data[...] = 0.0
    m.params["out.b"].data[...] = 0.0
    for ids in ([5], [6, 7], [13, 12, 11]):
        np.testing.assert_allclose(m.predict_probs(ids), UNIFORM, atol=1e-15)
        loss, _ = m.loss(ids, SEType.GENERIC)
        assert float(loss.data) == pytest.approx(math.log(7.0), rel=1e-15)


def test_prior_param_is_frozen(rng):
    for m in (disc(rng), gen(rng), lat(rng)):
        assert not m.params["prior"].requires_grad


# ---------------------------------------------------------------------------
# class-conditional language model


def test_gen_joint_scores_match_tape_logliks(rng):
    m = gen(rng, tilted_prior())
    ids = [5, 9, 7]
    scores = m.joint_scores([ids])[0]
    for y in range(7):
        want = -float(m.loss(ids, y)[0].data) + math.log(m.params["prior"].data[y])
        assert scores[y] == pytest.approx(want, rel=1e-10)


def test_gen_label_tilt_is_order_blind(rng):
    # the label enters only as a position-independent tilt on the output
    # logits; with the shared LSTM contribution removed, the per-label score
    # is a pure bag-of-tokens quantity, so reordering a clause cannot move it
    m = gen(rng)
    m.params["out.wh"].data[...] = 0.0
    m.params["out.b"].data[...] = 0.0
    a, b = m.joint_scores([[5, 9, 7, 12], [12, 7, 9, 5]])
    np.testing.assert_allclose(a, b, atol=1e-10)
    assert np.argmax(m.predict_probs([5, 9, 7, 12])) == np.argmax(m.predict_probs([12, 7, 9, 5]))


def test_gen_zeroed_emission_predicts_prior_argmax(rng):
    prior = tilted_prior()
    m = gen(rng, prior)
    for name in ("out.wh", "out.wy", "out.b"):
        m.params[name].data[...] = 0.0
    assert np.argmax(m.predict_probs([5, 6, 7])) == np.argmax(prior)


def test_gen_tie_breaks_to_lowest_code(rng):
    m = gen(rng)
    for name in ("out.wh", "out.wy", "out.b"):
        m.params[name].data[...] = 0.0
    # uniform prior + label-independent likelihood -> all scores equal
    scores = m.joint_scores([[5, 6]])[0]
    np.testing.assert_allclose(scores, scores[0], atol=1e-12)
    assert np.argmax(m.predict_probs([5, 6])) == int(SEType.STATE)


def test_gen_probs_normalized(rng):
    m = gen(rng, tilted_prior())
    probs = m.predict_probs([5, 9, 13])
    assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0)


# ---------------------------------------------------------------------------
# latent-variable generative model


def naive_marginal(m, ids, label):
    """Third implementation: plain numpy forward, linear-space sum over c."""
    p = m.params
    inputs = np.concatenate(([2], ids))
    targets = np.concatenate((ids, [3]))
    hs = np_lstm_states(p, "lstm", inputs, m.hidden_dim)
    base = hs @ p["out.wh"].data + p["out.b"].data + p["lab_emb"].data[label] @ p["out.wy"].data
    lat_scores = (p["lat_w"].data * p["lat_emb"].data).sum(axis=1) + p["lat_b"].data
    log_pc = np_log_softmax(lat_scores)
    weights = []
    for c in range(m.n_latent):
        logits = base + p["lat_emb"].data[c] @ p["out.wc"].data
        lsm = np_log_softmax(logits)
        loglik = math.fsum(lsm[i, t] for i, t in enumerate(targets))
        weights.append(math.exp(loglik + log_pc[c]))
    return math.log(math.fsum(weights)) + math.log(p["prior"].data[label])


def test_lat_marginal_matches_naive_linear_sum(rng):
    for trial in range(10):
        m = lat(np.random.default_rng(trial), tilted_prior(), c=int(rng.integers(1, 6)))
        ids = [int(x) for x in rng.integers(5, VOCAB, size=rng.integers(1, 6))]
        label = int(rng.integers(0, 7))
        got = -float(m.loss(ids, label)[0].data)
        assert got == pytest.approx(naive_marginal(m, ids, label), abs=1e-9)


def test_lat_joint_scores_match_marginal(rng):
    m = lat(rng, tilted_prior(), c=4)
    ids = [5, 9, 7]
    scores = m.joint_scores([ids])[0]
    for y in range(7):
        assert scores[y] == pytest.approx(-float(m.loss(ids, y)[0].data), abs=1e-9)


def test_lat_latent_prior(rng):
    m = lat(rng, c=5)
    log_pc = m.latent_log_prior().data
    scores = (m.params["lat_w"].data * m.params["lat_emb"].data).sum(axis=1) + m.params["lat_b"].data
    np.testing.assert_allclose(log_pc, np_log_softmax(scores), atol=1e-12)
    assert math.fsum(np.exp(log_pc).tolist()) == pytest.approx(1.0, abs=1e-12)

    m.params["lat_w"].data[...] = 0.0
    m.params["lat_b"].data[...] = 0.0
    np.testing.assert_allclose(np.exp(m.latent_log_prior().data), np.full(5, 0.2), atol=1e-15)

    single = lat(rng, c=1)
    np.testing.assert_allclose(np.exp(single.latent_log_prior().data), [1.0], atol=0)


def test_lat_loss_records_at_most_20_tape_nodes(rng):
    # one factored_loglik node covers all 30 latent values
    m = lat(rng, c=30)
    for ids in ([5], [5, 9, 7, 11, 13, 6, 8]):
        with T.Tape() as tape:
            m.loss(ids, SEType.REPORT)
        assert len(tape.nodes) <= 20


def test_lat_zeroed_emission_predicts_prior_argmax(rng):
    prior = tilted_prior()
    m = lat(rng, prior, c=3)
    for name in ("out.wh", "out.wy", "out.wc", "out.b"):
        m.params[name].data[...] = 0.0
    assert np.argmax(m.predict_probs([5, 6, 7])) == np.argmax(prior)


# ---------------------------------------------------------------------------
# context-aware baseline


def test_ctx_paragraph_shapes(rng):
    m = ctx(rng)
    logits = m._logits([[[5, 6, 7], [8, 9], [10]]])
    assert logits.data.shape == (3, 7)
    single = m._logits([[[5]]])
    assert single.data.shape == (1, 7)
    probs = m.predict_paragraph_probs([[5, 6], [7]])
    assert probs.shape == (2, 7)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(2), atol=1e-12)


def test_ctx_uses_neighboring_clauses(rng):
    m = ctx(rng)
    a = m._logits([[[5, 6], [7, 8]]]).data
    b = m._logits([[[5, 6], [9, 8]]]).data
    # changing a neighbor changes this clause's logits through shared context
    assert not np.allclose(a[0], b[0])


def test_ctx_paragraph_loss_parts(rng):
    m = ctx(rng)
    loss, parts = m.paragraph_loss([[5, 6], [7]], [SEType.STATE, SEType.EVENT])
    assert np.isfinite(loss.data)
    assert parts["classification"] == pytest.approx(float(loss.data))


# ---------------------------------------------------------------------------
# shared gradient contract


def test_all_baselines_pass_gradcheck(rng):
    probes = np.random.default_rng(7)
    ids = [5, 9, 7]

    m = disc(rng)
    errs = check_gradients(lambda: m.loss(ids, SEType.EVENT)[0], m.params,
                           max_entries=4, rng=probes)
    assert max(errs.values()) < 1e-4

    g = gen(rng)
    errs = check_gradients(lambda: g.loss(ids, SEType.REPORT)[0], g.params,
                           max_entries=4, rng=probes)
    assert max(errs.values()) < 1e-4

    l = lat(rng, c=3)
    errs = check_gradients(lambda: l.loss(ids, SEType.GENERIC)[0], l.params,
                           max_entries=4, rng=probes)
    assert max(errs.values()) < 1e-4

    c = ctx(rng)
    errs = check_gradients(
        lambda: c.paragraph_loss([[5, 6], [7]], [SEType.STATE, SEType.QUESTION])[0],
        c.params, max_entries=3, rng=probes)
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# batched training objective


def batch_items(name, rng):
    if name == "ctx":
        # paragraphs of unequal clause counts and clause lengths
        shapes = ([3, 1, 4], [2], [5, 2], [1, 1])
        return [([rng.integers(5, VOCAB, size=n) for n in counts],
                 [int(y) for y in rng.integers(7, size=len(counts))]) for counts in shapes]
    # unequal lengths, with ties and a one-token clause
    return [(rng.integers(5, VOCAB, size=n), int(rng.integers(7))) for n in (3, 1, 5, 3, 2)]


@pytest.mark.parametrize("name", ["disc", "gen", "lat", "ctx"])
def test_batch_loss_equals_the_per_item_sum(name):
    rng = np.random.default_rng(13)
    m = {"disc": disc, "gen": gen, "lat": lat, "ctx": ctx}[name](np.random.default_rng(4))
    items = batch_items(name, rng)
    trainable = {k: p for k, p in m.params.items() if p.requires_grad}
    per_item = m.paragraph_loss if name == "ctx" else m.loss

    T.zero_grads(trainable)
    ref_parts = {}
    for item in items:
        with T.Tape() as tape:
            loss, parts = per_item(*item)
            tape.backward(loss)
        for key, value in parts.items():
            ref_parts[key] = ref_parts.get(key, 0.0) + value
    ref_grads = {k: p.grad.copy() for k, p in trainable.items()}

    T.zero_grads(trainable)
    with T.Tape() as tape:
        loss, parts = m.batch_loss(items)
        tape.backward(loss)
    assert parts.keys() == ref_parts.keys()
    for key, want in ref_parts.items():
        assert parts[key] == pytest.approx(want, rel=1e-10), key
    for k, p in trainable.items():
        scale = max(1.0, float(np.abs(ref_grads[k]).max()))
        np.testing.assert_allclose(p.grad, ref_grads[k], rtol=1e-10, atol=1e-10 * scale, err_msg=k)
