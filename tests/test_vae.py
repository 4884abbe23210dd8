import math

import numpy as np
import pytest

from sevae import encoders as E
from sevae import tensor as T
from sevae import vae
from sevae.data import Clause, SEType, build_vocab
from sevae.errors import GraphError
from sevae.gradcheck import check_gradients

VOCAB = 12


def gaussian(mu, lv):
    return vae.LatentGaussian(
        T.Tensor(np.asarray(mu, dtype=np.float64)),
        T.Tensor(np.asarray(lv, dtype=np.float64)),
    )


def tiny_model(kind="bow", latent=4, seed=0):
    enc = E.EncoderConfig(embed_dim=8, layers=1, heads=2, max_len=16)
    dec = vae.DecoderSpec(kind, embed_dim=8, hidden_dim=8, layers=1, heads=2)
    return vae.VAEModel(enc, dec, VOCAB, latent_dim=latent, beta=0.5,
                        rng=np.random.default_rng(seed))


def zero_params(model, names):
    for name in names:
        model.params[name].data[...] = 0.0


# ---------------------------------------------------------------------------
# latent machinery


def test_reparameterize_identities(rng):
    mu = rng.standard_normal(4)
    q = gaussian(mu, np.zeros(4))
    np.testing.assert_array_equal(vae.reparameterize(q, np.zeros(4)).data, mu)
    e = rng.standard_normal(4)
    np.testing.assert_allclose(vae.reparameterize(q, e).data, mu + e, atol=1e-15)
    lv = rng.uniform(-1, 1, 4)
    q2 = gaussian(mu, lv)
    np.testing.assert_allclose(vae.reparameterize(q2, e).data,
                               mu + np.exp(lv / 2) * e, atol=1e-15)
    with pytest.raises(GraphError, match="shape"):
        vae.reparameterize(q, np.zeros(3))


def test_reparameterize_sample_mean(rng):
    mu = np.array([0.3, -1.2])
    lv = np.array([0.4, -0.6])
    q = gaussian(mu, lv)
    draws = np.stack([vae.reparameterize(q, rng.standard_normal(2)).data
                      for _ in range(10_000)])
    tol = 4 * np.exp(lv / 2) / 100
    assert np.all(np.abs(draws.mean(axis=0) - mu) < tol)


def test_kl_hand_values():
    assert float(vae.kl_to_standard_normal(gaussian([0.0], [0.0])).data) == 0.0
    assert float(vae.kl_to_standard_normal(gaussian([1.0], [0.0])).data) == pytest.approx(0.5, abs=1e-15)
    got = float(vae.kl_to_standard_normal(gaussian([0.0], [math.log(4.0)])).data)
    assert got == pytest.approx(0.5 * (4 - 1 - math.log(4.0)), abs=1e-12)
    assert got == pytest.approx(0.806853, abs=5e-7)


def test_kl_nonnegative_everywhere(rng):
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        mu = rng.standard_normal(d) * 3
        lv = rng.uniform(-4, 4, d)
        kl = float(vae.kl_to_standard_normal(gaussian(mu, lv)).data)
        assert kl >= 0.0
        if np.any(mu != 0) or np.any(lv != 0):
            assert kl > 0.0
    assert float(vae.kl_to_standard_normal(gaussian(np.zeros(5), np.zeros(5))).data) == 0.0


def test_posterior_logvar_clamped():
    model = tiny_model()
    # force the logvar head to produce enormous values
    model.params["post.lv_w"].data[...] = 0.0
    model.params["post.lv_b"].data[...] = 1e6
    q = model.posterior([5, 6, 7])
    assert np.all(q.logvar.data == vae.LOGVAR_MAX)
    model.params["post.lv_b"].data[...] = -1e6
    q = model.posterior([5, 6, 7])
    assert np.all(q.logvar.data == vae.LOGVAR_MIN)


def test_zeroed_posterior_heads_return_bias():
    model = tiny_model()
    zero_params(model, ["post.mu_w", "post.lv_w"])
    model.params["post.mu_b"].data[...] = 0.25
    model.params["post.lv_b"].data[...] = -0.5
    for ids in ([5], [6, 7, 8], [9, 10, 11, 5, 6]):
        q = model.posterior(ids)
        np.testing.assert_array_equal(q.mu.data, np.full(4, 0.25))
        np.testing.assert_array_equal(q.logvar.data, np.full(4, -0.5))


# ---------------------------------------------------------------------------
# decoders


def test_bow_permutation_invariance(rng):
    model = tiny_model("bow")
    z = T.Tensor(rng.standard_normal(4))
    ids = [5, 9, 7, 9, 11]
    a = float(model.decode(z, ids).data)
    b = float(model.decode(z, list(reversed(ids))).data)
    assert a == b


def test_bow_zeroed_weights_uniform(rng):
    model = tiny_model("bow")
    zero_params(model, ["dec.w", "dec.b"])
    z = T.Tensor(rng.standard_normal(4))
    got = float(model.decode(z, [7]).data)
    assert got == pytest.approx(math.log(1 / VOCAB), abs=1e-12)
    got3 = float(model.decode(z, [7, 5, 7]).data)
    assert got3 == pytest.approx(3 * math.log(1 / VOCAB), abs=1e-12)


def test_bow_matches_bruteforce(rng):
    model = tiny_model("bow")
    z = T.Tensor(rng.standard_normal(4))
    ids = [5, 9, 7, 9]
    got = float(model.decode(z, ids).data)
    logits = z.data @ model.params["dec.w"].data + model.params["dec.b"].data
    logp = logits - (np.max(logits) + math.log(math.fsum(np.exp(logits - np.max(logits)))))
    want = math.fsum(logp[t] for t in ids)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["lstm", "xfmr-latent"])
def test_autoregressive_zeroed_output_uniform(kind, rng):
    model = tiny_model(kind)
    zero_params(model, ["dec.out_w", "dec.out_b"])
    z = T.Tensor(rng.standard_normal(4))
    for ids in ([5], [6, 7, 8]):
        got = float(model.decode(z, ids).data)
        assert got == pytest.approx((len(ids) + 1) * math.log(1 / VOCAB), rel=1e-12)


@pytest.mark.parametrize("kind", ["lstm", "xfmr-latent"])
def test_autoregressive_order_sensitive(kind, rng):
    model = tiny_model(kind)
    z = T.Tensor(rng.standard_normal(4))
    a = float(model.decode(z, [5, 9]).data)
    b = float(model.decode(z, [9, 5]).data)
    assert a != b


def test_xfmr_injection_off_ignores_z(rng):
    model = tiny_model("xfmr-latent")
    zero_params(model, ["dec.wm", "dec.wd"])
    ids = [5, 8, 10]
    a = float(model.decode(T.Tensor(rng.standard_normal(4)), ids).data)
    b = float(model.decode(T.Tensor(rng.standard_normal(4)), ids).data)
    assert a == b


def test_xfmr_causal_masking(rng):
    # earlier target positions must not see later input tokens
    model = tiny_model("xfmr-latent")
    z = T.Tensor(rng.standard_normal((1, 4)))
    a = model._xfmr_decoder_logits(z, np.array([2, 5, 8, 10]), np.array([4]))
    b = model._xfmr_decoder_logits(z, np.array([2, 5, 8, 11]), np.array([4]))
    np.testing.assert_array_equal(a.data[:3], b.data[:3])
    assert not np.array_equal(a.data[3], b.data[3])


@pytest.mark.parametrize("kind", ["bow", "lstm", "xfmr-latent"])
def test_decoder_shared_contract(kind, rng):
    # every decoder: finite NLL and passing gradcheck on the full ELBO
    model = tiny_model(kind, seed=3)
    ids = [5, 9, 7]
    eps = rng.standard_normal(4)

    loss, parts = model.elbo_loss(ids, SEType.EVENT, eps)
    assert np.isfinite(loss.data)
    assert parts["reconstruction"] > 0.0 and parts["kl"] >= 0.0

    def build():
        out, _ = model.elbo_loss(ids, SEType.EVENT, eps)
        return out

    errs = check_gradients(build, model.params, max_entries=4,
                           rng=np.random.default_rng(1))
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# objective


def test_beta_zero_drops_kl(rng):
    model = tiny_model("bow")
    ids = [5, 6, 7]
    eps = rng.standard_normal(4)
    loss0, parts0 = model.elbo_loss(ids, SEType.STATE, eps, beta=0.0)
    loss1, parts1 = model.elbo_loss(ids, SEType.STATE, eps, beta=1.0)
    assert parts0["kl"] == parts1["kl"] > 0.0
    assert float(loss1.data) - float(loss0.data) == pytest.approx(parts1["kl"], rel=1e-12)
    want0 = parts0["reconstruction"] + parts0["classification"]
    assert float(loss0.data) == pytest.approx(want0, rel=1e-12)


def test_label_loss_weight_scales_classification(rng):
    enc = E.EncoderConfig(embed_dim=8, layers=1, heads=2, max_len=16)
    dec = vae.DecoderSpec("bow", embed_dim=8)
    heavy = vae.VAEModel(enc, dec, VOCAB, latent_dim=4, beta=0.5,
                         label_loss_weight=3.0, rng=np.random.default_rng(0))
    light = vae.VAEModel(enc, dec, VOCAB, latent_dim=4, beta=0.5,
                         label_loss_weight=1.0, rng=np.random.default_rng(0))
    ids, eps = [5, 6], np.zeros(4)
    lh, ph = heavy.elbo_loss(ids, SEType.STATE, eps)
    ll, pl = light.elbo_loss(ids, SEType.STATE, eps)
    assert ph["classification"] == pl["classification"]
    assert float(lh.data) - float(ll.data) == pytest.approx(2 * pl["classification"], rel=1e-12)


def test_elbo_bound_vs_importance_sampling(rng):
    # recon-only ELBO (beta=1, no label term) must not exceed the
    # importance-sampled log-likelihood, up to Monte-Carlo error
    model = tiny_model("bow", seed=5)
    ids = [5, 9, 7, 6, 11]
    q = model.posterior(ids)
    mu, lv = q.mu.data, q.logvar.data
    draws = rng.standard_normal((512, 4))
    integrands = []
    for eps in draws:
        z = mu + np.exp(lv / 2) * eps
        log_px = float(model.decode(T.Tensor(z), ids).data)
        log_p_z = -0.5 * float(np.sum(z * z)) - 2 * math.log(2 * math.pi)
        log_q_z = -0.5 * float(np.sum(eps * eps + lv)) - 2 * math.log(2 * math.pi)
        integrands.append(log_px + log_p_z - log_q_z)
    integrands = np.array(integrands)
    elbo = float(integrands.mean())
    m = integrands.max()
    is_est = m + math.log(math.fsum(np.exp(integrands - m)) / len(integrands))
    assert elbo <= is_est + 0.1


# ---------------------------------------------------------------------------
# prediction path


def test_classify_map_uniform_at_zero_weights():
    model = tiny_model()
    zero_params(model, ["cls.w", "cls.b"])
    probs = model.classify_map([5, 6])
    np.testing.assert_allclose(probs, np.full(7, 1 / 7), atol=1e-15)


def test_classify_map_deterministic_and_normalized(rng):
    model = tiny_model("lstm")
    ids = [5, 9, 7]
    a = model.classify_map(ids)
    b = model.classify_map(ids)
    np.testing.assert_array_equal(a, b)
    assert math.fsum(a.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_classify_argmax_stable_under_rescale(rng):
    model = tiny_model()
    ids = [5, 8, 10, 6]
    before = int(np.argmax(model.classify_map(ids)))
    model.params["cls.w"].data[...] *= 4.2
    model.params["cls.b"].data[...] *= 4.2
    after = int(np.argmax(model.classify_map(ids)))
    assert before == after


# ---------------------------------------------------------------------------
# latent export


def test_export_latents_rows(rng):
    model = tiny_model()
    clauses = [
        Clause("the cat sleeps .", SEType.GENERALIZING, "news", "d0", 0, 0),
        Clause("he ran .", SEType.EVENT, "news", "d0", 0, 1),
    ]
    vocab = build_vocab(clauses, min_count=1)
    model2 = tiny_model()  # same seed, fresh params
    rows = vae.export_latents(model, clauses, vocab)
    rows2 = vae.export_latents(model2, clauses, vocab)
    assert len(rows) == 2
    assert [r[:3] for r in rows] == [("d0", 0, 0), ("d0", 0, 1)]
    assert all(r[5].shape == (4,) for r in rows)
    for a, b in zip(rows, rows2):
        np.testing.assert_array_equal(a[5], b[5])


def test_write_latents_tsv_round_trip(tmp_path, rng):
    model = tiny_model()
    clauses = [Clause("a cat .", SEType.STATE, "news", "d", 0, 0)]
    vocab = build_vocab(clauses, min_count=1)
    rows = vae.export_latents(model, clauses, vocab)
    path = tmp_path / "latents.tsv"
    vae.write_latents_tsv(rows, 4, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["doc_id", "par_id", "clause_idx", "label",
                                    "genre", "mu_0", "mu_1", "mu_2", "mu_3"]
    cells = lines[1].split("\t")
    assert cells[:5] == ["d", "0", "0", "STATE", "news"]
    np.testing.assert_array_equal([float(c) for c in cells[5:]], rows[0][5])
