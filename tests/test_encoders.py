import numpy as np
import pytest

from sevae import encoders as E
from sevae import tensor as T
from sevae.errors import DataError
from sevae.gradcheck import check_gradients
from sevae.models import build_model, default_spec


def ids_for(rng, n, vocab=20):
    return [int(x) for x in rng.integers(5, vocab, size=n)]


def init(cfg, vocab_size, rng):
    """A fresh encoder's parameters, under the prefix a VAEModel uses: those
    of a vae-bow model with cfg's encoder, drawn from rng, which the model's
    heads and decoder then draw from too."""
    spec = default_spec("vae-bow", enc_embed_dim=cfg.embed_dim, enc_layers=cfg.layers,
                        enc_heads=cfg.heads, max_len=cfg.max_len, dropout=cfg.dropout)
    params = build_model(spec, vocab_size, seed=rng).params
    return {name: p for name, p in params.items() if name.startswith(E.PREFIX)}


def test_config_validation():
    # the encoder options are checked where every spec is made
    with pytest.raises(DataError, match="must divide"):
        default_spec("vae-bow", enc_embed_dim=10, enc_heads=3)
    with pytest.raises(DataError, match=">= 1"):
        default_spec("vae-bow", enc_embed_dim=8, enc_heads=0)
    with pytest.raises(DataError, match="dropout"):
        default_spec("vae-bow", dropout=1.0)


def test_defaults_match_desk_scale():
    o = default_spec("vae-bow").options
    got = (o["enc_embed_dim"], o["enc_layers"], o["enc_heads"], o["max_len"], o["dropout"])
    assert got == (128, 2, 4, 128, 0.0)


def test_input_validation(rng):
    cfg = E.EncoderConfig(embed_dim=6, layers=1, heads=2, max_len=4, dropout=0.0)
    p = init(cfg, 20, rng)
    with pytest.raises(DataError, match="empty"):
        E.encode_pooled([], cfg, p)
    with pytest.raises(DataError, match="refusing to truncate"):
        E.encode_pooled([5, 6, 7, 8, 9], cfg, p)
    with pytest.raises(DataError, match="out of range"):
        E.encode_pooled([25], cfg, p)
    with pytest.raises(DataError, match="out of range"):
        E.encode([[5, 6], [7, -1]], cfg, p)
    with pytest.raises(DataError, match="1-D"):
        E.encode([5, 6], cfg, p)
    with pytest.raises(DataError, match="empty batch"):
        E.encode([], cfg, p)


def test_transformer_cls_deterministic_and_shaped(rng):
    cfg = E.EncoderConfig(embed_dim=8, layers=2, heads=2, max_len=16, dropout=0.0)
    p = init(cfg, 20, rng)
    ids = ids_for(rng, 6)
    a = E.encode_pooled(ids, cfg, p).data
    b = E.encode_pooled(ids, cfg, p).data
    assert a.shape == (8,)
    np.testing.assert_array_equal(a, b)
    # positional embeddings make the encoding order-sensitive
    c = E.encode_pooled(list(reversed(ids)), cfg, p).data
    assert not np.allclose(a, c)


def test_shape_contract_all_lengths(rng):
    cfg = E.EncoderConfig(embed_dim=8, layers=1, heads=2, max_len=8, dropout=0.0)
    p = init(cfg, 15, rng)
    for n in range(1, 9):
        out = E.encode_pooled(ids_for(rng, n, 15), cfg, p)
        assert out.data.shape == (8,)
        assert E.encode(np.array([ids_for(rng, n, 15)] * 3), cfg, p).data.shape == (3, 8)


def test_stacked_encode_equals_per_clause_rows(rng):
    cfg = E.EncoderConfig(embed_dim=8, layers=2, heads=2, max_len=16, dropout=0.0)
    p = init(cfg, 20, rng)
    rows = np.array([ids_for(rng, 5) for _ in range(4)])
    stacked = E.encode(rows, cfg, p).data
    for row, got in zip(rows, stacked):
        np.testing.assert_allclose(got, E.encode_pooled(row, cfg, p).data, rtol=1e-12, atol=1e-12)


def test_dropout_reproducible_with_frozen_rng(rng):
    cfg = E.EncoderConfig(embed_dim=8, layers=1, heads=2, max_len=16, dropout=0.3)
    p = init(cfg, 20, rng)
    ids = ids_for(rng, 5)
    a = E.encode([ids], cfg, p, train_rng=np.random.default_rng(5)).data
    b = E.encode([ids], cfg, p, train_rng=np.random.default_rng(5)).data
    np.testing.assert_array_equal(a, b)
    c = E.encode([ids], cfg, p, train_rng=np.random.default_rng(6)).data
    assert not np.array_equal(a, c)
    # eval mode ignores dropout entirely
    d = E.encode_pooled(ids, cfg, p).data
    e = E.encode_pooled(ids, cfg, p).data
    np.testing.assert_array_equal(d, e)


def test_transformer_encoder_gradients(rng):
    cfg = E.EncoderConfig(embed_dim=6, layers=1, heads=2, max_len=8, dropout=0.0)
    p = init(cfg, 12, rng)
    ids = [5, 9, 7]

    def build():
        pooled = E.encode_pooled(ids, cfg, p)
        return T.sum_(T.mul(pooled, pooled))

    errs = check_gradients(build, p)
    assert max(errs.values()) < 1e-4
