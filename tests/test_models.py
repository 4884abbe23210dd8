"""Model specs: default_spec is the one check of option values, and every
spec it accepts builds a model that trains and tags."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sevae.errors import DataError
from sevae.models import build_model, default_spec

_TINY_VAE = dict(enc_embed_dim=4, enc_layers=1, enc_heads=2, max_len=8, latent_dim=2,
                 dec_embed_dim=4, dec_hidden_dim=4, dec_layers=1, dec_heads=2)

_widths = st.integers(0, 6)
_small = st.integers(0, 2)
_vae_overrides = st.fixed_dictionaries({}, optional={
    "enc_embed_dim": _widths,
    "enc_layers": _small,
    "enc_heads": st.integers(0, 4),
    "max_len": st.integers(3, 6),
    "dropout": st.sampled_from([0.0, 0.3, 0.99, 1.0, -0.1, math.nan, math.inf]),
    "latent_dim": _small,
    "beta": st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5, math.nan, math.inf]),
    "label_loss_weight": st.sampled_from([0.0, 1.0, 4.0, -1.0, math.nan, math.inf]),
    "dec_embed_dim": _widths,
    "dec_hidden_dim": _widths,
    "dec_layers": _small,
    "dec_heads": st.integers(0, 4),
    "tie_embeddings": st.booleans(),
})


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["vae-bow", "vae-lstm", "vae-xfmr"]), overrides=_vae_overrides)
def test_every_accepted_vae_spec_trains_and_tags(name, overrides):
    try:
        spec = default_spec(name, **dict(_TINY_VAE, **overrides))
    except DataError:
        return
    model = build_model(spec, 10, np.full(7, 1 / 7), seed=0)
    clauses = [[5], [6, 7, 8]]
    model.batch_loss([(clauses[0], 1), (clauses[1], 4)], np.random.default_rng(0))
    assert model.batch_probs(clauses).shape == (2, 7)
