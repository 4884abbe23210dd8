"""Model specs: default_spec is the one check of option values, and every
spec it accepts builds a model that trains and tags."""

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevae.errors import DataError
from sevae.models import MODEL_NAMES, build_model, default_spec

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


_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "model_init_golden.json")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_fresh_model_matches_its_recorded_initialisation(name):
    # Recorded from build_model(default_spec(name), 40, uniform prior,
    # seed=3): every parameter's name in insertion order, its shape, and a
    # sha256 of all values in that order. Checkpoints store arrays by name,
    # and Adam and clip_global_norm walk the dict in insertion order, so a
    # change to any of the three changes saved files or trained bits.
    with open(_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    model = build_model(default_spec(name), 40, np.full(7, 1 / 7), seed=3)
    assert [[k, list(p.data.shape)] for k, p in model.params.items()] == golden["params"]
    digest = hashlib.sha256()
    for p in model.params.values():
        digest.update(p.data.astype("<f8", copy=False).tobytes())
    assert digest.hexdigest() == golden["sha256"]
