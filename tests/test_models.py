"""Model specs: default_spec is the one check of option values, and every
spec it accepts builds a model that trains and tags."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevae import baselines, models
from sevae.errors import DataError
from sevae.models import MODEL_NAMES, build_model, default_spec, spec_hash

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


# the stamp each default spec writes into a checkpoint; a saved checkpoint
# loads only if its spec still hashes to its stamp, so these never change
_STAMPS = {
    "disc": "55c89039dad5bec2d53fda5cda0ca5705372dfa138b7109157595517ddb3bfaa",
    "gen": "d086f10ab61e092ba96c55e30c32fe801c5aebb65de3dd9252e2b74ddbc17af8",
    "lat": "ff74061dea951574e03990abc7de1a594bb1a6692859e5c0f0e1552a1225634c",
    "ctx": "e772a7b17163bda8fc5b35ed2135e30eadba17a97342781da4e112b849e3a2ef",
    "vae-bow": "9387498e1d649d2a4bc9821f3803aabe897499bc3ee947455554325e34bfe791",
    "vae-lstm": "a35285f6a6a7a60fec2a18c8fa6702cabd645e0ab30b0823981a48c298966a3f",
    "vae-xfmr": "1390a82b78f51bb9e6a594265bb73de23e1f15ec5caf45703f60805de183595e",
}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_spec_stamp_format_is_pinned(name):
    assert spec_hash(default_spec(name)) == _STAMPS[name]


@pytest.mark.parametrize("name,option", [("disc", "hidden_dim"), ("vae-bow", "latent_dim")])
@pytest.mark.parametrize("size", [10 ** 12, 10 ** 30])
def test_spec_too_large_to_allocate_is_data_error(name, option, size):
    # the plan's float count passes physical memory before any allocation
    with pytest.raises(DataError, match=f"model {name!r} .*'{option}': {size}.* too large to build"):
        build_model(default_spec(name, **{option: size}), 10, np.full(7, 1 / 7), seed=0)


def test_other_value_error_from_a_model_propagates(monkeypatch):
    # only a model too large to allocate is a DataError; a bug inside a
    # constructor keeps its own error and traceback
    class Broken(baselines.DiscModel):
        def __init__(self, *args, **kwargs):
            raise ValueError("cannot reshape array of size 6 into shape (4,)")
    monkeypatch.setitem(models._MODELS, "disc", (Broken, *models._MODELS["disc"][1:]))
    with pytest.raises(ValueError, match="cannot reshape"):
        build_model(default_spec("disc"), 10, np.full(7, 1 / 7), seed=0)


@pytest.mark.parametrize("name,option,size", [
    ("vae-bow", "enc_layers", 10 ** 6),
    ("vae-xfmr", "dec_layers", 10 ** 6),
    ("ctx", "hidden_dim", 10 ** 12),
])
def test_huge_spec_fails_before_allocating(name, option, size):
    # each layer of a huge layer count is small, so only the plan's running
    # total, not numpy, can refuse it before memory runs out
    spec = default_spec(name, **{option: size})
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="too large to build"):
            build_model(spec, 40, np.full(7, 1 / 7), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
