"""Declarative model specs: names, default hyperparameters, construction.

This module is the one home of each model's class and option defaults
(one table, _MODELS), of the options' checks (default_spec) and of model
construction (build_model); the classes default none of their options.

Seven model names cover the experiment grid:

- disc: discriminative LSTM classifier
- gen: class-conditioned language model
- lat: latent-class language model (exact marginalization)
- ctx: hierarchical context-aware tagger
- vae-bow / vae-lstm / vae-xfmr: variational model with the three decoders

A ModelSpec is (name, options) and hashes (data.json_digest) to a stable
hex digest that checkpoints embed, so loading a checkpoint against a
different architecture fails loudly instead of mis-corresponding arrays.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import baselines, vae
from .data import json_digest
from .errors import DataError

_BASELINE_DEFAULTS = {"embed_dim": 100, "hidden_dim": 100}

_VAE_DEFAULTS = {
    "enc_embed_dim": 128,
    "enc_layers": 2,
    "enc_heads": 4,
    "max_len": 128,
    "dropout": 0.0,
    "latent_dim": 30,
    "beta": 0.5,
    "label_loss_weight": 1.0,
    "dec_embed_dim": 128,
    "dec_hidden_dim": 128,
    "dec_layers": 2,
    "dec_heads": 4,
    "tie_embeddings": False,
}

# name -> (class, option defaults); each class takes its spec's options as
# keywords, and the vae family also takes its decoder kind
_MODELS = {
    "disc": (baselines.DiscModel, _BASELINE_DEFAULTS),
    "gen": (baselines.ClassLMModel, _BASELINE_DEFAULTS),
    "lat": (baselines.LatentClassLMModel, dict(_BASELINE_DEFAULTS, n_latent=30)),
    "ctx": (baselines.CtxModel, {"embed_dim": 100, "hidden_dim": 300}),
    "vae-bow": (partial(vae.VAEModel, decoder="bow"), _VAE_DEFAULTS),
    "vae-lstm": (partial(vae.VAEModel, decoder="lstm"), _VAE_DEFAULTS),
    "vae-xfmr": (partial(vae.VAEModel, decoder="xfmr-latent"), _VAE_DEFAULTS),
}

MODEL_NAMES = tuple(_MODELS)


@dataclass
class ModelSpec:
    name: str
    options: dict

    def to_json(self):
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_json(cls, obj):
        return default_spec(obj["name"], **obj["options"])


def _coerce_option(name, key, value, default):
    """Cast an override to its default's type; a bool takes only
    true/false/1/0 (any case), a number only a value that parses exactly."""
    typ = type(default)
    if isinstance(value, typ) and (typ is bool or not isinstance(value, bool)):
        return value
    text = str(value).strip()
    if typ is bool:
        parsed = {"true": True, "1": True, "false": False, "0": False}.get(text.lower())
        if parsed is not None:
            return parsed
    else:
        try:
            return typ(text)
        except ValueError:
            pass
    raise DataError(f"model {name!r} option {key!r} expects {typ.__name__}, got {value!r}")


def default_spec(name, **overrides):
    """The spec of model `name` with `overrides` applied; the one place that
    checks option values, so a bad one fails before anything is written."""
    if name not in MODEL_NAMES:
        raise DataError(f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    options = dict(_MODELS[name][1])
    for key, value in overrides.items():
        if key not in options:
            raise DataError(f"model {name!r} has no option {key!r}; valid: {', '.join(sorted(options))}")
        options[key] = _coerce_option(name, key, value, options[key])
    for key, value in options.items():
        if type(value) is int and value < 1:
            raise DataError(f"model {name!r} option {key!r} must be >= 1, got {value}")
        if type(value) is float and not math.isfinite(value):
            raise DataError(f"model {name!r} option {key!r} must be finite, got {value}")
    if name.startswith("vae"):
        _check_vae_options(name, options)
    return ModelSpec(name, options)


def _check_vae_options(name, o):
    """The conditions on a vae-* model's options beyond each int >= 1 and
    each float finite; raises DataError."""
    if o["enc_embed_dim"] % o["enc_heads"]:
        raise DataError(f"heads={o['enc_heads']} must divide embed_dim={o['enc_embed_dim']}")
    if not 0.0 <= o["dropout"] < 1.0:
        raise DataError(f"dropout must be in [0, 1), got {o['dropout']}")
    if not 0.0 <= o["beta"] <= 1.0:
        raise DataError(f"beta must be in [0, 1], got {o['beta']}")
    if not o["label_loss_weight"] >= 0.0:
        raise DataError(f"label_loss_weight must be >= 0, got {o['label_loss_weight']}")
    if o["tie_embeddings"] and o["dec_embed_dim"] != o["enc_embed_dim"]:
        raise DataError("tied embeddings need matching encoder/decoder embed dims")
    if name == "vae-xfmr":
        if o["dec_hidden_dim"] % o["dec_heads"]:
            raise DataError(f"heads={o['dec_heads']} must divide hidden_dim={o['dec_hidden_dim']}")
        # the decoder adds its token embeddings to its hidden-width positions
        if o["dec_embed_dim"] != o["dec_hidden_dim"]:
            raise DataError(f"vae-xfmr needs dec_embed_dim == dec_hidden_dim, got "
                            f"{o['dec_embed_dim']} and {o['dec_hidden_dim']}")


def spec_hash(spec):
    """The checkpoint stamp: the digest of the spec's JSON form."""
    return json_digest(spec.to_json())


# how numpy refuses an array past its largest size, where it raises
# ValueError rather than MemoryError
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def build_model(spec, vocab_size, prior, seed):
    """Freshly initialized model for a spec from default_spec; identical
    (spec, seed) twice yields identical parameters. A spec whose arrays
    numpy refuses to allocate is a DataError; any other error propagates."""
    try:
        return _MODELS[spec.name][0](vocab_size, prior, np.random.default_rng(seed), **spec.options)
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        raise DataError(f"model {spec.name!r} with options {spec.options} is too large to build: "
                        f"{exc}") from None
