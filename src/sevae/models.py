"""Declarative model specs: names, default hyperparameters, construction.

This module is the one home of each model's class and option defaults
(one table, _MODELS), of the options' checks (default_spec) and of model
construction (build_model); the classes default none of their options.

Each class declares its parameters once: the generator plan(vocab_size,
**options) yields (name, shape, init) in draw order, a pure function of
(spec, vocabulary size). build_model, its one realiser, sums the plan's
floats before any allocation (check_size), then allocates each array once.

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
import os
from dataclasses import dataclass

import numpy as np

from . import baselines, vae
from . import tensor as T
from .data import N_LABELS, json_digest
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

# name -> (class, option defaults, fixed keywords); a class's plan and
# constructor take its spec's options and the fixed keywords (the vae
# family's decoder kind, which is not an option) as keywords
_MODELS = {
    "disc": (baselines.DiscModel, _BASELINE_DEFAULTS, {}),
    "gen": (baselines.ClassLMModel, _BASELINE_DEFAULTS, {}),
    "lat": (baselines.LatentClassLMModel, dict(_BASELINE_DEFAULTS, n_latent=30), {}),
    "ctx": (baselines.CtxModel, {"embed_dim": 100, "hidden_dim": 300}, {}),
    "vae-bow": (vae.VAEModel, _VAE_DEFAULTS, {"decoder": "bow"}),
    "vae-lstm": (vae.VAEModel, _VAE_DEFAULTS, {"decoder": "lstm"}),
    "vae-xfmr": (vae.VAEModel, _VAE_DEFAULTS, {"decoder": "xfmr-latent"}),
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


def _too_large(spec, why):
    return DataError(f"model {spec.name!r} with options {spec.options} is too large to build: {why}")


def check_size(spec, vocab_size):
    """DataError once the running float count of the spec's plan passes
    this machine's physical memory; a huge layer count stops early."""
    cls, _defaults, fixed = _MODELS[spec.name]
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8
    total = 0
    for _name, shape, _init in cls.plan(vocab_size, **spec.options, **fixed):
        total += math.prod(shape)
        if total > limit:
            raise _too_large(spec, f"its parameters pass the {8 * limit} bytes of physical memory")


def _array(shape, init, rng, prior):
    """A plan entry's values: uninitialised without a generator, else uniform
    in +-0.1, Glorot-uniform over (fan_in, fan_out), constant, or the prior."""
    if rng is None:
        return np.empty(shape)
    if init in ("uniform", "xavier"):
        bound = 0.1 if init == "uniform" else np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-bound, bound, size=shape)
    if init == "prior":
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != shape:
            raise DataError(f"label prior must have {N_LABELS} entries, got shape {prior.shape}")
        return prior
    return np.zeros(shape) if init == "zeros" else np.ones(shape)


def build_model(spec, vocab_size, prior=None, seed=None):
    """The model of a spec from default_spec, its plan realised once: drawn
    from np.random.default_rng(seed), the same for the same (spec, seed),
    with prior as a baseline's label prior; or, with no seed, uninitialised
    for load_checkpoint to fill. A spec past check_size, or one numpy
    cannot allocate, is a DataError."""
    cls, _defaults, fixed = _MODELS[spec.name]
    check_size(spec, vocab_size)
    rng = None if seed is None else np.random.default_rng(seed)
    try:
        params = {name: T.Tensor(_array(shape, init, rng, prior), requires_grad=init != "prior")
                  for name, shape, init in cls.plan(vocab_size, **spec.options, **fixed)}
    except MemoryError as exc:
        raise _too_large(spec, exc) from None
    return cls(vocab_size, params, **spec.options, **fixed)
