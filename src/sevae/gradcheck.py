"""Finite-difference verification of tape gradients, and the suite that
runs it on every training objective.

check_gradients compares the analytic gradient of a scalar objective, the
dict Tape.backward returns, against a central-difference estimate at step
DEFAULT_STEP, at every coordinate of every requires_grad parameter; a
frozen one, such as the baselines' label prior, has no gradient to check.
The objective builder must be deterministic: it is evaluated twice up
front and any bitwise difference aborts the check, because a stochastic
objective (unseeded dropout, fresh noise draws) makes the comparison
meaningless.

gradient_suite runs that check on all seven training objectives,
OBJECTIVES. Each objective's model is built by models.build_model at
miniature dimensions (the code paths are identical to full size; only the
shapes shrink), the batched loss that training runs (batch_loss) is built
on a random batch with all noise frozen, and every trainable coordinate
is probed. A clause batch holds three clauses of distinct lengths, one of
them a single token, so the encoder's key mask, the decoders' ragged rows
and the baselines' packed LSTM layouts and segments are covered; the ctx
batch holds three paragraphs of 2, 1 and 3 clauses. The suite is what the
`gradcheck` CLI subcommand runs and what acceptance criterion 1 calls.
"""

import time
import zlib

import numpy as np

from .data import N_LABELS
from .errors import NumericsError
from .models import build_model, default_spec
from .tensor import Tape

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def _loss_value(build_loss):
    return float(build_loss().data)


def check_gradients(build_loss, params):
    """Compare analytic and numerical gradients for each named parameter.

    build_loss: zero-argument callable running a full forward pass and
        returning a scalar loss Tensor. Called once per probed coordinate
        (twice), plus once under a tape for the analytic pass.
    params: dict name -> Tensor; every coordinate of its requires_grad
        entries is probed, at step DEFAULT_STEP, and the frozen ones skipped.

    Returns dict name -> max relative error, where the relative error of a
    coordinate is |analytic - numerical| / max(1, |numerical|).
    """
    base = _loss_value(build_loss)
    again = _loss_value(build_loss)
    if base != again:
        raise NumericsError("objective is non-deterministic under gradcheck")

    with Tape() as tape:
        analytic = tape.backward(build_loss(), params)

    worst = {}
    for name, grad in analytic.items():
        flat = params[name].data.reshape(-1)
        worst_err = 0.0
        aflat = grad.reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + DEFAULT_STEP
            up = _loss_value(build_loss)
            flat[i] = keep - DEFAULT_STEP
            down = _loss_value(build_loss)
            flat[i] = keep
            numerical = (up - down) / (2.0 * DEFAULT_STEP)
            err = abs(aflat[i] - numerical) / max(1.0, abs(numerical))
            if err > worst_err:
                worst_err = err
        worst[name] = worst_err
    return worst


_VOCAB = 12

_TINY_VAE = {"enc_embed_dim": 8, "enc_layers": 1, "enc_heads": 2, "max_len": 16, "latent_dim": 4}

# each objective's model name and miniature options
_TINY = {
    "elbo-bow": ("vae-bow", _TINY_VAE),
    "elbo-lstm": ("vae-lstm", dict(_TINY_VAE, dec_embed_dim=6, dec_hidden_dim=6)),
    "elbo-xfmr": ("vae-xfmr", dict(_TINY_VAE, dec_embed_dim=8, dec_hidden_dim=8, dec_layers=1, dec_heads=2)),
    "classlm": ("gen", {"embed_dim": 5, "hidden_dim": 6}),
    "latent-marginal": ("lat", {"embed_dim": 5, "hidden_dim": 6, "n_latent": 3}),
    "disc": ("disc", {"embed_dim": 5, "hidden_dim": 6}),
    "ctx": ("ctx", {"embed_dim": 4, "hidden_dim": 5}),
}

OBJECTIVES = tuple(_TINY)


def _rand_ids(rng, low=5, high=_VOCAB, min_len=3, max_len=5):
    return rng.integers(low, high, size=int(rng.integers(min_len, max_len + 1)))


def _build_objective(name, seed):
    """Returns (loss builder, model params) with frozen randomness."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    prior = rng.uniform(0.5, 1.5, N_LABELS)
    prior /= prior.sum()
    label = int(rng.integers(N_LABELS))
    ids = _rand_ids(rng)
    model_name, options = _TINY[name]
    model = build_model(default_spec(model_name, **options), _VOCAB, prior, int(rng.integers(2 ** 32)))
    if name == "ctx":
        items = [([_rand_ids(rng) for _ in range(n)], rng.integers(N_LABELS, size=n).tolist())
                 for n in (2, 1, 3)]
    else:
        items = [(ids, label)] + [(_rand_ids(rng, min_len=n, max_len=n), int(rng.integers(N_LABELS)))
                                  for n in (1, 7)]
    eps_seed = int(rng.integers(2 ** 32))
    # a fresh generator per call freezes the batch's noise (the vae's eps)
    build = lambda: model.batch_loss(items, np.random.default_rng(eps_seed))[0]
    return build, model.params


def gradient_suite(seeds=(0, 1, 2)):
    """Run the finite-difference suite; returns per-objective results.

    Each of OBJECTIVES maps to {"max_rel_err", "passed", "seconds"},
    where max_rel_err is the worst coordinate over all parameters and
    seeds at step DEFAULT_STEP, and passed means it is at most DEFAULT_TOL.
    No seed would probe nothing and report a pass, so it raises ValueError.
    """
    if not seeds:
        raise ValueError("gradient_suite needs at least one seed")
    results = {}
    for name in OBJECTIVES:
        start = time.perf_counter()
        worst = 0.0
        for seed in seeds:
            build, params = _build_objective(name, seed)
            per_param = check_gradients(build, params)
            worst = max(worst, max(per_param.values()))
        # plain floats and bools: `sevae gradcheck --out` writes them as JSON
        results[name] = {
            "max_rel_err": float(worst),
            "passed": bool(worst <= DEFAULT_TOL),
            "seconds": time.perf_counter() - start,
        }
    return results
