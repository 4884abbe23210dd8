"""End-to-end gradient verification of every training objective.

Each objective is instantiated at miniature dimensions (the code paths are
identical to full size; only the shapes shrink), a loss is built on a
random clause with all noise frozen, and every trainable coordinate is
probed by central finite differences. The elbo objectives probe the
batched loss that training runs (batch_loss) on three clauses of
distinct lengths, one of them a single token, so the encoder's key mask
and the decoders' ragged rows are covered. The suite is what the
`gradcheck` CLI subcommand runs and what the test suite calls.
"""

import time
import zlib

import numpy as np

from . import baselines, encoders, vae
from .data import N_LABELS
from .gradcheck import DEFAULT_STEP, DEFAULT_TOL, check_gradients

OBJECTIVES = (
    "elbo-bow", "elbo-lstm", "elbo-xfmr",
    "classlm", "latent-marginal", "disc", "ctx",
)

_VOCAB = 12
_LATENT = 4


def _rand_ids(rng, low=5, high=_VOCAB, min_len=3, max_len=5):
    return rng.integers(low, high, size=int(rng.integers(min_len, max_len + 1)))


def _tiny_vae(decoder_kind, rng):
    enc_cfg = encoders.EncoderConfig(embed_dim=8, layers=1, heads=2, max_len=16)
    if decoder_kind == "bow":
        dec = vae.DecoderSpec("bow")
    elif decoder_kind == "lstm":
        dec = vae.DecoderSpec("lstm", embed_dim=6, hidden_dim=6)
    else:
        dec = vae.DecoderSpec("xfmr-latent", embed_dim=8, hidden_dim=8, layers=1, heads=2)
    return vae.VAEModel(enc_cfg, dec, _VOCAB, latent_dim=_LATENT, beta=0.5, rng=rng)


def _build_objective(name, seed):
    """Returns (loss builder, trainable params) with frozen randomness."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    prior = rng.uniform(0.5, 1.5, N_LABELS)
    prior /= prior.sum()
    label = int(rng.integers(N_LABELS))
    ids = _rand_ids(rng)
    if name.startswith("elbo-"):
        model = _tiny_vae(name[len("elbo-"):], rng)
        items = [(ids, label)] + [(_rand_ids(rng, min_len=n, max_len=n), int(rng.integers(N_LABELS)))
                                  for n in (1, 7)]
        eps_seed = int(rng.integers(2 ** 32))
        # a fresh generator per call freezes the batch's eps draw
        build = lambda: model.batch_loss(items, np.random.default_rng(eps_seed))[0]
    elif name == "classlm":
        model = baselines.ClassLMModel(_VOCAB, prior, rng, embed_dim=5, hidden_dim=6)
        build = lambda: model.loss(ids, label)[0]
    elif name == "latent-marginal":
        model = baselines.LatentClassLMModel(_VOCAB, prior, rng, embed_dim=5, hidden_dim=6, n_latent=3)
        build = lambda: model.loss(ids, label)[0]
    elif name == "disc":
        model = baselines.DiscModel(_VOCAB, prior, rng, embed_dim=5, hidden_dim=6)
        build = lambda: model.loss(ids, label)[0]
    elif name == "ctx":
        model = baselines.CtxModel(_VOCAB, prior, rng, embed_dim=4, hidden_dim=5)
        id_lists = [_rand_ids(rng), _rand_ids(rng)]
        labels = [int(rng.integers(N_LABELS)) for _ in id_lists]
        build = lambda: model.paragraph_loss(id_lists, labels)[0]
    else:
        raise ValueError(f"unknown objective {name!r}")
    trainable = {k: p for k, p in model.params.items() if p.requires_grad}
    return build, trainable


def gradient_suite(seeds=(0, 1, 2), step=DEFAULT_STEP, tol=DEFAULT_TOL, max_entries=None,
                   objectives=OBJECTIVES):
    """Run the finite-difference suite; returns per-objective results.

    Each entry maps objective -> {"max_rel_err", "passed", "seconds"},
    where max_rel_err is the worst coordinate over all parameters and
    seeds at the given step.
    """
    results = {}
    for name in objectives:
        start = time.perf_counter()
        worst = 0.0
        for seed in seeds:
            build, params = _build_objective(name, seed)
            per_param = check_gradients(build, params, step=step, max_entries=max_entries)
            worst = max(worst, max(per_param.values()))
        # plain floats and bools: `sevae gradcheck --out` writes them as JSON
        results[name] = {
            "max_rel_err": float(worst),
            "passed": bool(worst <= tol),
            "seconds": time.perf_counter() - start,
        }
    return results
