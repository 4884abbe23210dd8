"""Clause encoder: a small transformer with a CLS slot, and its block.

The encoder prepends a CLS token, adds learned positional embeddings and
runs post-layer-norm blocks of multi-head self-attention; the clause
representation is the final state of the CLS slot. embed_dim doubles as
the model width. The block itself, transformer_block, also serves the
xfmr-latent decoder (vae.py), which adds a memory slot and a causal mask.

encode takes B clauses of any lengths as one (B, n) stack padded to the
longest with Vocab.PAD; a key mask hides each row's pad positions from
every query, so each clause's CLS state is the one it has alone, up to
rounding. A single clause is the B=1 case. The last block computes only
the CLS query, reading the token states as its memory, since no other
position of it is read. Encoders never truncate: over-length input is an
error. Dropout exists on the training path only and is driven by an
explicit generator, so eval passes are bit-deterministic and train passes
replay exactly per seed.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Vocab, concat_ids
from .errors import DataError

# additive attention-mask value of a hidden key: finite, so softmax's input
# check passes, and exp(MASKED - max) is exactly 0 next to any visible key
MASKED = -1e30


@dataclass
class EncoderConfig:
    """The desk-scale stand-in for a pretrained masked-LM encoder."""

    embed_dim: int = 128
    layers: int = 2
    heads: int = 4
    max_len: int = 128
    dropout: float = 0.0

    def __post_init__(self):
        if self.embed_dim < 1 or self.layers < 1 or self.heads < 1:
            raise DataError("encoder embed_dim, layers and heads must be >= 1")
        if self.embed_dim % self.heads:
            raise DataError(f"heads={self.heads} must divide embed_dim={self.embed_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")


def init_block(p, prefix, d, rng):
    """Add one transformer block's parameters, width d, under prefix."""
    for name in ("wq", "wk", "wv", "wo"):
        p[prefix + name] = T.xavier_param(rng, d, d)
        p[prefix + name[-1] + "b"] = T.zeros((d,), requires_grad=True)
    p[prefix + "ln1g"] = T.Tensor(np.ones(d), requires_grad=True)
    p[prefix + "ln1b"] = T.zeros((d,), requires_grad=True)
    p[prefix + "ln2g"] = T.Tensor(np.ones(d), requires_grad=True)
    p[prefix + "ln2b"] = T.zeros((d,), requires_grad=True)
    p[prefix + "w1"] = T.xavier_param(rng, d, 4 * d)
    p[prefix + "b1"] = T.zeros((4 * d,), requires_grad=True)
    p[prefix + "w2"] = T.xavier_param(rng, 4 * d, d)
    p[prefix + "b2"] = T.zeros((d,), requires_grad=True)


def init_params(cfg, vocab_size, rng):
    """Fresh parameter dict for one encoder."""
    d = cfg.embed_dim
    p = {"emb": T.uniform_param(rng, (vocab_size, d)), "pos": T.uniform_param(rng, (cfg.max_len + 1, d))}
    for layer in range(cfg.layers):
        init_block(p, f"l{layer}.", d, rng)
    return p


def transformer_block(x, p, prefix, heads, memory=None, mask=None, dropout=0.0, train_rng=None):
    """One post-layer-norm block over a (B, n, d) stack.

    memory, (B, m, d), is prepended to the keys and values only, so every
    query may also attend to it; mask, broadcastable to (B, heads, n, m + n)
    (a shared (n, m + n) causal mask, or a per-row (B, 1, 1, m + n) key
    mask), is added to the attention scores. Dropout on the attention and
    feed-forward outputs applies only when train_rng is given; at rate 0 it
    draws nothing from it.
    """
    n_seq, n, d = x.shape
    dh = d // heads

    def split_heads(m):
        return T.transpose(T.reshape(m, (n_seq, m.shape[1], heads, dh)), (0, 2, 1, 3))

    def maybe_dropout(h):
        return h if train_rng is None else T.dropout(h, dropout, train_rng)

    kv_in = x if memory is None else T.concat([memory, x], axis=1)
    q = split_heads(T.affine(x, p[prefix + "wq"], p[prefix + "qb"]))
    k = split_heads(T.affine(kv_in, p[prefix + "wk"], p[prefix + "kb"]))
    v = split_heads(T.affine(kv_in, p[prefix + "wv"], p[prefix + "vb"]))
    scores = (1.0 / np.sqrt(dh)) * T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    if mask is not None:
        scores = scores + mask
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n_seq, n, d))
    attn = T.affine(ctx, p[prefix + "wo"], p[prefix + "ob"])
    x = T.layer_norm(x + maybe_dropout(attn), p[prefix + "ln1g"], p[prefix + "ln1b"])
    ffn = T.affine(T.relu(T.affine(x, p[prefix + "w1"], p[prefix + "b1"])), p[prefix + "w2"], p[prefix + "b2"])
    return T.layer_norm(x + maybe_dropout(ffn), p[prefix + "ln2g"], p[prefix + "ln2b"])


def pad_stack(ids, lengths):
    """B id rows stored back to back, lengths (B,), as one (B, longest)
    stack padded with Vocab.PAD; with the stack's mask of real positions."""
    real = np.arange(lengths.max()) < lengths[:, None]
    stack = np.full(real.shape, Vocab.PAD)
    stack[real] = ids
    return stack, real


def encode(id_lists, cfg, params, train_rng=None):
    """CLS states, (B, embed_dim), of B clauses given as token-id lists."""
    stack, real = pad_stack(*concat_ids(id_lists, params["emb"].shape[0], cfg.max_len))
    n_seq, n = stack.shape
    seq = np.concatenate((np.full((n_seq, 1), Vocab.CLS), stack), axis=1)
    keys = np.zeros((n_seq, 1, 1, n + 1))  # [CLS | tokens]
    keys[:, 0, 0, 1:][~real] = MASKED
    x = T.embedding(params["emb"], seq) + T.embedding(params["pos"], np.arange(n + 1))
    last = cfg.layers - 1
    for layer in range(last):
        x = transformer_block(x, params, f"l{layer}.", cfg.heads, mask=keys,
                              dropout=cfg.dropout, train_rng=train_rng)
    # the CLS query alone, its keys [tokens | CLS]
    cls = transformer_block(T.narrow(x, 1, 0, 1), params, f"l{last}.", cfg.heads,
                            memory=T.narrow(x, 1, 1, n), mask=np.roll(keys, -1, axis=3),
                            dropout=cfg.dropout, train_rng=train_rng)
    return T.reshape(cls, (n_seq, cfg.embed_dim))


def encode_pooled(ids, cfg, params, train_rng=None):
    """Representation vector, (embed_dim,), of one clause: the B=1 encode."""
    return T.reshape(encode([ids], cfg, params, train_rng), (cfg.embed_dim,))
