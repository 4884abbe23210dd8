"""Variational clause model: Gaussian latent, joint reconstruction + label.

The encoder produces a clause representation from which two affine heads
read the posterior mean and log-variance of a diagonal Gaussian over a
latent z (default 30-dimensional). Training draws one z per clause by
reparameterization and minimizes

    loss = -[w_y * log p(y|z) + log p(x|z)] + beta * KL(q(z|x) || N(0, I))

with beta fixed at 0.5 by default (a linear warm-up schedule is available
through the trainer). Prediction is deterministic: the classifier reads
the posterior mean, never a sample.

Three reconstruction decoders satisfy one contract (scalar log p(x|z)):

- bow: a single linear softmax over the vocabulary scored against the
  token bag; exactly permutation-invariant by construction.
- lstm: one autoregressive LSTM layer; z initializes the hidden and cell
  state through affine maps and is concatenated to every input embedding.
- xfmr-latent: a causal transformer; z enters once per layer as an extra
  always-visible key/value slot (read through that layer's projections
  from a per-layer memory vector W_m z) and additively shifts every token
  embedding by W_D z.

Autoregressive decoders prepend BOS and score EOS, so likelihoods are
proper over variable-length strings.
"""

from dataclasses import dataclass

import numpy as np

from . import encoders
from . import tensor as T
from .data import N_LABELS, Vocab, atomic_write
from .errors import DataError, GraphError

LOGVAR_MIN, LOGVAR_MAX = -8.0, 8.0

DECODER_KINDS = ("bow", "lstm", "xfmr-latent")


@dataclass
class LatentGaussian:
    """Diagonal Gaussian posterior: mean and (clamped) log-variance."""

    mu: T.Tensor
    logvar: T.Tensor


@dataclass
class DecoderSpec:
    kind: str
    embed_dim: int = 128
    hidden_dim: int = 128
    layers: int = 2
    heads: int = 4
    tie_embeddings: bool = False

    def __post_init__(self):
        if self.kind not in DECODER_KINDS:
            raise DataError(f"unknown decoder kind {self.kind!r}; expected one of {DECODER_KINDS}")
        if self.kind == "xfmr-latent" and self.hidden_dim % self.heads:
            raise DataError(f"heads={self.heads} must divide hidden_dim={self.hidden_dim}")


def reparameterize(q, eps):
    """z = mu + exp(logvar/2) * eps; eps is a constant standard-normal draw."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != q.mu.data.shape:
        raise GraphError(f"eps shape {eps.shape} does not match latent shape {q.mu.data.shape}")
    return q.mu + T.exp(0.5 * q.logvar) * T.Tensor(eps)


def kl_to_standard_normal(q):
    """Closed-form KL(q || N(0, I)) = 0.5 * sum(mu^2 + e^lv - 1 - lv)."""
    return 0.5 * T.sum_(q.mu * q.mu + T.exp(q.logvar) - 1.0 - q.logvar)


class VAEModel:
    """Encoder, posterior heads, classifier head, and one decoder."""

    consumes = "clause"

    def __init__(self, enc_cfg, dec_spec, vocab_size, latent_dim=30, beta=0.5,
                 label_loss_weight=1.0, rng=None):
        if not 0.0 <= beta <= 1.0:
            raise DataError(f"beta must be in [0, 1], got {beta}")
        if dec_spec.tie_embeddings and dec_spec.embed_dim != enc_cfg.embed_dim:
            raise DataError("tied embeddings need matching encoder/decoder embed dims")
        self.enc_cfg = enc_cfg
        self.dec_spec = dec_spec
        self.vocab_size = vocab_size
        self.latent_dim = latent_dim
        self.beta = beta
        self.label_loss_weight = label_loss_weight
        rng = rng or np.random.default_rng(0)
        self.params = {}
        for name, p in encoders.init_params(enc_cfg, vocab_size, rng).items():
            self.params["enc." + name] = p
        d = encoders.output_dim(enc_cfg)
        self.params["post.mu_w"] = T.xavier_param(rng, d, latent_dim)
        self.params["post.mu_b"] = T.zeros((latent_dim,), requires_grad=True)
        self.params["post.lv_w"] = T.xavier_param(rng, d, latent_dim)
        self.params["post.lv_b"] = T.zeros((latent_dim,), requires_grad=True)
        self.params["cls.w"] = T.xavier_param(rng, latent_dim, N_LABELS)
        self.params["cls.b"] = T.zeros((N_LABELS,), requires_grad=True)
        self._init_decoder(rng)

    def _init_decoder(self, rng):
        p = self.params
        spec = self.dec_spec
        V, P = self.vocab_size, self.latent_dim
        if spec.kind == "bow":
            p["dec.w"] = T.xavier_param(rng, P, V)
            p["dec.b"] = T.zeros((V,), requires_grad=True)
            return
        if not spec.tie_embeddings:
            p["dec.emb"] = T.uniform_param(rng, (V, spec.embed_dim))
        if spec.kind == "lstm":
            h = spec.hidden_dim
            p["dec.h0_w"] = T.xavier_param(rng, P, h)
            p["dec.h0_b"] = T.zeros((h,), requires_grad=True)
            p["dec.c0_w"] = T.xavier_param(rng, P, h)
            p["dec.c0_b"] = T.zeros((h,), requires_grad=True)
            p["dec.wx"] = T.xavier_param(rng, spec.embed_dim + P, 4 * h)
            p["dec.whT"] = T.xavier_param(rng, 4 * h, h)
            p["dec.lb"] = T.zeros((4 * h,), requires_grad=True)
            p["dec.out_w"] = T.xavier_param(rng, h, V)
            p["dec.out_b"] = T.zeros((V,), requires_grad=True)
            return
        d = spec.hidden_dim
        p["dec.pos"] = T.uniform_param(rng, (self.enc_cfg.max_len + 2, d))
        p["dec.wm"] = T.xavier_param(rng, P, spec.layers * d)
        p["dec.wd"] = T.xavier_param(rng, P, d)
        for layer in range(spec.layers):
            pre = f"dec.l{layer}."
            for name in ("wq", "wk", "wv", "wo"):
                p[pre + name] = T.xavier_param(rng, d, d)
                p[pre + name[-1] + "b"] = T.zeros((d,), requires_grad=True)
            p[pre + "ln1g"] = T.Tensor(np.ones(d), requires_grad=True)
            p[pre + "ln1b"] = T.zeros((d,), requires_grad=True)
            p[pre + "ln2g"] = T.Tensor(np.ones(d), requires_grad=True)
            p[pre + "ln2b"] = T.zeros((d,), requires_grad=True)
            p[pre + "w1"] = T.xavier_param(rng, d, 4 * d)
            p[pre + "b1"] = T.zeros((4 * d,), requires_grad=True)
            p[pre + "w2"] = T.xavier_param(rng, 4 * d, d)
            p[pre + "b2"] = T.zeros((d,), requires_grad=True)
        p["dec.out_w"] = T.xavier_param(rng, d, V)
        p["dec.out_b"] = T.zeros((V,), requires_grad=True)

    def _enc_params(self):
        return {k[len("enc."):]: v for k, v in self.params.items() if k.startswith("enc.")}

    # ------------------------------------------------------------------
    # posterior and heads

    def posterior(self, ids, train_rng=None):
        h = encoders.encode_pooled(ids, self.enc_cfg, self._enc_params(), train_rng)
        mu = T.affine(h, self.params["post.mu_w"], self.params["post.mu_b"])
        logvar = T.clamp(
            T.affine(h, self.params["post.lv_w"], self.params["post.lv_b"]),
            LOGVAR_MIN, LOGVAR_MAX,
        )
        return LatentGaussian(mu, logvar)

    def label_logits(self, z):
        return T.affine(z, self.params["cls.w"], self.params["cls.b"])

    # ------------------------------------------------------------------
    # decoders

    def decode(self, z, ids):
        """Scalar log p(x|z) under this model's decoder."""
        kind = self.dec_spec.kind
        if kind == "bow":
            return self.decode_bow(z, ids)
        return self.decode_autoregressive(z, ids, kind)

    def decode_bow(self, z, ids):
        """Sum over tokens of log softmax(W z + b)[token]; order-blind."""
        if len(ids) == 0:
            raise DataError("cannot score an empty token sequence")
        logp = T.log_softmax(T.affine(z, self.params["dec.w"], self.params["dec.b"]), axis=-1)
        counts = np.bincount(np.asarray(ids, dtype=np.int64), minlength=self.vocab_size).astype(np.float64)
        return T.sum_(logp * T.Tensor(counts))

    def _dec_embedding_table(self):
        return self.params["enc.emb"] if self.dec_spec.tie_embeddings else self.params["dec.emb"]

    def decode_autoregressive(self, z, ids, kind):
        if len(ids) == 0:
            raise DataError("cannot score an empty token sequence")
        ids = np.asarray(ids, dtype=np.int64)
        inputs = np.concatenate(([Vocab.BOS], ids))
        targets = np.concatenate((ids, [Vocab.EOS]))
        if kind == "lstm":
            logits = self._lstm_decoder_logits(z, inputs)
        elif kind == "xfmr-latent":
            logits = self._xfmr_decoder_logits(z, inputs)
        else:
            raise DataError(f"unknown autoregressive decoder kind {kind!r}")
        return -T.cross_entropy(logits, targets)

    def _lstm_decoder_logits(self, z, inputs):
        p = self.params
        x = T.embedding(self._dec_embedding_table(), inputs)
        zrow = T.repeat_row(z, inputs.shape[0])
        x = T.concat([x, zrow], axis=1)
        h0 = T.affine(z, p["dec.h0_w"], p["dec.h0_b"])
        c0 = T.affine(z, p["dec.c0_w"], p["dec.c0_b"])
        hs = T.lstm_seq(x, p["dec.wx"], p["dec.whT"], p["dec.lb"], h0, c0)
        return T.affine(hs, p["dec.out_w"], p["dec.out_b"])

    def _xfmr_decoder_logits(self, z, inputs):
        p = self.params
        spec = self.dec_spec
        n = inputs.shape[0]
        d = spec.hidden_dim
        heads = spec.heads
        dh = d // heads
        scale = 1.0 / np.sqrt(dh)
        shift = T.repeat_row(T.affine(z, p["dec.wd"], T.Tensor(np.zeros(d))), n)
        x = T.embedding(self._dec_embedding_table(), inputs) + T.embedding(p["dec.pos"], np.arange(n)) + shift
        mem_all = T.reshape(T.matmul(z, p["dec.wm"]), (spec.layers, d))
        # additive causal mask over [memory slot | positions]; slot always visible
        mask = np.full((n, n + 1), -1e30)
        mask[:, 0] = 0.0
        mask[:, 1:][np.tril_indices(n)] = 0.0
        mask_t = T.Tensor(mask)
        for layer in range(spec.layers):
            pre = f"dec.l{layer}."
            mem = T.narrow(mem_all, 0, layer, 1)
            kv_in = T.concat([mem, x], axis=0)

            def split_heads(m, rows):
                return T.transpose(T.reshape(m, (rows, heads, dh)), (1, 0, 2))

            q = split_heads(T.affine(x, p[pre + "wq"], p[pre + "qb"]), n)
            k = split_heads(T.affine(kv_in, p[pre + "wk"], p[pre + "kb"]), n + 1)
            v = split_heads(T.affine(kv_in, p[pre + "wv"], p[pre + "vb"]), n + 1)
            scores = scale * T.matmul(q, T.transpose(k, (0, 2, 1))) + mask_t
            ctx = T.matmul(T.softmax(scores, axis=-1), v)
            ctx = T.reshape(T.transpose(ctx, (1, 0, 2)), (n, d))
            attn = T.affine(ctx, p[pre + "wo"], p[pre + "ob"])
            x = T.layer_norm(x + attn, p[pre + "ln1g"], p[pre + "ln1b"])
            ffn = T.affine(T.relu(T.affine(x, p[pre + "w1"], p[pre + "b1"])), p[pre + "w2"], p[pre + "b2"])
            x = T.layer_norm(x + ffn, p[pre + "ln2g"], p[pre + "ln2b"])
        return T.affine(x, p["dec.out_w"], p["dec.out_b"])

    # ------------------------------------------------------------------
    # objective and prediction

    def elbo_loss(self, ids, label, eps, beta=None, train_rng=None):
        """Negated annealed ELBO for one clause; label None drops that term.

        Returns (loss Tensor, components dict of floats) where components
        holds reconstruction/kl/classification for logging.
        """
        beta = self.beta if beta is None else beta
        q = self.posterior(ids, train_rng)
        z = reparameterize(q, eps)
        log_px = self.decode(z, ids)
        kl = kl_to_standard_normal(q)
        loss = -log_px + beta * kl
        parts = {"reconstruction": -float(log_px.data), "kl": float(kl.data)}
        if label is not None:
            nll_y = T.cross_entropy(self.label_logits(z), int(label))
            loss = loss + self.label_loss_weight * nll_y
            parts["classification"] = float(nll_y.data)
        return loss, parts

    def loss(self, ids, label, rng, beta=None, train_rng=None):
        """Trainer entry point: one fresh eps per call from the step rng."""
        eps = rng.standard_normal(self.latent_dim)
        return self.elbo_loss(ids, label, eps, beta=beta, train_rng=train_rng)

    def classify_map(self, ids):
        """Class probabilities read at the posterior mean; no sampling."""
        q = self.posterior(ids)
        probs = T.softmax(self.label_logits(q.mu), axis=-1)
        return probs.data.copy()

    def predict_probs(self, ids):
        return self.classify_map(ids)

    def latent_mean(self, ids):
        return self.posterior(ids).mu.data.copy()


def export_latents(model, clauses, vocab):
    """One (coords, label, genre, mu) row per clause, in input order."""
    rows = []
    for cl in clauses:
        mu = model.latent_mean(vocab.encode(cl.tokens))
        rows.append((cl.doc_id, cl.par_id, cl.clause_idx, cl.label.name, cl.genre, mu))
    return rows


def write_latents_tsv(rows, latent_dim, path):
    header = ["doc_id", "par_id", "clause_idx", "label", "genre"]
    header += [f"mu_{i}" for i in range(latent_dim)]
    lines = ["\t".join(header) + "\n"]
    for doc_id, par_id, clause_idx, label, genre, mu in rows:
        cells = [doc_id, str(par_id), str(clause_idx), label, genre]
        cells += [repr(float(v)) for v in mu]
        lines.append("\t".join(cells) + "\n")
    atomic_write(path, "".join(lines))
