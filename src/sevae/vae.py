"""Variational clause model: Gaussian latent, joint reconstruction + label.

The encoder produces a clause representation from which two affine heads
read the posterior mean and log-variance of a diagonal Gaussian over a
latent z (default 30-dimensional). Training draws one z per clause by
reparameterization and minimizes

    loss = -[w_y * log p(y|z) + log p(x|z)] + beta * KL(q(z|x) || N(0, I))

with beta fixed at 0.5 by default (a linear warm-up schedule is available
through the trainer). Prediction is deterministic: the classifier reads
the posterior mean, never a sample. Training (batch_loss), tagging and
latent export (batch_probs, posterior_means) take a batch of clauses of
any lengths and encode it as one padded (B, n) stack (encoders.encode);
elbo_loss and classify_map are the batch of one.

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
proper over variable-length strings. The lstm decoder runs a batch's
rows back to back through one ragged lstm_seq; the xfmr-latent decoder
pads them to one stack and scores only the real positions.
"""

from dataclasses import dataclass

import numpy as np

from . import encoders
from . import tensor as T
from .data import N_LABELS, atomic_write, concat_ids, lm_rows, tagging_runs
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


def check_options(enc_cfg, dec_spec, beta, label_loss_weight):
    """The checks a VAEModel makes beyond those of its EncoderConfig and
    DecoderSpec; raises DataError."""
    if not 0.0 <= beta <= 1.0:
        raise DataError(f"beta must be in [0, 1], got {beta}")
    if not label_loss_weight >= 0.0:
        raise DataError(f"label_loss_weight must be >= 0, got {label_loss_weight}")
    if dec_spec.tie_embeddings and dec_spec.embed_dim != enc_cfg.embed_dim:
        raise DataError("tied embeddings need matching encoder/decoder embed dims")


class VAEModel:
    """Encoder, posterior heads, classifier head, and one decoder."""

    consumes = "clause"

    def __init__(self, enc_cfg, dec_spec, vocab_size, latent_dim=30, beta=0.5,
                 label_loss_weight=1.0, rng=None):
        check_options(enc_cfg, dec_spec, beta, label_loss_weight)
        self.enc_cfg = enc_cfg
        self.dec_spec = dec_spec
        self.vocab_size = vocab_size
        self.latent_dim = latent_dim
        self.beta = beta
        self.label_loss_weight = label_loss_weight
        rng = rng or np.random.default_rng(0)
        # the encoder's own view of its parameters: the same tensors, under
        # the names encoders.py uses
        self.enc_params = encoders.init_params(enc_cfg, vocab_size, rng)
        self.params = {"enc." + name: p for name, p in self.enc_params.items()}
        d = enc_cfg.embed_dim
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
            encoders.init_block(p, f"dec.l{layer}.", d, rng)
        p["dec.out_w"] = T.xavier_param(rng, d, V)
        p["dec.out_b"] = T.zeros((V,), requires_grad=True)

    # ------------------------------------------------------------------
    # posterior and heads
    #
    # Every computation below takes a batch: B token-id lists of any
    # lengths, and z (B, P). The per-clause entry points are the B=1 case
    # of the same code.

    def _posterior_heads(self, h):
        mu = T.affine(h, self.params["post.mu_w"], self.params["post.mu_b"])
        logvar = T.clamp(
            T.affine(h, self.params["post.lv_w"], self.params["post.lv_b"]),
            LOGVAR_MIN, LOGVAR_MAX,
        )
        return LatentGaussian(mu, logvar)

    def posterior(self, ids, train_rng=None):
        """Posterior of one clause; mu and logvar have shape (latent_dim,)."""
        return self._posterior_heads(encoders.encode_pooled(ids, self.enc_cfg, self.enc_params, train_rng))

    def label_logits(self, z):
        return T.affine(z, self.params["cls.w"], self.params["cls.b"])

    # ------------------------------------------------------------------
    # decoders

    def decode(self, z, ids):
        """Scalar log p(x|z) of one clause under this model's decoder."""
        return self.decode_batch(T.reshape(z, (1, self.latent_dim)), [ids])

    def decode_batch(self, z, id_lists):
        """Summed log p(x|z) of B clauses, token-id lists, with latents z (B, P)."""
        if self.dec_spec.kind == "bow":
            return self._bow_loglik(z, id_lists)
        inputs, targets, lengths = lm_rows(id_lists, self.vocab_size)
        if self.dec_spec.kind == "lstm":
            logits = self._lstm_decoder_logits(z, inputs, lengths)
        else:
            logits = self._xfmr_decoder_logits(z, inputs, lengths)
        return -T.cross_entropy(logits, targets)

    def _bow_loglik(self, z, id_lists):
        """Sum over tokens of log softmax(W z + b)[token]; order-blind."""
        ids, lengths = concat_ids(id_lists, self.vocab_size)
        logp = T.log_softmax(T.affine(z, self.params["dec.w"], self.params["dec.b"]), axis=-1)
        counts = np.zeros((lengths.shape[0], self.vocab_size))
        np.add.at(counts, (np.repeat(np.arange(lengths.shape[0]), lengths), ids), 1.0)
        return T.sum_(logp * T.Tensor(counts))

    def _dec_embedding_table(self):
        return self.params["enc.emb"] if self.dec_spec.tie_embeddings else self.params["dec.emb"]

    # The two autoregressive decoders take the language-model input rows of
    # B clauses back to back (data.lm_rows) with their lengths, and return
    # logits row for row with them.

    def _lstm_decoder_logits(self, z, inputs, lengths):
        p = self.params
        owner = np.repeat(np.arange(lengths.shape[0]), lengths)
        x = T.concat([T.embedding(self._dec_embedding_table(), inputs), T.embedding(z, owner)], axis=1)
        h0 = T.affine(z, p["dec.h0_w"], p["dec.h0_b"])
        c0 = T.affine(z, p["dec.c0_w"], p["dec.c0_b"])
        hs = T.lstm_seq(x, p["dec.wx"], p["dec.whT"], p["dec.lb"], h0, c0, lengths)
        return T.affine(hs, p["dec.out_w"], p["dec.out_b"])

    def _xfmr_decoder_logits(self, z, inputs, lengths):
        p = self.params
        spec = self.dec_spec
        padded, real = encoders.pad_stack(inputs, lengths)
        n_seq, n = padded.shape
        d = spec.hidden_dim
        shift = T.reshape(T.matmul(z, p["dec.wd"]), (n_seq, 1, d))
        x = T.embedding(self._dec_embedding_table(), padded) + T.embedding(p["dec.pos"], np.arange(n)) + shift
        mem_all = T.reshape(T.matmul(z, p["dec.wm"]), (n_seq, spec.layers, d))
        # additive causal mask over [memory slot | positions]; slot always
        # visible. A row's pad positions all follow its real ones, so this
        # mask already hides them from every real query; the pad queries'
        # own states are never read
        mask = np.full((n, n + 1), encoders.MASKED)
        mask[:, 0] = 0.0
        mask[:, 1:][np.tril_indices(n)] = 0.0
        for layer in range(spec.layers):
            mem = T.narrow(mem_all, 1, layer, 1)
            x = encoders.transformer_block(x, p, f"dec.l{layer}.", spec.heads, memory=mem, mask=mask)
        states = T.embedding(T.reshape(x, (n_seq * n, d)), np.flatnonzero(real))
        return T.affine(states, p["dec.out_w"], p["dec.out_b"])

    # ------------------------------------------------------------------
    # objective and prediction

    def batch_loss(self, items, rng, beta=None):
        """Negated annealed ELBO summed over a batch of (ids, label) clauses
        of any lengths, run as one padded stack.

        The batch's eps comes first from rng, one (B, latent_dim) block in
        item order; the encoder's dropout masks, if any, follow from it.
        Returns (loss Tensor, components dict of floats) where components
        holds reconstruction/kl/classification summed over the batch.
        """
        id_lists = [ids for ids, _ in items]
        labels = [int(label) for _, label in items]
        eps = rng.standard_normal((len(items), self.latent_dim))
        return self._elbo(id_lists, labels, eps, beta, rng)

    def elbo_loss(self, ids, label, eps, beta=None, train_rng=None):
        """Negated annealed ELBO for one clause with the given eps, shape
        (latent_dim,); label None drops the label term. The batch of one."""
        labels = None if label is None else [int(label)]
        return self._elbo([ids], labels, np.asarray(eps, dtype=np.float64)[None], beta, train_rng)

    def _elbo(self, id_lists, labels, eps, beta, train_rng):
        beta = self.beta if beta is None else beta
        h = encoders.encode(id_lists, self.enc_cfg, self.enc_params, train_rng)
        q = self._posterior_heads(h)
        z = reparameterize(q, eps)
        log_px = self.decode_batch(z, id_lists)
        kl = kl_to_standard_normal(q)
        loss = -log_px + beta * kl
        parts = {"reconstruction": -float(log_px.data), "kl": float(kl.data)}
        if labels is not None:
            nll_y = T.cross_entropy(self.label_logits(z), np.asarray(labels, dtype=np.int64))
            loss = loss + self.label_loss_weight * nll_y
            parts["classification"] = float(nll_y.data)
        return loss, parts

    def posterior_means(self, id_lists):
        """Posterior means, (S, latent_dim), of S clauses: one encode pass."""
        return self._posterior_heads(encoders.encode(id_lists, self.enc_cfg, self.enc_params)).mu.data

    def batch_probs(self, id_lists):
        """Class probabilities, (S, 7), of S clauses read at their posterior
        means; no sampling."""
        return T.softmax(self.label_logits(T.Tensor(self.posterior_means(id_lists))), axis=-1).data

    def classify_map(self, ids):
        """Class probabilities of one clause: the batch of one."""
        return self.batch_probs([ids])[0]

    def predict_probs(self, ids):
        return self.classify_map(ids)


def export_latents(model, clauses, vocab):
    """One (coords, label, genre, mu) row per clause, in input order; the
    posterior means come one inference pass per tagging run of clauses."""
    units = [vocab.encode(cl.tokens) for cl in clauses]
    means = [mu for lo, hi in tagging_runs([len(ids) for ids in units])
             for mu in model.posterior_means(units[lo:hi])]
    return [(cl.doc_id, cl.par_id, cl.clause_idx, cl.label.name, cl.genre, mu)
            for cl, mu in zip(clauses, means)]


def write_latents_tsv(rows, latent_dim, path):
    header = ["doc_id", "par_id", "clause_idx", "label", "genre"]
    header += [f"mu_{i}" for i in range(latent_dim)]
    lines = ["\t".join(header) + "\n"]
    for doc_id, par_id, clause_idx, label, genre, mu in rows:
        cells = [doc_id, str(par_id), str(clause_idx), label, genre]
        cells += [repr(float(v)) for v in mu]
        lines.append("\t".join(cells) + "\n")
    atomic_write(path, "".join(lines))
