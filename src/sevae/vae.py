"""Variational clause model: Gaussian latent, joint reconstruction + label.

The encoder produces a clause representation from which two affine heads
read the posterior mean and log-variance of a diagonal Gaussian over a
latent z of latent_dim dimensions. Training draws one z per clause by
reparameterization and minimizes

    loss = -[w_y * log p(y|z) + log p(x|z)] + beta * KL(q(z|x) || N(0, I))

with w_y = label_loss_weight and beta fixed (a linear warm-up schedule is
available through the trainer). Prediction is deterministic: the
classifier reads the posterior mean, never a sample. Training
(batch_loss), tagging and latent export (batch_probs, posterior_means)
take a batch of clauses of any lengths and encode it as one padded (B, n)
stack (encoders.encode); elbo_loss and classify_map are the batch of one.
The tagging runs that feed batch_probs and posterior_means are cut in one
place, harness._tag_runs, for evaluation and latent export alike.

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

VAEModel declares its parameters in plan(vocab_size, **options), the
encoder's first (encoders.encoder_plan); models.build_model realises it and
passes the params dict and the same keywords, default_spec's options plus
the decoder kind, to the constructor.
"""

from dataclasses import dataclass

import numpy as np

from . import encoders
from . import tensor as T
from .data import N_LABELS, concat_ids, lm_rows
from .errors import GraphError

LOGVAR_MIN, LOGVAR_MAX = -8.0, 8.0


@dataclass
class LatentGaussian:
    """Diagonal Gaussian posterior: mean and (clamped) log-variance."""

    mu: T.Tensor
    logvar: T.Tensor


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

    @staticmethod
    def plan(vocab_size, *, decoder, enc_embed_dim, enc_layers, max_len, latent_dim,
             dec_embed_dim, dec_hidden_dim, dec_layers, tie_embeddings, **_):
        V, P = vocab_size, latent_dim
        yield from encoders.encoder_plan(V, enc_embed_dim, enc_layers, max_len)
        yield from T.affine_plan("post.mu_w", "post.mu_b", enc_embed_dim, P)
        yield from T.affine_plan("post.lv_w", "post.lv_b", enc_embed_dim, P)
        yield from T.affine_plan("cls.w", "cls.b", P, N_LABELS)
        if decoder == "bow":
            yield from T.affine_plan("dec.w", "dec.b", P, V)
            return
        if not tie_embeddings:
            yield "dec.emb", (V, dec_embed_dim), "uniform"
        if decoder == "lstm":
            h = dec_hidden_dim
            yield from T.affine_plan("dec.h0_w", "dec.h0_b", P, h)
            yield from T.affine_plan("dec.c0_w", "dec.c0_b", P, h)
            yield "dec.wx", (dec_embed_dim + P, 4 * h), "xavier"
            yield "dec.whT", (4 * h, h), "xavier"
            yield "dec.lb", (4 * h,), "zeros"
            yield from T.affine_plan("dec.out_w", "dec.out_b", h, V)
            return
        d = dec_hidden_dim
        yield "dec.pos", (max_len + 2, d), "uniform"
        yield "dec.wm", (P, dec_layers * d), "xavier"
        yield "dec.wd", (P, d), "xavier"
        for layer in range(dec_layers):
            yield from encoders.block_plan(f"dec.l{layer}.", d)
        yield from T.affine_plan("dec.out_w", "dec.out_b", d, V)

    def __init__(self, vocab_size, params, *, decoder, enc_embed_dim, enc_layers, enc_heads,
                 max_len, dropout, latent_dim, beta, label_loss_weight, dec_layers, dec_heads,
                 tie_embeddings, **_plan_only):
        self.enc_cfg = encoders.EncoderConfig(enc_embed_dim, enc_layers, enc_heads, max_len, dropout)
        self.decoder = decoder
        self.vocab_size = vocab_size
        self.latent_dim = latent_dim
        self.beta = beta
        self.label_loss_weight = label_loss_weight
        self.dec_layers = dec_layers
        self.dec_heads = dec_heads
        self.tie_embeddings = tie_embeddings
        self.params = params

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

    def posterior(self, ids):
        """Posterior of one clause; mu and logvar have shape (latent_dim,)."""
        h = encoders.encode_pooled(ids, self.enc_cfg, self.params)
        return self._posterior_heads(h)

    def label_logits(self, z):
        return T.affine(z, self.params["cls.w"], self.params["cls.b"])

    # ------------------------------------------------------------------
    # decoders

    def decode(self, z, ids):
        """Scalar log p(x|z) of one clause under this model's decoder."""
        return self.decode_batch(T.reshape(z, (1, self.latent_dim)), [ids])

    def decode_batch(self, z, id_lists):
        """Summed log p(x|z) of B clauses, token-id lists, with latents z (B, P)."""
        if self.decoder == "bow":
            return self._bow_loglik(z, id_lists)
        inputs, targets, lengths = lm_rows(id_lists, self.vocab_size)
        if self.decoder == "lstm":
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
        return self.params[encoders.PREFIX + "emb"] if self.tie_embeddings else self.params["dec.emb"]

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
        padded, real = encoders.pad_stack(inputs, lengths)
        n_seq, n = padded.shape
        d = p["dec.wd"].shape[1]  # the decoder width, dec_hidden_dim
        shift = T.reshape(T.matmul(z, p["dec.wd"]), (n_seq, 1, d))
        x = T.embedding(self._dec_embedding_table(), padded) + T.embedding(p["dec.pos"], np.arange(n)) + shift
        mem_all = T.reshape(T.matmul(z, p["dec.wm"]), (n_seq, self.dec_layers, d))
        # additive causal mask over [memory slot | positions]; slot always
        # visible. A row's pad positions all follow its real ones, so this
        # mask already hides them from every real query; the pad queries'
        # own states are never read
        mask = np.full((n, n + 1), encoders.MASKED)
        mask[:, 0] = 0.0
        mask[:, 1:][np.tril_indices(n)] = 0.0
        for layer in range(self.dec_layers):
            mem = T.narrow(mem_all, 1, layer, 1)
            x = encoders.transformer_block(x, p, f"dec.l{layer}.", self.dec_heads, memory=mem, mask=mask)
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

    def elbo_loss(self, ids, label, eps, beta=None):
        """Negated annealed ELBO for one clause with the given eps, shape
        (latent_dim,), and no dropout. The batch of one."""
        return self._elbo([ids], [int(label)], np.asarray(eps, dtype=np.float64)[None], beta, None)

    def _elbo(self, id_lists, labels, eps, beta, train_rng):
        beta = self.beta if beta is None else beta
        h = encoders.encode(id_lists, self.enc_cfg, self.params, train_rng)
        q = self._posterior_heads(h)
        z = reparameterize(q, eps)
        log_px = self.decode_batch(z, id_lists)
        kl = kl_to_standard_normal(q)
        loss = -log_px + beta * kl
        nll_y = T.cross_entropy(self.label_logits(z), np.asarray(labels, dtype=np.int64))
        loss = loss + self.label_loss_weight * nll_y
        parts = {"reconstruction": -float(log_px.data), "kl": float(kl.data),
                 "classification": float(nll_y.data)}
        return loss, parts

    def posterior_means(self, id_lists):
        """Posterior means, (S, latent_dim), of S clauses: one encode pass."""
        return self._posterior_heads(encoders.encode(id_lists, self.enc_cfg, self.params)).mu.data

    def batch_probs(self, id_lists):
        """Class probabilities, (S, 7), of S clauses read at their posterior
        means; no sampling."""
        return T.softmax(self.label_logits(T.Tensor(self.posterior_means(id_lists))), axis=-1).data

    def classify_map(self, ids):
        """Class probabilities of one clause: the batch of one."""
        return self.batch_probs([ids])[0]

