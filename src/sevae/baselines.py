"""The four comparison systems around the variational model.

- DiscModel: discriminative LSTM; mean-pooled hidden states feed a
  7-way softmax, trained by conditional cross-entropy.
- ClassLMModel: class-conditioned language model p(x|y); each step's
  vocabulary softmax reads the concatenation of the LSTM state and the
  label embedding (stored as two stacked blocks of one projection, which
  is the same linear map). Classifies by argmax_y log p(x|y) + log p(y).
- LatentClassLMModel: adds a discrete latent c with a learned categorical
  prior; the emission reads [h_t; v_y; v_c] and training maximizes the
  exact marginal likelihood over all C values of c via logsumexp.
- CtxModel: hierarchical context model; a word-level BiLSTM runs over the
  whole paragraph, per-clause max-pooling extracts clause vectors, and a
  clause-level BiLSTM plus a shared affine head labels every clause.

Training calls batch_loss on a whole logical batch of (ids, label) items
((token-id lists, labels) paragraphs for ctx): the clauses are stored back
to back, so each LSTM direction is one lstm_seq over the batch and the
batch is one tape. loss and paragraph_loss are the batch of one.

Tagging calls batch_probs on a run of clauses (paragraphs for ctx) and
runs the code batch_loss runs, with no tape active: disc and ctx the same
_logits, gen and lat one LSTM pass over the run's language-model rows and
one factored_loglik that scores every clause under all 7 label tilts.
predict_probs and predict_paragraph_probs are the batch of one. A batch
rounds differently from its items run one at a time (a matmul over
several rows against one over a single row), so its probabilities agree
with theirs within 1e-12 relative, not bit for bit.

All label ties break toward the lowest label code. The empirical label
prior rides along as a non-trainable named parameter so checkpoints are
self-contained.
"""

import numpy as np

from . import tensor as T
from .data import N_LABELS, concat_ids, lm_rows
from .errors import DataError

EMBED_DIM = 100
HIDDEN_DIM = 100
CTX_HIDDEN = 300
LATENT_VALUES = 30


def _prior_param(prior):
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (N_LABELS,):
        raise DataError(f"label prior must have {N_LABELS} entries, got shape {prior.shape}")
    t = T.Tensor(prior)
    t.requires_grad = False
    return t


def _add_lstm(params, name, in_dim, hidden, rng):
    params[f"{name}.wx"] = T.xavier_param(rng, in_dim, 4 * hidden)
    params[f"{name}.whT"] = T.xavier_param(rng, 4 * hidden, hidden)
    params[f"{name}.b"] = T.zeros((4 * hidden,), requires_grad=True)


def _run_lstm(x, params, name, hidden, lengths, reverse=False):
    """One direction of a named LSTM over sequences stored back to back as
    the rows of x, lengths (B,) long, from zero initial states."""
    zeros = T.Tensor(np.zeros((len(lengths), hidden)))
    return T.lstm_seq(x, params[f"{name}.wx"], params[f"{name}.whT"], params[f"{name}.b"],
                      zeros, zeros, lengths, reverse)


def _split_items(items):
    """(token-id lists, label codes) of a batch of (ids, label) items."""
    return [ids for ids, _ in items], np.array([int(label) for _, label in items])


class DiscModel:
    """Mean-pooled one-layer LSTM with a 7-way softmax head."""

    consumes = "clause"

    def __init__(self, vocab_size, prior, rng, embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM):
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.params = {
            "emb": T.uniform_param(rng, (vocab_size, embed_dim)),
            "out.w": T.xavier_param(rng, hidden_dim, N_LABELS),
            "out.b": T.zeros((N_LABELS,), requires_grad=True),
            "prior": _prior_param(prior),
        }
        _add_lstm(self.params, "lstm", embed_dim, hidden_dim, rng)

    def _logits(self, id_lists):
        """(S, 7) label logits of S clauses: one LSTM pass over all of them,
        then each clause's mean hidden state."""
        ids, lengths = concat_ids(id_lists, self.vocab_size)
        x = T.embedding(self.params["emb"], ids)
        hs = _run_lstm(x, self.params, "lstm", self.hidden_dim, lengths)
        return T.affine(T.segment_mean(hs, lengths), self.params["out.w"], self.params["out.b"])

    def batch_loss(self, items, rng=None):
        """Cross-entropy summed over a batch of (ids, label) clauses."""
        id_lists, labels = _split_items(items)
        nll = T.cross_entropy(self._logits(id_lists), labels)
        return nll, {"classification": float(nll.data)}

    def loss(self, ids, label, rng=None):
        return self.batch_loss([(ids, label)], rng)

    def batch_probs(self, id_lists):
        """Label probabilities, (S, 7), of S clauses in one pass."""
        return T.softmax(self._logits(id_lists), axis=-1).data

    def predict_probs(self, ids):
        return self.batch_probs([ids])[0]


class _BayesRuleClassifier:
    """p(y|x) of a class-conditioned language model, by Bayes' rule.

    The model's _loglik(base, label_tilts, targets, lengths) gives log p(x|y)
    of each clause under each of its label tilts."""

    def _lm_base(self, id_lists):
        """Label-free logits (N, V) of S clauses' language-model rows stored
        back to back, from one LSTM pass over all of them; with the targets
        and the row counts."""
        p = self.params
        inputs, targets, lengths = lm_rows(id_lists, self.vocab_size)
        hs = _run_lstm(T.embedding(p["emb"], inputs), p, "lstm", self.hidden_dim, lengths)
        return T.affine(hs, p["out.wh"], p["out.b"]), targets, lengths

    def joint_scores(self, id_lists):
        """log p(x|y) + log p(y), (S, 7), of S clauses under every label:
        one LSTM pass and one factored_loglik with the 7 label tilts as
        each clause's rows."""
        p = self.params
        base, targets, lengths = self._lm_base(id_lists)
        tilts = T.matmul(p["lab_emb"], p["out.wy"]).data
        rows = np.broadcast_to(tilts, (lengths.shape[0],) + tilts.shape)
        return self._loglik(base, rows, targets, lengths).data + np.log(p["prior"].data)

    def batch_probs(self, id_lists):
        """Label probabilities, (S, 7), of S clauses in one pass."""
        return T.softmax(self.joint_scores(id_lists), axis=-1).data

    def predict_probs(self, ids):
        return self.batch_probs([ids])[0]


class ClassLMModel(_BayesRuleClassifier):
    """Autoregressive p(x|y) with the label embedding feeding the output head."""

    consumes = "clause"

    def __init__(self, vocab_size, prior, rng, embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM):
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.params = {
            "emb": T.uniform_param(rng, (vocab_size, embed_dim)),
            "lab_emb": T.uniform_param(rng, (N_LABELS, embed_dim)),
            "out.wh": T.xavier_param(rng, hidden_dim, vocab_size),
            "out.wy": T.xavier_param(rng, embed_dim, vocab_size),
            "out.b": T.zeros((vocab_size,), requires_grad=True),
            "prior": _prior_param(prior),
        }
        _add_lstm(self.params, "lstm", embed_dim, hidden_dim, rng)

    def batch_loss(self, items, rng=None):
        """-log p(x|y) summed over a batch of (ids, label) clauses; each
        step's logits read its clause's label embedding."""
        p = self.params
        id_lists, labels = _split_items(items)
        base, targets, lengths = self._lm_base(id_lists)
        v_y = T.embedding(p["lab_emb"], np.repeat(labels, lengths))
        nll = T.cross_entropy(base + T.matmul(v_y, p["out.wy"]), targets)
        return nll, {"reconstruction": float(nll.data)}

    def loss(self, ids, label, rng=None):
        return self.batch_loss([(ids, label)], rng)

    def _loglik(self, base, label_tilts, targets, lengths):
        """log p(x|y), (S, I), of each segment of base under each of its
        label tilts (S, I, V)."""
        out = T.factored_loglik(base, label_tilts, np.zeros((1, self.vocab_size)), targets, lengths)
        return T.reshape(out, out.shape[:2])


class LatentClassLMModel(_BayesRuleClassifier):
    """ClassLMModel plus a marginalized discrete latent c."""

    consumes = "clause"

    def __init__(self, vocab_size, prior, rng, embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM,
                 n_latent=LATENT_VALUES):
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.n_latent = n_latent
        self.params = {
            "emb": T.uniform_param(rng, (vocab_size, embed_dim)),
            "lab_emb": T.uniform_param(rng, (N_LABELS, embed_dim)),
            "lat_emb": T.uniform_param(rng, (n_latent, embed_dim)),
            "lat_w": T.uniform_param(rng, (n_latent, embed_dim)),
            "lat_b": T.zeros((n_latent,), requires_grad=True),
            "out.wh": T.xavier_param(rng, hidden_dim, vocab_size),
            "out.wy": T.xavier_param(rng, embed_dim, vocab_size),
            "out.wc": T.xavier_param(rng, embed_dim, vocab_size),
            "out.b": T.zeros((vocab_size,), requires_grad=True),
            "prior": _prior_param(prior),
        }
        _add_lstm(self.params, "lstm", embed_dim, hidden_dim, rng)

    def latent_log_prior(self):
        """log p(c), scores being the rowwise w_c . v_c + b_c."""
        p = self.params
        scores = T.sum_(p["lat_w"] * p["lat_emb"], axis=1) + p["lat_b"]
        return T.log_softmax(scores, axis=-1)

    def _loglik(self, base, label_tilts, targets, lengths):
        """log p(x|y) = log sum_c p(x|c, y) p(c), (S, I), of each segment of
        base under each of its label tilts (S, I, V); one factored_loglik
        shared by training and prediction."""
        p = self.params
        latent_tilts = T.matmul(p["lat_emb"], p["out.wc"])
        cond = T.factored_loglik(base, label_tilts, latent_tilts, targets, lengths)
        return T.logsumexp(cond + self.latent_log_prior(), axis=2)

    def batch_loss(self, items, rng=None):
        """-log p(x, y) summed over a batch of (ids, label) clauses, where
        log p(x, y) = logsumexp_c [log p(x|c,y) + log p(c)] + log p(y)."""
        p = self.params
        id_lists, labels = _split_items(items)
        base, targets, lengths = self._lm_base(id_lists)
        tilts = T.matmul(T.embedding(p["lab_emb"], labels), p["out.wy"])
        tilts = T.reshape(tilts, (labels.shape[0], 1, self.vocab_size))
        lse = self._loglik(base, tilts, targets, lengths)
        nll = -(T.sum_(lse) + float(np.log(p["prior"].data[labels]).sum()))
        return nll, {"reconstruction": float(nll.data)}

    def loss(self, ids, label, rng=None):
        return self.batch_loss([(ids, label)], rng)


class CtxModel:
    """Paragraph-level tagger: word BiLSTM, clause max-pool, clause BiLSTM."""

    consumes = "paragraph"

    def __init__(self, vocab_size, prior, rng, embed_dim=EMBED_DIM, hidden_dim=CTX_HIDDEN):
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.params = {
            "emb": T.uniform_param(rng, (vocab_size, embed_dim)),
            "out.w": T.xavier_param(rng, 2 * hidden_dim, N_LABELS),
            "out.b": T.zeros((N_LABELS,), requires_grad=True),
            "prior": _prior_param(prior),
        }
        _add_lstm(self.params, "wfwd", embed_dim, hidden_dim, rng)
        _add_lstm(self.params, "wbwd", embed_dim, hidden_dim, rng)
        _add_lstm(self.params, "cfwd", 2 * hidden_dim, hidden_dim, rng)
        _add_lstm(self.params, "cbwd", 2 * hidden_dim, hidden_dim, rng)

    def _logits(self, paragraphs):
        """Label logits, (clauses, 7), of a batch of paragraphs, each a list
        of token-id lists; rows follow the clauses paragraph by paragraph.

        The word BiLSTM runs over each paragraph's tokens as one sequence,
        each clause's states are max-pooled, and the clause BiLSTM runs
        over each paragraph's clause vectors; every LSTM direction is one
        lstm_seq over the whole batch."""
        if not paragraphs or not all(len(par) for par in paragraphs):
            raise DataError("empty paragraph")
        ids, clause_lengths = concat_ids([ids for par in paragraphs for ids in par], self.vocab_size)
        counts = np.array([len(par) for par in paragraphs])
        word_lengths = np.add.reduceat(clause_lengths, np.cumsum(counts) - counts)
        p, h = self.params, self.hidden_dim
        x = T.embedding(p["emb"], ids)
        states = T.concat([_run_lstm(x, p, "wfwd", h, word_lengths),
                           _run_lstm(x, p, "wbwd", h, word_lengths, reverse=True)], axis=1)
        cx = T.segment_max(states, clause_lengths)
        cstates = T.concat([_run_lstm(cx, p, "cfwd", h, counts),
                            _run_lstm(cx, p, "cbwd", h, counts, reverse=True)], axis=1)
        return T.affine(cstates, p["out.w"], p["out.b"])

    def batch_loss(self, items, rng=None):
        """Cross-entropy summed over every clause of a batch of
        (token-id lists, labels) paragraphs."""
        labels = np.array([int(label) for _, par_labels in items for label in par_labels])
        nll = T.cross_entropy(self._logits([id_lists for id_lists, _ in items]), labels)
        return nll, {"classification": float(nll.data)}

    def paragraph_loss(self, id_lists, labels, rng=None):
        return self.batch_loss([(id_lists, labels)], rng)

    def batch_probs(self, paragraphs):
        """Label probabilities, (clauses, 7), of a batch of paragraphs in one
        pass; rows follow the clauses paragraph by paragraph."""
        return T.softmax(self._logits(paragraphs), axis=-1).data

    def predict_paragraph_probs(self, id_lists):
        """Per-clause probability vectors for one paragraph."""
        return self.batch_probs([id_lists])
