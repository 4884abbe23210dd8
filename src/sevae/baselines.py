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

All label ties break toward the lowest label code. The empirical label
prior rides along as a non-trainable named parameter so checkpoints are
self-contained.
"""

import numpy as np

from . import kernels
from . import tensor as T
from .data import N_LABELS, Vocab
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


def _run_lstm(x, params, name, hidden):
    zeros = T.Tensor(np.zeros(hidden))
    return T.lstm_seq(x, params[f"{name}.wx"], params[f"{name}.whT"], params[f"{name}.b"], zeros, zeros)


def _check_ids(ids, vocab_size):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise DataError("cannot process an empty token sequence")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise DataError(f"token id out of range [0, {vocab_size})")
    return ids


def _eval_hidden_states(params, name, ids, hidden):
    """Prediction-path LSTM run on raw arrays (no tape, no gradients)."""
    inputs = np.concatenate(([Vocab.BOS], ids))
    targets = np.concatenate((ids, [Vocab.EOS]))
    x = params["emb"].data[inputs]
    xw = x @ params[f"{name}.wx"].data + params[f"{name}.b"].data
    zeros = np.zeros(hidden)
    hs, _, _ = kernels.lstm_forward(xw, params[f"{name}.whT"].data, zeros, zeros)
    return hs, targets


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

    def _logits(self, ids):
        ids = _check_ids(ids, self.vocab_size)
        x = T.embedding(self.params["emb"], ids)
        pooled = T.mean(_run_lstm(x, self.params, "lstm", self.hidden_dim), axis=0)
        return T.affine(pooled, self.params["out.w"], self.params["out.b"])

    def loss(self, ids, label, rng=None):
        nll = T.cross_entropy(self._logits(ids), int(label))
        return nll, {"classification": float(nll.data)}

    def predict_probs(self, ids):
        return T.softmax(self._logits(ids), axis=-1).data.copy()


class _BayesRuleClassifier:
    """p(y|x) for a model whose joint_scores(ids) gives log p(x, y) per label."""

    def predict_probs(self, ids):
        scores = self.joint_scores(ids)
        shifted = scores - scores.max()
        e = np.exp(shifted)
        return e / e.sum()


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

    def _hidden_states(self, ids):
        ids = _check_ids(ids, self.vocab_size)
        inputs = np.concatenate(([Vocab.BOS], ids))
        targets = np.concatenate((ids, [Vocab.EOS]))
        x = T.embedding(self.params["emb"], inputs)
        hs = _run_lstm(x, self.params, "lstm", self.hidden_dim)
        return hs, inputs, targets

    def _label_logits(self, hs, n_steps, label):
        p = self.params
        v_y = T.embedding(p["lab_emb"], np.array([int(label)]))
        tilt = T.repeat_row(T.reshape(v_y, (v_y.shape[1],)), n_steps)
        return T.affine(hs, p["out.wh"], p["out.b"]) + T.matmul(tilt, p["out.wy"])

    def loglik(self, ids, label):
        """log p(x|y): next-token log-likelihood including the EOS step."""
        hs, inputs, targets = self._hidden_states(ids)
        logits = self._label_logits(hs, inputs.shape[0], label)
        return -T.cross_entropy(logits, targets)

    def loss(self, ids, label, rng=None):
        nll = -self.loglik(ids, label)
        return nll, {"reconstruction": float(nll.data)}

    def joint_scores(self, ids):
        """log p(x|y) + log p(y) for every label, hidden states shared."""
        p = self.params
        ids = _check_ids(ids, self.vocab_size)
        hs, targets = _eval_hidden_states(p, "lstm", ids, self.hidden_dim)
        base = hs @ p["out.wh"].data + p["out.b"].data
        tilts = p["lab_emb"].data @ p["out.wy"].data
        no_col = np.zeros((1, self.vocab_size))
        logliks = T.factored_loglik(base, tilts, no_col, targets).data[:, 0]
        return logliks + np.log(p["prior"].data)


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

    def _marginal(self, base, label_tilts, targets):
        """log sum_c p(x|c, y) p(c) for each row of label_tilts, one (rows, C)
        factored_loglik shared by training and prediction."""
        p = self.params
        latent_tilts = T.matmul(p["lat_emb"], p["out.wc"])
        cond = T.factored_loglik(base, label_tilts, latent_tilts, targets)
        return T.logsumexp(cond + self.latent_log_prior(), axis=1)

    def marginal_loglik(self, ids, label):
        """log p(x, y) = logsumexp_c [log p(x|c,y) + log p(c)] + log p(y)."""
        p = self.params
        ids = _check_ids(ids, self.vocab_size)
        inputs = np.concatenate(([Vocab.BOS], ids))
        targets = np.concatenate((ids, [Vocab.EOS]))
        hs = _run_lstm(T.embedding(p["emb"], inputs), p, "lstm", self.hidden_dim)
        base = T.affine(hs, p["out.wh"], p["out.b"])
        v_y = T.embedding(p["lab_emb"], np.array([int(label)]))
        lse = self._marginal(base, T.matmul(v_y, p["out.wy"]), targets)
        return T.sum_(lse) + float(np.log(p["prior"].data[int(label)]))

    def loss(self, ids, label, rng=None):
        nll = -self.marginal_loglik(ids, label)
        return nll, {"reconstruction": float(nll.data)}

    def joint_scores(self, ids):
        """Marginal log p(x, y) per label on the raw-array prediction path."""
        p = self.params
        ids = _check_ids(ids, self.vocab_size)
        hs, targets = _eval_hidden_states(p, "lstm", ids, self.hidden_dim)
        base = hs @ p["out.wh"].data + p["out.b"].data
        tilts_y = p["lab_emb"].data @ p["out.wy"].data
        return self._marginal(base, tilts_y, targets).data + np.log(p["prior"].data)


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

    def paragraph_logits(self, id_lists):
        """Per-clause label logits for one paragraph of token-id lists."""
        if not id_lists:
            raise DataError("empty paragraph")
        lengths = []
        flat = []
        for ids in id_lists:
            ids = _check_ids(ids, self.vocab_size)
            lengths.append(ids.shape[0])
            flat.append(ids)
        all_ids = np.concatenate(flat)
        x = T.embedding(self.params["emb"], all_ids)
        h = self.hidden_dim
        fwd = _run_lstm(x, self.params, "wfwd", h)
        bwd = T.flip0(_run_lstm(T.flip0(x), self.params, "wbwd", h))
        states = T.concat([fwd, bwd], axis=1)
        clause_vecs = []
        start = 0
        for length in lengths:
            clause_vecs.append(T.max_(T.narrow(states, 0, start, length), axis=0))
            start += length
        cx = T.stack(clause_vecs, axis=0)
        cfwd = _run_lstm(cx, self.params, "cfwd", h)
        cbwd = T.flip0(_run_lstm(T.flip0(cx), self.params, "cbwd", h))
        cstates = T.concat([cfwd, cbwd], axis=1)
        return T.affine(cstates, self.params["out.w"], self.params["out.b"])

    def paragraph_loss(self, id_lists, labels, rng=None):
        logits = self.paragraph_logits(id_lists)
        nll = T.cross_entropy(logits, np.asarray([int(l) for l in labels]))
        return nll, {"classification": float(nll.data)}

    def predict_paragraph_probs(self, id_lists):
        """Per-clause probability vectors for one paragraph."""
        return T.softmax(self.paragraph_logits(id_lists), axis=-1).data.copy()
