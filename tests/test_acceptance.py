"""Acceptance gate: nine release criteria, one test (and one printed
verdict line) per criterion.

Each criterion states its own tolerance and budget; oracles are
implemented independently inside this file. The licensed-corpus fidelity
check skips (never fails) when the corpus is not installed.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sevae import tensor as T
from sevae import vae
from sevae.data import (
    SEType, Split, Vocab, cross_genre_split, label_counts, load_corpus,
    make_synthetic_corpus, subsample_per_label,
)
from sevae.gradcheck import DEFAULT_STEP, DEFAULT_TOL, OBJECTIVES, gradient_suite
from sevae.harness import (
    TrainConfig, aggregate_sweep, compute_metrics, evaluate, load_checkpoint,
    save_checkpoint, train,
)
from sevae.kernels import lstm_forward
from sevae.models import MODEL_NAMES, build_model, default_spec


def _verdict(criterion, detail):
    print(f"[criterion {criterion}] PASS {detail}")


# ---------------------------------------------------------------------------
# 1. every training objective passes finite-difference gradient checks


def test_criterion_1_gradient_suite():
    # the criterion's finite-difference step and tolerance are the suite's
    assert (DEFAULT_STEP, DEFAULT_TOL) == (1e-5, 1e-4)
    started = time.perf_counter()
    results = gradient_suite(seeds=(0, 1, 2))
    elapsed = time.perf_counter() - started
    assert list(results) == list(OBJECTIVES) and len(results) == 7
    for name, entry in results.items():
        assert set(entry) == {"max_rel_err", "passed", "seconds"}
        assert entry["seconds"] >= 0.0
        assert entry["passed"], f"{name}: max_rel_err {entry['max_rel_err']:.3e}"
    # the gradcheck CLI writes the results as JSON
    assert json.loads(json.dumps(results)) == results
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s"
    worst = max(entry["max_rel_err"] for entry in results.values())
    _verdict(1, f"7 objectives x 3 seeds, worst rel err {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. closed-form KL: exact hand values plus Monte-Carlo agreement


def _gaussian(mu, lv):
    return vae.LatentGaussian(
        T.Tensor(np.asarray(mu, dtype=np.float64)),
        T.Tensor(np.asarray(lv, dtype=np.float64)),
    )


def test_criterion_2_kl_oracle():
    kl = lambda mu, lv: float(vae.kl_to_standard_normal(_gaussian(mu, lv)).data)
    assert kl([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert kl([1.0, 0.0], [0.0, 0.0]) == 0.5
    third = kl([0.0], [math.log(4.0)])
    assert abs(third - 0.5 * (4.0 - 1.0 - math.log(4.0))) <= 1e-12
    assert round(third, 6) == 0.806853

    # Monte-Carlo cross-check: E_q[log q(z) - log p(z)] from 10k draws
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        mu = rng.uniform(-0.4, 0.4, dim)
        lv = rng.uniform(-0.4, 0.4, dim)
        exact = kl(mu, lv)
        eps = rng.standard_normal((10_000, dim))
        z = mu + np.exp(0.5 * lv) * eps
        integrand = (-0.5 * eps ** 2 - 0.5 * lv + 0.5 * z ** 2).sum(axis=1)
        worst = max(worst, abs(float(integrand.mean()) - exact))
    assert worst < 0.02, f"MC deviation {worst:.4f}"
    _verdict(2, f"hand values exact, MC worst deviation {worst:.4f} < 0.02")


# ---------------------------------------------------------------------------
# 3. log-space marginalization == naive linear-space summation


def _np_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _naive_marginal(m, ids, label):
    """Independent forward pass; sums the mixture in linear space."""
    p = m.params
    inputs = np.concatenate(([Vocab.BOS], ids))
    targets = np.concatenate((ids, [Vocab.EOS]))
    emb = p["emb"].data[inputs]
    xw = emb @ p["lstm.wx"].data + p["lstm.b"].data
    zeros = np.zeros((1, m.hidden_dim))
    hs, _, _ = lstm_forward(xw, p["lstm.whT"].data, zeros, zeros,
                               np.ones(xw.shape[0], dtype=np.int64))
    base = hs @ p["out.wh"].data + p["out.b"].data + p["lab_emb"].data[label] @ p["out.wy"].data
    lat_scores = (p["lat_w"].data * p["lat_emb"].data).sum(axis=1) + p["lat_b"].data
    log_pc = _np_log_softmax(lat_scores)
    weights = []
    for c in range(p["lat_emb"].shape[0]):
        lsm = _np_log_softmax(base + p["lat_emb"].data[c] @ p["out.wc"].data)
        loglik = math.fsum(lsm[i, t] for i, t in enumerate(targets))
        weights.append(math.exp(loglik + log_pc[c]))
    return math.log(math.fsum(weights)) + math.log(p["prior"].data[label])


def test_criterion_3_marginalization_equivalence():
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(200):
        n_latent = int(rng.integers(1, 9))
        prior = rng.uniform(0.5, 1.5, 7)
        prior /= prior.sum()
        m = build_model(default_spec("lat", embed_dim=4, hidden_dim=5, n_latent=n_latent),
                        10, prior, trial)
        ids = [int(x) for x in rng.integers(5, 10, size=int(rng.integers(1, 7)))]
        label = int(rng.integers(7))
        got = -float(m.loss(ids, label)[0].data)
        worst = max(worst, abs(got - _naive_marginal(m, ids, label)))
    assert worst <= 1e-9, f"worst deviation {worst:.2e}"
    _verdict(3, f"200 instances (C<=8, len<=6), worst deviation {worst:.2e} <= 1e-9")


# ---------------------------------------------------------------------------
# 4. degenerate-model identities


def _zero(model, names):
    for name in names:
        model.params[name].data[...] = 0.0


def test_criterion_4_degenerate_identities():
    V = 12
    prior = np.full(7, 1 / 7)

    def tiny_vae(name, seed):
        spec = default_spec(name, enc_embed_dim=8, enc_layers=1, enc_heads=2, max_len=16,
                            latent_dim=4, dec_embed_dim=8, dec_hidden_dim=8, dec_layers=1,
                            dec_heads=2)
        return build_model(spec, V, prior, seed)

    rng = np.random.default_rng(4)
    z = T.Tensor(rng.standard_normal(4))
    uniform_step = math.log(1.0 / V)

    bow = tiny_vae("vae-bow", 0)
    _zero(bow, ["dec.w", "dec.b"])
    assert float(bow.decode(z, [7]).data) == pytest.approx(uniform_step, abs=1e-12)
    assert float(bow.decode(z, [7, 5, 6]).data) == pytest.approx(3 * uniform_step, abs=1e-12)

    for name in ("vae-lstm", "vae-xfmr"):
        m = tiny_vae(name, 1)
        _zero(m, ["dec.out_w", "dec.out_b"])
        got = float(m.decode(z, [5, 9, 7]).data)
        assert got == pytest.approx(4 * uniform_step, rel=1e-12), name

    glm = build_model(default_spec("gen", embed_dim=5, hidden_dim=6), V, prior, 2)
    _zero(glm, ["out.wh", "out.wy", "out.b"])
    scores = glm.joint_scores([[5, 9]])[0]
    for y in range(7):
        assert scores[y] - math.log(prior[y]) == pytest.approx(3 * uniform_step, rel=1e-12)

    disc = build_model(default_spec("disc", embed_dim=5, hidden_dim=6), V, prior, 3)
    _zero(disc, ["out.w", "out.b"])
    np.testing.assert_array_equal(disc.predict_probs([5, 6, 7]), np.full(7, 1 / 7))
    loss, _ = disc.loss([5, 6, 7], SEType.GENERIC)
    assert float(loss.data) == math.log(7.0)

    clf = tiny_vae("vae-bow", 5)
    _zero(clf, ["cls.w", "cls.b"])
    np.testing.assert_allclose(clf.classify_map([5, 6]), np.full(7, 1 / 7), atol=1e-15)

    inj = tiny_vae("vae-xfmr", 6)
    _zero(inj, ["dec.wm", "dec.wd"])
    a = float(inj.decode(T.Tensor(rng.standard_normal(4)), [5, 8, 10]).data)
    b = float(inj.decode(T.Tensor(rng.standard_normal(4)), [5, 8, 10]).data)
    assert a == b
    _verdict(4, "uniform steps log(1/V), classifier 1/7, CE == ln 7, injection-off z-free")


# ---------------------------------------------------------------------------
# 5. every model spec drives an 8-clause fixture to 100% train accuracy


def _overfit_spec(name):
    if name.startswith("vae"):
        return default_spec(name, enc_embed_dim=16, enc_layers=1, enc_heads=2,
                            max_len=32, latent_dim=8, dec_embed_dim=16,
                            dec_hidden_dim=16, dec_layers=1, dec_heads=2,
                            label_loss_weight=4.0)
    extra = {"n_latent": 4} if name == "lat" else {}
    return default_spec(name, embed_dim=32, hidden_dim=32, **extra)


def test_criterion_5_overfit_smoke(eight_clause_fixture):
    split = Split(list(eight_clause_fixture), list(eight_clause_fixture), [], "overfit")
    slowest = 0.0
    for name in MODEL_NAMES:
        started = time.perf_counter()
        for seed in (1, 2, 3):
            cfg = TrainConfig(lr=3e-3, max_epochs=200, patience=60,
                              logical_batch=4, seed=seed)
            result = train(_overfit_spec(name), split, cfg)
            report = evaluate(result.model, eight_clause_fixture, result.vocab)
            assert report.accuracy == 1.0, f"{name} seed={seed}: {report.accuracy}"
            assert len(result.log) <= 200
        elapsed = time.perf_counter() - started
        assert elapsed < 180.0, f"{name} took {elapsed:.0f}s for 3 seeds"
        slowest = max(slowest, elapsed)
    _verdict(5, f"7 specs x 3 seeds all reach 100%, slowest spec {slowest:.0f}s")


# ---------------------------------------------------------------------------
# 6. metrics match a brute-force scorer; all-STATE baseline exact


def _naive_metrics(gold, predicted):
    n = len(gold)
    acc = math.fsum(1.0 for g, p in zip(gold, predicted) if g == p) / n
    f1s = []
    for c in range(7):
        tp = sum(1 for g, p in zip(gold, predicted) if g == c and p == c)
        gold_c = sum(1 for g in gold if g == c)
        pred_c = sum(1 for p in predicted if p == c)
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / gold_c if gold_c else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return acc, math.fsum(f1s) / 7.0


def test_criterion_6_metric_oracle():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 300))
        gold = rng.integers(0, 7, size=n).tolist()
        pred = rng.integers(0, 7, size=n).tolist()
        acc, macro, _, _ = compute_metrics(gold, pred)
        ref_acc, ref_macro = _naive_metrics(gold, pred)
        worst = max(worst, abs(acc - ref_acc), abs(macro - ref_macro))
    assert worst <= 1e-12

    gold = [c for c in range(7) for _ in range(6)]
    acc, macro, _, _ = compute_metrics(gold, [0] * len(gold))
    assert acc == 1.0 / 7.0
    assert macro == 1.0 / 28.0
    _verdict(6, f"500 random sets within {worst:.1e}; all-STATE scores 1/7 and 1/28 exactly")


# ---------------------------------------------------------------------------
# 7. licensed-corpus fidelity (skipped when the corpus is not installed)

_LABEL_TABLE = {
    SEType.STATE: 18337, SEType.EVENT: 9688, SEType.REPORT: 1617,
    SEType.GENERIC: 7582, SEType.GENERALIZING: 1466, SEType.QUESTION: 1056,
    SEType.IMPERATIVE: 1046,
}
_SPLIT_SIZES = {"train.jsonl": 26283, "val.jsonl": 6571, "test.jsonl": 7937}


def test_criterion_7_dataset_fidelity():
    default = Path(__file__).resolve().parents[1] / "data" / "masc-wiki"
    data_dir = Path(os.environ.get("SEVAE_DATA_DIR", default))
    paths = {name: data_dir / name for name in _SPLIT_SIZES}
    if not all(p.exists() for p in paths.values()):
        pytest.skip(f"licensed corpus not installed under {data_dir}")
    combined = []
    for name, want in _SPLIT_SIZES.items():
        clauses = load_corpus(paths[name])
        assert len(clauses) == want, f"{name}: {len(clauses)} != {want}"
        combined.extend(clauses)
    counts = label_counts(combined)
    for label, want in _LABEL_TABLE.items():
        assert counts[label] == want, f"{label.name}: {counts[label]} != {want}"
    _verdict(7, "split sizes and per-label counts match the reference table")


# ---------------------------------------------------------------------------
# 8. low-resource trend on the synthetic corpus
#
# Calibrated protocol (measured on this implementation): at k=4 the
# generative scorers sit near 0.69-0.70 mean accuracy while disc/vae-xfmr
# sit near 0.65-0.66; at k=1000 vae-xfmr breaks the order-twin ceiling
# (~0.99) that caps gen (~0.71).


def _trend_spec(name):
    if name == "vae-xfmr":
        return default_spec(name, enc_embed_dim=16, enc_layers=1, enc_heads=2,
                            max_len=32, latent_dim=8, dec_embed_dim=16,
                            dec_hidden_dim=16, dec_layers=1, dec_heads=2,
                            label_loss_weight=8.0)
    extra = {"n_latent": 4} if name == "lat" else {}
    return default_spec(name, embed_dim=32, hidden_dim=32, **extra)


def _trend_mean(name, k, pool, val, test, cfg_of):
    accs = []
    for seed in (1, 2, 3, 4, 5):
        split = subsample_per_label(pool, k, seed, val, test)
        result = train(_trend_spec(name), split, cfg_of(seed))
        accs.append(evaluate(result.model, test, result.vocab).accuracy)
    return float(np.mean(accs))


def test_criterion_8_low_resource_trend():
    started = time.perf_counter()
    pool = make_synthetic_corpus(1000, seed=101)
    val = make_synthetic_corpus(20, seed=102)
    test = make_synthetic_corpus(50, seed=103)

    small = lambda seed: TrainConfig(lr=3e-3, max_epochs=60, patience=8,
                                     logical_batch=4, seed=seed)
    large = lambda seed: TrainConfig(lr=1.5e-3, max_epochs=3, patience=3,
                                     logical_batch=16, seed=seed)

    k4 = {name: _trend_mean(name, 4, pool, val, test, small)
          for name in ("gen", "lat", "disc", "vae-xfmr")}
    k1000 = {name: _trend_mean(name, 1000, pool, val, test, large)
             for name in ("gen", "vae-xfmr")}
    elapsed = time.perf_counter() - started

    for generative in ("gen", "lat"):
        for datahungry in ("disc", "vae-xfmr"):
            assert k4[generative] > k4[datahungry], (
                f"k=4: {generative} {k4[generative]:.4f} !> "
                f"{datahungry} {k4[datahungry]:.4f}")
    assert k1000["vae-xfmr"] > k1000["gen"], (
        f"k=1000: vae-xfmr {k1000['vae-xfmr']:.4f} !> gen {k1000['gen']:.4f}")
    assert elapsed < 1800.0, f"trend runs took {elapsed:.0f}s"
    _verdict(8, (f"k=4 means gen {k4['gen']:.3f} lat {k4['lat']:.3f} > "
                 f"disc {k4['disc']:.3f} vae-xfmr {k4['vae-xfmr']:.3f}; "
                 f"k=1000 vae-xfmr {k1000['vae-xfmr']:.3f} > gen {k1000['gen']:.3f}; "
                 f"{elapsed:.0f}s"))


# ---------------------------------------------------------------------------
# 9. protocol mechanics


def test_criterion_9_protocol_mechanics(eight_clause_fixture, tmp_path):
    pool = make_synthetic_corpus(40, seed=9, genres=("news", "fiction", "blog"))

    # subsampling: a pure function of (k, seed), different seeds redraw
    coords = lambda split: [cl.coords for cl in split.train]
    a = subsample_per_label(pool, 5, 11)
    b = subsample_per_label(pool, 5, 11)
    c = subsample_per_label(pool, 5, 12)
    assert coords(a) == coords(b)
    assert coords(a) != coords(c)
    assert len(a.train) == 35

    # leave-one-genre-out: exact partition of the corpus
    split = cross_genre_split(pool, "news")
    assert {cl.genre for cl in split.test} == {"news"}
    assert len(split.test) == sum(1 for cl in pool if cl.genre == "news")
    assert all(cl.genre != "news" for cl in split.train + split.validation)
    train_coords = {cl.coords for cl in split.train}
    val_coords = {cl.coords for cl in split.validation}
    assert not train_coords & val_coords
    everything = train_coords | val_coords | {cl.coords for cl in split.test}
    assert everything == {cl.coords for cl in pool}

    # 5-seed aggregation arithmetic against fsum
    rows = [("m", 4, s, 0.1 * s, 0.05 * s) for s in (1, 2, 3, 4, 5)]
    ((_, _, mean_acc, std_acc, mean_f1, std_f1),) = aggregate_sweep(rows)
    accs = [r[3] for r in rows]
    ref_mean = math.fsum(accs) / 5
    ref_std = math.sqrt(math.fsum((x - ref_mean) ** 2 for x in accs) / 5)
    assert abs(mean_acc - ref_mean) <= 1e-12 and abs(std_acc - ref_std) <= 1e-12
    assert abs(mean_f1 - ref_mean / 2) <= 1e-12

    # checkpoint round trip is bit-exact and deterministic on disk
    cfg = TrainConfig(lr=3e-3, max_epochs=1, patience=1, logical_batch=4, seed=1)
    result = train(default_spec("disc", embed_dim=8, hidden_dim=8),
                   Split(list(eight_clause_fixture), [], [], "ck"), cfg)
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(result, path_a)
    save_checkpoint(result, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    model, vocab, _meta = load_checkpoint(path_a)
    for name, p in result.model.params.items():
        assert np.array_equal(p.data, model.params[name].data), name
    assert vocab.to_json() == result.vocab.to_json()
    _verdict(9, "subsampling, genre partition, aggregation, checkpoints all hold")
