"""Optimizer, metrics, training loop, checkpoints, and protocol outputs.

Oracles are independent in-test implementations: a plain-Python Adam loop,
fsum-based metric counting, and byte-level surgery on serialized checkpoints.
"""

import json
import math
import os
import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevae import cli, harness
from sevae.data import (
    RUN_TOKENS, Clause, SEType, Split, Vocab, atomic_write, build_vocab, label_prior, paragraphs_of,
    tagging_runs, write_jsonl, write_tsv,
)
from sevae.errors import CheckpointError, DataError, NumericsError
from sevae.harness import (
    ADAM_BETAS, ADAM_EPS, CHECKPOINT_MAGIC, TrainConfig, adam_step, aggregate_sweep, clip_global_norm,
    compute_metrics, default_train_config, evaluate, export_latents, init_adam_state,
    TrainResult, load_checkpoint, predict_codes, save_checkpoint, tag_probs, train,
)
from sevae.models import MODEL_NAMES, build_model, default_spec, spec_hash
from sevae.tensor import Tape, Tensor


def tiny_spec(name, **overrides):
    if name.startswith("vae"):
        base = dict(enc_embed_dim=8, enc_layers=1, enc_heads=2, max_len=32,
                    latent_dim=4, dec_embed_dim=8, dec_hidden_dim=8,
                    dec_layers=1, dec_heads=2)
    else:
        base = dict(embed_dim=8, hidden_dim=8)
    base.update(overrides)
    return default_spec(name, **base)


def overfit_split(clauses):
    return Split(list(clauses), list(clauses), [], "tiny-overfit")


# ---------------------------------------------------------------------------
# configuration


def test_train_config_defaults_and_json_round_trip():
    cfg = TrainConfig()
    assert cfg.lr == 1e-3
    assert cfg.weight_decay == 0.0
    assert cfg.logical_batch == 32
    assert cfg.max_epochs == 50
    assert cfg.patience == 5
    assert cfg.seed == 0
    assert cfg.grad_clip == 5.0
    assert cfg.beta_warmup_steps == 0

    blob = cfg.to_json()
    assert len(blob) == 8
    # Adam's betas and eps are constants, not settings
    assert ADAM_BETAS == (0.9, 0.999) and ADAM_EPS == 1e-8
    # to_json feeds straight back into the constructor
    again = TrainConfig(**json.loads(json.dumps(blob)))
    assert again.to_json() == blob


def test_train_config_validation():
    with pytest.raises(DataError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(DataError, match="patience"):
        TrainConfig(patience=0)
    with pytest.raises(DataError, match="logical_batch"):
        TrainConfig(logical_batch=0)
    with pytest.raises(DataError, match="beta_warmup_steps"):
        TrainConfig(beta_warmup_steps=-1)


@pytest.mark.parametrize("field,value", [
    ("max_epochs", 0), ("max_epochs", -3),
    ("weight_decay", -1e-4), ("weight_decay", float("nan")),
    ("grad_clip", -1.0), ("grad_clip", float("nan")),
    ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", float("inf")), ("grad_clip", float("inf")),
])
def test_train_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(DataError, match=field):
        TrainConfig(**{field: value})


def test_train_config_range_edges_are_accepted():
    # grad_clip 0 keeps meaning "no clipping"
    cfg = TrainConfig(max_epochs=1, weight_decay=0.0, grad_clip=0.0)
    assert clip_global_norm({"w": np.full(3, 1e6)}, cfg.grad_clip)["w"][0] == 1e6


def test_default_train_config_lr_by_family():
    assert default_train_config("disc").lr == 1e-3
    assert default_train_config("ctx").lr == 1e-3
    assert default_train_config("vae-bow").lr == 5e-4
    assert default_train_config("vae-xfmr").lr == 5e-4
    assert default_train_config("vae-lstm", lr=2e-3).lr == 2e-3
    assert default_train_config("disc", max_epochs=7).max_epochs == 7


# ---------------------------------------------------------------------------
# optimizer


def test_adam_single_step_hand_value():
    # p=0, g=1: m_hat = 1, v_hat = 1, so the step is lr/(1+eps) ~ lr
    p = Tensor(np.zeros(1), requires_grad=True)
    params = {"p": p}
    state = init_adam_state(params)
    cfg = TrainConfig(lr=0.1)
    adam_step(params, {"p": np.ones(1)}, state, cfg)
    assert state["t"] == 1
    assert abs(p.data[0] - (-0.1)) < 1e-8


def test_adam_matches_reference_loop(rng):
    shapes = {"a": (3, 2), "b": (4,)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    mirror = {k: params[k].data.copy() for k in params}
    state = init_adam_state(params)
    cfg = TrainConfig(lr=0.01, grad_clip=1e9)

    # independent reference: textbook bias-corrected Adam, elementwise
    m = {k: np.zeros(shapes[k]) for k in shapes}
    v = {k: np.zeros(shapes[k]) for k in shapes}
    for t in range(1, 6):
        grads = {k: rng.normal(size=shapes[k]) for k in shapes}
        adam_step(params, {k: g.copy() for k, g in grads.items()}, state, cfg)
        for k in shapes:
            m[k] = 0.9 * m[k] + 0.1 * grads[k]
            v[k] = 0.999 * v[k] + 0.001 * grads[k] ** 2
            mh = m[k] / (1.0 - 0.9 ** t)
            vh = v[k] / (1.0 - 0.999 ** t)
            mirror[k] = mirror[k] - 0.01 * mh / (np.sqrt(vh) + 1e-8)
    for k in shapes:
        np.testing.assert_allclose(params[k].data, mirror[k], rtol=0, atol=1e-14)


def test_adam_rejects_unknown_param_and_bad_shape():
    params = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    state = init_adam_state(params)
    cfg = TrainConfig()
    with pytest.raises(DataError, match="unknown parameter"):
        adam_step(params, {"nope": np.zeros((2, 2))}, state, cfg)
    with pytest.raises(DataError, match="shape"):
        adam_step(params, {"w": np.zeros(3)}, state, cfg)
    # frozen arrays have no moment slots, so a gradient for one is rejected
    params["frozen"] = Tensor(np.zeros(2), requires_grad=False)
    with pytest.raises(DataError, match="unknown parameter"):
        adam_step(params, {"frozen": np.zeros(2)}, state, cfg)


def test_adam_weight_decay_is_decoupled():
    # decay multiplies the already-updated value by (1 - lr*wd) instead of
    # feeding the decay term through the moment estimates
    def one_step(wd):
        p = Tensor(np.array([2.0]), requires_grad=True)
        params = {"p": p}
        adam_step(params, {"p": np.array([0.5])}, init_adam_state(params),
                  TrainConfig(lr=0.1, weight_decay=wd))
        return p.data[0]

    plain = one_step(0.0)
    decayed = one_step(0.25)
    assert abs(decayed - plain * (1.0 - 0.1 * 0.25)) < 1e-15


def test_adam_is_bit_identical_to_the_out_of_place_update(rng):
    # the in-place step keeps the textbook expressions' operation order, so
    # it matches them bit for bit, clipping and decoupled decay included
    shapes = {"a": (5, 3), "b": (7,)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    mirror = {k: params[k].data.copy() for k in params}
    state = init_adam_state(params)
    cfg = TrainConfig(lr=0.01, grad_clip=0.5, weight_decay=0.01)
    b1, b2 = ADAM_BETAS
    m = {k: np.zeros(shapes[k]) for k in shapes}
    v = {k: np.zeros(shapes[k]) for k in shapes}
    for t in range(1, 6):
        grads = {k: rng.normal(size=shapes[k]) * 3.0 for k in shapes}
        adam_step(params, {k: g.copy() for k, g in grads.items()}, state, cfg)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm > cfg.grad_clip
        grads = {k: g * (cfg.grad_clip / norm) for k, g in grads.items()}
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, g in grads.items():
            m[k] = m[k] * b1 + (1.0 - b1) * g
            v[k] = v[k] * b2 + (1.0 - b2) * g * g
            mirror[k] = mirror[k] - cfg.lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + ADAM_EPS)
            mirror[k] = mirror[k] - cfg.lr * cfg.weight_decay * mirror[k]
    for k in shapes:
        assert np.array_equal(params[k].data, mirror[k]), k
        assert np.array_equal(state["m"][k], m[k]) and np.array_equal(state["v"][k], v[k]), k


def test_adam_step_needs_at_most_two_parameter_sized_scratch_arrays():
    shapes = {"big": (1000, 1000), "small": (500, 1000)}
    params = {k: Tensor(np.ones(s), requires_grad=True) for k, s in shapes.items()}
    grads = {k: np.full(s, 10.0) for k, s in shapes.items()}
    state = init_adam_state(params)
    cfg = TrainConfig(grad_clip=1.0, weight_decay=0.01)
    tracemalloc.start()
    try:
        adam_step(params, grads, state, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two arrays the size of the largest parameter, 8 MB each
    assert peak <= 2 * 8 * 1000 * 1000 + 64 * 1024
    # clipping was active: the gradients were scaled in place
    assert math.fsum(float(np.sum(g * g)) for g in grads.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("grad_clip", [5.0, 0.0])
def test_adam_rejects_a_non_finite_gradient_before_any_change(grad_clip):
    # clipping would scale inf by 0 (NaN), and an unclipped step would write
    # inf into the moments: either way the check comes before both
    params = build_model(tiny_spec("disc"), 12, np.full(7, 1 / 7), seed=0).params
    state = init_adam_state(params)
    cfg = TrainConfig(grad_clip=grad_clip)
    trainable = [k for k, p in params.items() if p.requires_grad]
    adam_step(params, {k: np.ones_like(params[k].data) for k in trainable}, state, cfg)
    before = {k: (params[k].data.copy(), state["m"][k].copy(), state["v"][k].copy())
              for k in trainable}
    grads = {k: np.ones_like(params[k].data) for k in trainable}
    grads["emb"][3, 1] = np.inf
    with pytest.raises(NumericsError, match="parameter 'emb' at Adam step 2"):
        adam_step(params, grads, state, cfg)
    assert state["t"] == 1
    for k, arrays in before.items():
        for got, want in zip((params[k].data, state["m"][k], state["v"][k]), arrays):
            assert np.array_equal(got, want), k


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_global_norm({k: g.copy() for k, g in grads.items()}, 2.5)
    total = math.fsum(float(np.sum(g * g)) for g in clipped.values())
    assert abs(math.sqrt(total) - 2.5) < 1e-12
    np.testing.assert_allclose(clipped["a"], [1.5], atol=1e-12)
    np.testing.assert_allclose(clipped["b"], [2.0], atol=1e-12)

    # under the threshold: untouched
    small = {"a": np.array([0.3, 0.4])}
    out = clip_global_norm(small, 5.0)
    assert out["a"] is small["a"]
    # non-positive threshold disables clipping
    big = {"a": np.array([100.0])}
    assert clip_global_norm(big, 0.0)["a"] is big["a"]


# ---------------------------------------------------------------------------
# metrics


def naive_metrics(gold, predicted):
    """Third implementation: dict counting plus fsum, no numpy."""
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


def test_metrics_against_naive_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(1, 400))
        gold = rng.integers(0, 7, size=n).tolist()
        pred = rng.integers(0, 7, size=n).tolist()
        acc, macro, per_class, confusion = compute_metrics(gold, pred)
        ref_acc, ref_macro = naive_metrics(gold, pred)
        assert abs(acc - ref_acc) <= 1e-12
        assert abs(macro - ref_macro) <= 1e-12
        assert confusion.sum() == n


def test_all_state_predictor_exact_values():
    # balanced gold over all 7 classes, constant STATE prediction
    gold = [c for c in range(7) for _ in range(5)]
    pred = [0] * len(gold)
    acc, macro, per_class, confusion = compute_metrics(gold, pred)
    assert acc == 1.0 / 7.0
    assert macro == 1.0 / 28.0
    assert per_class[0]["f1"] == 0.25
    assert per_class[0]["recall"] == 1.0
    assert all(per_class[c]["f1"] == 0.0 for c in range(1, 7))


def test_confusion_orientation_and_identities(rng):
    gold = [2, 2, 5, 0]
    pred = [5, 2, 5, 1]
    acc, macro, per_class, confusion = compute_metrics(gold, pred)
    # rows are gold, columns are predicted
    assert confusion[2, 5] == 1
    assert confusion[2, 2] == 1
    assert confusion[5, 5] == 1
    assert confusion[0, 1] == 1
    assert confusion.sum() == 4
    assert acc == np.trace(confusion) / confusion.sum()
    for c in range(7):
        assert per_class[c]["support"] == int(confusion[c, :].sum())


def test_metric_zero_division_conventions():
    # class 3 never appears at all: precision, recall, f1 all 0, support 0
    acc, macro, per_class, _ = compute_metrics([0, 1], [1, 0])
    assert per_class[3] == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0}
    # class predicted but never gold: recall undefined -> 0
    _, _, per_class, _ = compute_metrics([0, 0], [0, 4])
    assert per_class[4]["recall"] == 0.0
    assert per_class[4]["precision"] == 0.0
    assert per_class[4]["support"] == 0
    assert acc == 0.0


def test_metrics_input_validation():
    with pytest.raises(DataError):
        compute_metrics([], [])
    with pytest.raises(DataError):
        compute_metrics([1, 2], [1])


def test_evaluate_report_shape(eight_clause_fixture):
    vocab = build_vocab(eight_clause_fixture, 1)
    prior = label_prior(eight_clause_fixture)
    model = build_model(tiny_spec("disc"), len(vocab), prior, seed=3)
    report = evaluate(model, eight_clause_fixture, vocab, {"run": "smoke"})
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.macro_f1 <= 1.0
    assert report.metadata == {"run": "smoke"}
    assert report.confusion.shape == (7, 7)
    assert report.confusion.sum() == len(eight_clause_fixture)
    blob = report.to_json()
    assert set(blob) == {"accuracy", "macro_f1", "per_class", "confusion", "metadata"}
    assert len(blob["confusion"]) == 7 and len(blob["confusion"][0]) == 7
    json.dumps(blob)  # must already be serializable
    with pytest.raises(DataError, match="zero clauses"):
        evaluate(model, [], vocab)


ALL_MODELS = ("disc", "gen", "lat", "ctx", "vae-bow", "vae-lstm", "vae-xfmr")


def batch_of_one_probs(model, clauses, vocab):
    """Each clause's probabilities from one-unit batch_probs calls: one per
    clause, or one per paragraph."""
    if model.consumes == "paragraph":
        rows = {}
        for par in paragraphs_of(clauses):
            probs = model.batch_probs([[vocab.encode(cl.tokens) for cl in par]])
            for cl, row in zip(par, probs):
                rows[cl.coords] = row
        return np.array([rows[cl.coords] for cl in clauses])
    return np.array([model.batch_probs([vocab.encode(cl.tokens)])[0] for cl in clauses])


def assert_batched_matches_batch_of_one(model, clauses, vocab):
    want = batch_of_one_probs(model, clauses, vocab)
    np.testing.assert_allclose(tag_probs(model, clauses, vocab), want, rtol=1e-12, atol=0)
    assert predict_codes(model, clauses, vocab) == want.argmax(axis=1).tolist()


def test_predict_codes_paragraph_consumer(eight_clause_fixture):
    vocab = build_vocab(eight_clause_fixture, 1)
    prior = label_prior(eight_clause_fixture)
    model = build_model(tiny_spec("ctx"), len(vocab), prior, seed=5)
    assert model.consumes == "paragraph"
    codes = predict_codes(model, eight_clause_fixture, vocab)
    assert len(codes) == len(eight_clause_fixture)
    # agrees with the paragraph-level calls clause by clause, in any input order
    assert_batched_matches_batch_of_one(model, eight_clause_fixture, vocab)
    assert_batched_matches_batch_of_one(model, eight_clause_fixture[::-1], vocab)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_tagging_runs_split_long_input_and_match_batch_of_one(name, eight_clause_fixture):
    # 20 copies of the fixture, 160 clauses in 80 paragraphs: more than
    # RUN_TOKENS tokens, so several runs
    clauses = [Clause(cl.text, cl.label, cl.genre, f"{cl.doc_id}-{rep}", cl.par_id, cl.clause_idx)
               for rep in range(20) for cl in eight_clause_fixture]
    sizes = [len(cl.tokens) for cl in clauses]
    assert sum(sizes) > RUN_TOKENS and len(tagging_runs(sizes, padded=False)) > 1
    vocab = build_vocab(eight_clause_fixture, 1)
    model = build_model(tiny_spec(name), len(vocab), label_prior(eight_clause_fixture), seed=5)
    assert_batched_matches_batch_of_one(model, clauses, vocab)


def test_tagging_runs_bounds():
    for padded in (False, True):
        assert tagging_runs([], padded) == []
        assert tagging_runs([3, 4, 5], padded) == [(0, 3)]
        assert tagging_runs([RUN_TOKENS // 2, RUN_TOKENS // 2, 1], padded) == [(0, 2), (2, 3)]
        # a unit longer than the bound runs alone, wherever it stands
        assert tagging_runs([3, RUN_TOKENS + 1, 3], padded) == [(0, 1), (1, 2), (2, 3)]
        assert tagging_runs([RUN_TOKENS + 1], padded) == [(0, 1)]


def test_tagging_runs_bound_the_padded_size():
    # a run pads to its longest unit: the 500-token clause closes its run
    # after one unit, though 500 + 12 tokens would fit unpadded
    assert tagging_runs([RUN_TOKENS - 12, 12, 1], padded=True) == [(0, 1), (1, 3)]
    # one 128-token clause then 384 one-token clauses would pad to 385 x 128
    sizes = [128] + [1] * 384
    runs = tagging_runs(sizes, padded=True)
    assert runs == [(0, 4), (4, 385)]
    for lo, hi in runs:
        assert (hi - lo) * max(sizes[lo:hi]) <= RUN_TOKENS


def test_tagging_runs_bound_the_summed_size_when_stored_back_to_back():
    assert tagging_runs([RUN_TOKENS - 12, 12, 1], padded=False) == [(0, 2), (2, 3)]
    assert tagging_runs([128] + [1] * 384, padded=False) == [(0, 385)]
    sizes = [120] + [5] * 60
    assert tagging_runs(sizes, padded=False) == [(0, 61)]
    assert tagging_runs(sizes, padded=True) == [(0, 4), (4, 61)]
    sizes = [100] * 12
    runs = tagging_runs(sizes, padded=False)
    assert runs == [(0, 5), (5, 10), (10, 12)]
    for lo, hi in runs:
        assert sum(sizes[lo:hi]) <= RUN_TOKENS


@pytest.mark.parametrize("name,tag,run_pass", [
    *(pytest.param(name, tag_probs, "batch_probs", id=name) for name in ("disc", "ctx", "vae-bow")),
    pytest.param("vae-bow", export_latents, "posterior_means", id="vae-bow-latents"),
])
def test_tag_probs_sizes_runs_by_how_the_model_stores_them(name, tag, run_pass, monkeypatch,
                                                           eight_clause_fixture):
    # 64 clauses (32 paragraphs) of 4-7 tokens and one of 30 tokens, 374
    # tokens: back to back they fit one run, padded to 30 they do not
    long = Clause(" ".join(["w"] * 29) + " .", SEType.STATE, "news", "long", 0, 0)
    clauses = [long] + [Clause(cl.text, cl.label, cl.genre, f"{cl.doc_id}-{rep}", cl.par_id, cl.clause_idx)
                        for rep in range(8) for cl in eight_clause_fixture]
    vocab = build_vocab(eight_clause_fixture, 1)
    model = build_model(tiny_spec(name), len(vocab), label_prior(eight_clause_fixture), seed=5)
    calls = []
    original = getattr(model, run_pass)
    monkeypatch.setattr(model, run_pass, lambda units: calls.append(len(units)) or original(units))
    assert len(tag(model, clauses, vocab)) == len(clauses)
    if name == "vae-bow":
        assert len(calls) > 1
    else:
        assert len(calls) == 1


FUZZ_WORDS = ("a", "b", "c", "d", "e", "f")


@st.composite
def tagged_documents(draw):
    """One document of 1-6 clauses of 1-6 tokens (ties and one-token clauses
    are frequent, and "zz" is out of vocabulary), cut into paragraphs at
    drawn points and given in a drawn input order."""
    n = draw(st.integers(1, 6))
    clauses, par_id, clause_idx = [], 0, 0
    for pos in range(n):
        if pos and draw(st.booleans()):
            par_id, clause_idx = par_id + 1, 0
        tokens = draw(st.lists(st.sampled_from(FUZZ_WORDS + ("zz",)), min_size=1, max_size=6))
        clauses.append(Clause(" ".join(tokens), SEType.STATE, "news", "d", par_id, clause_idx, tokens))
        clause_idx += 1
    return draw(st.permutations(clauses))


@pytest.fixture(scope="module")
def fuzz_taggers():
    vocab = Vocab(FUZZ_WORDS, 1)
    return {name: (build_model(tiny_spec(name), len(vocab), np.full(7, 1 / 7), seed=3), vocab)
            for name in ALL_MODELS}


@pytest.mark.parametrize("name", ALL_MODELS)
@settings(max_examples=30, deadline=None)
@given(clauses=tagged_documents())
def test_batched_tagging_equals_batch_of_one(fuzz_taggers, name, clauses):
    model, vocab = fuzz_taggers[name]
    assert_batched_matches_batch_of_one(model, clauses, vocab)


def _tagged_or_error(tag, model, clauses, vocab):
    """tag's rows as one array, or the message of the NumericsError it
    raises."""
    try:
        rows = tag(model, clauses, vocab)
    except NumericsError as exc:
        return str(exc)
    return np.array([row[-1] for row in rows]) if tag is export_latents else rows


def _per_op_pass(run_pass, units):
    return run_pass(units)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(ALL_MODELS), bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]),
       pick=st.integers(0, 2**32 - 1))
def test_deferred_tagging_checks_raise_what_per_op_checks_raise(eight_clause_fixture, name, bad, pick):
    # one parameter coordinate made non-finite, or large enough to overflow
    # a product; each tagging entry point raises the NumericsError of the
    # same runs under per-op checks, or neither raises and the rows are the
    # same bits
    vocab = build_vocab(eight_clause_fixture, 1)
    model = build_model(tiny_spec(name), len(vocab), label_prior(eight_clause_fixture), seed=5)
    names = sorted(model.params)
    flat = model.params[names[pick % len(names)]].data.reshape(-1)
    flat[pick // len(names) % flat.size] = bad
    tags = (tag_probs, export_latents) if name.startswith("vae") else (tag_probs,)
    for tag in tags:
        with np.errstate(all="ignore"):
            got = _tagged_or_error(tag, model, eight_clause_fixture, vocab)
            with mock.patch.object(harness, "_checked_once", _per_op_pass):
                want = _tagged_or_error(tag, model, eight_clause_fixture, vocab)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,param", [("disc", "emb"), ("ctx", "emb"), ("vae-bow", "enc.emb"),
                                        ("vae-bow", "post.lv_b")])
def test_deferred_tagging_names_the_op_a_finite_result_hides(eight_clause_fixture, name, param):
    # inf where a later op maps it to finite values: lstm_seq's saturated
    # gates, or the clamp of a log-variance that tagging never reads
    vocab = build_vocab(eight_clause_fixture, 1)
    model = build_model(tiny_spec(name), len(vocab), label_prior(eight_clause_fixture), seed=5)
    row = vocab.encode(eight_clause_fixture[0].tokens)[0] if param.endswith("emb") else 0
    model.params[param].data[row] = np.inf
    op = "embedding" if param.endswith("emb") else "affine"
    with np.errstate(all="ignore"):
        with pytest.raises(NumericsError, match=f"output of op '{op}'"):
            tag_probs(model, eight_clause_fixture, vocab)


# ---------------------------------------------------------------------------
# training loop


def test_train_rejects_empty_training_split():
    with pytest.raises(DataError, match="empty training split"):
        train(tiny_spec("disc"), Split([], [], [], "x"), TrainConfig(max_epochs=1))


def test_train_is_deterministic(eight_clause_fixture):
    cfg = TrainConfig(max_epochs=3, patience=3, logical_batch=4, seed=11)
    split = overfit_split(eight_clause_fixture)
    first = train(tiny_spec("disc"), split, cfg)
    second = train(tiny_spec("disc"), split, cfg)
    assert first.log == second.log
    assert first.best_val_macro_f1 == second.best_val_macro_f1
    for name, p in first.model.params.items():
        assert np.array_equal(p.data, second.model.params[name].data), name


def test_train_log_records_and_hook(eight_clause_fixture):
    seen = []
    cfg = TrainConfig(max_epochs=2, patience=5, logical_batch=4, seed=0)
    result = train(tiny_spec("disc"), overfit_split(eight_clause_fixture), cfg,
                   log_hook=seen.append)
    assert seen == result.log
    assert [r["epoch"] for r in result.log] == list(range(len(result.log)))
    for record in result.log:
        assert "classification" in record
        assert "val_accuracy" in record and "val_macro_f1" in record
        assert all(math.isfinite(v) for k, v in record.items() if k != "epoch")


def test_train_without_validation_runs_all_epochs(eight_clause_fixture):
    cfg = TrainConfig(max_epochs=4, patience=1, logical_batch=8, seed=0)
    result = train(tiny_spec("disc"), Split(list(eight_clause_fixture), [], [], "s"), cfg)
    assert len(result.log) == 4
    assert all("val_accuracy" not in r for r in result.log)
    assert result.best_val_macro_f1 == -1.0


@pytest.mark.parametrize("name", ["disc", "ctx", "vae-bow"])
def test_gradients_die_before_the_next_forward(name, eight_clause_fixture, monkeypatch):
    # at most one gradient set is alive: each array an Adam step received is
    # freed by the time the next batch's forward starts
    received, checks = [], []
    real_step, real_build = harness.adam_step, harness.build_model

    def step(params, grads, state, cfg):
        received[:] = [weakref.ref(g) for g in grads.values()]
        return real_step(params, grads, state, cfg)

    def build(*args):
        model = real_build(*args)
        real_loss = model.batch_loss

        def batch_loss(*a, **kw):
            if received:
                checks.append([r() is None for r in received])
            return real_loss(*a, **kw)

        model.batch_loss = batch_loss
        return model

    monkeypatch.setattr(harness, "adam_step", step)
    monkeypatch.setattr(harness, "build_model", build)
    cfg = TrainConfig(max_epochs=2, patience=5, logical_batch=4, seed=0)
    train(tiny_spec(name), overfit_split(eight_clause_fixture), cfg)
    assert checks and all(all(dead) for dead in checks)


def test_returned_model_attains_best_validation_f1(eight_clause_fixture):
    cfg = TrainConfig(max_epochs=6, patience=2, logical_batch=4, seed=7)
    split = overfit_split(eight_clause_fixture)
    result = train(tiny_spec("disc"), split, cfg)
    logged = [r["val_macro_f1"] for r in result.log]
    assert result.best_val_macro_f1 == max(logged)
    # the returned parameters really are the best snapshot, not the last state
    report = evaluate(result.model, split.validation, result.vocab)
    assert report.macro_f1 == result.best_val_macro_f1


def test_beta_warmup_changes_the_vae_log(eight_clause_fixture):
    # beta_warmup_steps alone turns the linear warm-up on
    split = overfit_split(eight_clause_fixture)
    logs = {}
    for steps in (0, 4):
        cfg = TrainConfig(max_epochs=2, patience=5, logical_batch=8, seed=0,
                          beta_warmup_steps=steps)
        logs[steps] = train(tiny_spec("vae-bow"), split, cfg).log
    # epoch 0's loss parts come before its one update, which warm-up runs
    # at beta/4; the parameters, and so epoch 1's parts, then differ
    assert logs[4][0]["kl"] == logs[0][0]["kl"]
    assert logs[4][1]["kl"] != logs[0][1]["kl"]
    for record in logs[4]:
        assert math.isfinite(record["kl"]) and record["kl"] >= 0.0


def test_train_result_meta(eight_clause_fixture):
    cfg = TrainConfig(max_epochs=1, logical_batch=8, seed=3)
    spec = tiny_spec("disc")
    result = train(spec, overfit_split(eight_clause_fixture), cfg)
    assert result.meta == {"spec_hash": spec_hash(spec), "model": "disc",
                           "provenance": "tiny-overfit", "seed": 3}


@pytest.mark.parametrize("name", ["vae-bow", "vae-lstm", "vae-xfmr"])
def test_masked_batch_equals_the_per_clause_sum(name):
    # two encoder layers, so a full masked block runs before the CLS-only
    # one; lengths 1..6 and max_len, no two equal, in mixed order
    spec = tiny_spec(name, enc_layers=2, dec_layers=2)
    rng = np.random.default_rng(21)
    lengths = [4, 1, spec.options["max_len"], 6, 2, 5, 3]
    items = [(rng.integers(5, 12, size=n), int(rng.integers(7))) for n in lengths]
    model = build_model(spec, 12, np.full(7, 1 / 7), seed=4)

    ref_rng = np.random.default_rng(5)
    ref_parts, ref_grads = {}, {}
    for ids, label in items:
        eps = ref_rng.standard_normal(model.latent_dim)  # the per-clause draw
        with Tape() as tape:
            loss, parts = model.elbo_loss(ids, label, eps)
            item_grads = tape.backward(loss, model.params)
        for key, value in parts.items():
            ref_parts[key] = ref_parts.get(key, 0.0) + value
        for k, g in item_grads.items():
            ref_grads[k] = ref_grads[k] + g if k in ref_grads else g

    batch_rng = np.random.default_rng(5)
    with Tape() as tape:
        loss, parts = model.batch_loss(items, batch_rng)
        grads = tape.backward(loss, model.params)
    assert parts.keys() == ref_parts.keys()
    for key, want in ref_parts.items():
        assert parts[key] == pytest.approx(want, rel=1e-10), key
    assert grads.keys() == ref_grads.keys()
    for k, want in ref_grads.items():
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(grads[k], want, rtol=1e-10, atol=1e-10 * scale, err_msg=k)
    # both paths drew the same number of normals from the step stream
    assert batch_rng.random() == ref_rng.random()


def test_a_longer_clause_leaves_the_other_posterior_means():
    # pad positions are hidden from every query: padding the run to a
    # longer clause moves no other clause's posterior mean
    model = build_model(tiny_spec("vae-bow", enc_layers=2), 12, np.full(7, 1 / 7), seed=4)
    rng = np.random.default_rng(8)
    run = [rng.integers(5, 12, size=n) for n in (3, 1, 5, 2)]
    alone = model.posterior_means(run)
    padded = model.posterior_means(run[:2] + [rng.integers(5, 12, size=20)] + run[2:])
    assert np.abs(np.delete(padded, 2, axis=0) - alone).max() <= 1e-12


def test_vae_dropout_option_changes_training(eight_clause_fixture):
    cfg = TrainConfig(max_epochs=2, patience=5, logical_batch=8, seed=3)
    split = overfit_split(eight_clause_fixture)
    plain = train(tiny_spec("vae-bow"), split, cfg)
    dropped = train(tiny_spec("vae-bow", dropout=0.3), split, cfg)
    again = train(tiny_spec("vae-bow", dropout=0.3), split, cfg)
    assert dropped.log != plain.log
    assert dropped.log == again.log
    for name, p in dropped.model.params.items():
        assert np.array_equal(p.data, again.model.params[name].data), name


# ---------------------------------------------------------------------------
# checkpoints


@pytest.fixture(scope="module")
def disc_result(eight_clause_fixture):
    cfg = TrainConfig(max_epochs=2, patience=5, logical_batch=4, seed=2)
    return train(tiny_spec("disc"), overfit_split(eight_clause_fixture), cfg)


@pytest.fixture()
def disc_ckpt(disc_result, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(disc_result, path, {"note": "round-trip"})
    return path


def test_checkpoint_round_trip_bit_exact(disc_result, disc_ckpt, eight_clause_fixture):
    model, vocab, meta = load_checkpoint(disc_ckpt)
    for name, p in disc_result.model.params.items():
        assert np.array_equal(p.data, model.params[name].data), name
        assert p.data.dtype == model.params[name].data.dtype == np.float64
    assert vocab.to_json() == disc_result.vocab.to_json()
    assert meta == {"note": "round-trip", "seed": 2}
    before = evaluate(disc_result.model, eight_clause_fixture, disc_result.vocab)
    after = evaluate(model, eight_clause_fixture, vocab)
    assert before.accuracy == after.accuracy
    assert before.macro_f1 == after.macro_f1


def test_checkpoint_save_load_twice_identical_bytes(disc_result, tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(disc_result, a, {"note": "x"})
    save_checkpoint(disc_result, b, {"note": "x"})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bytes_follow_the_documented_layout(disc_result, disc_ckpt):
    # format v1 rebuilt field by field from the CHECKPOINT FORMAT comment
    header = json.dumps({"spec": disc_result.spec.to_json(), "vocab": disc_result.vocab.to_json(),
                         "meta": {"note": "round-trip", "seed": 2}}, sort_keys=True).encode()
    params = disc_result.model.params
    want = [CHECKPOINT_MAGIC, struct.pack("<I", 1), spec_hash(disc_result.spec).encode(),
            struct.pack("<Q", len(header)), header, struct.pack("<I", len(params))]
    for name in sorted(params):
        data = params[name].data
        want += [struct.pack("<H", len(name)), name.encode(),
                 struct.pack("<BB", int(params[name].requires_grad), data.ndim)]
        want += [struct.pack("<Q", dim) for dim in data.shape]
        want.append(data.astype("<f8").tobytes())
    assert disc_ckpt.read_bytes() == b"".join(want)


def test_checkpoint_save_streams_the_parameters(eight_clause_fixture, tmp_path):
    vocab = build_vocab(eight_clause_fixture, 1)
    spec = default_spec("ctx")
    model = build_model(spec, len(vocab), np.full(7, 1 / 7), seed=0)
    result = TrainResult(model, vocab, spec, TrainConfig(), [], -1.0, {})
    largest = max(p.data.nbytes for p in model.params.values())
    tracemalloc.start()
    try:
        save_checkpoint(result, tmp_path / "ctx.ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no copy of the file, nor of any parameter, is built in memory
    assert largest > 1_000_000 and peak < largest // 4
    loaded, _, _ = load_checkpoint(tmp_path / "ctx.ckpt")
    for name, p in model.params.items():
        assert np.array_equal(p.data, loaded.params[name].data), name


def test_checkpoint_load_holds_one_copy_of_the_parameters(eight_clause_fixture, tmp_path):
    vocab = build_vocab(eight_clause_fixture, 1)
    spec = default_spec("ctx")
    # seed 3 and the corpus prior, so every loaded value comes from the file
    model = build_model(spec, len(vocab), label_prior(eight_clause_fixture), seed=3)
    save_checkpoint(TrainResult(model, vocab, spec, TrainConfig(), [], -1.0, {}), tmp_path / "ctx.ckpt")
    total = sum(p.data.nbytes for p in model.params.values())
    largest = max(p.data.nbytes for p in model.params.values())
    tracemalloc.start()
    try:
        loaded, _, _ = load_checkpoint(tmp_path / "ctx.ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the rebuilt parameters, and no copy of the file or of any array
    assert largest > 1_000_000 and peak <= total + largest + 64 * 1024
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert loaded.params[name].data.tobytes() == p.data.tobytes(), name


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_round_trips_bit_exact(name, eight_clause_fixture, tmp_path):
    vocab = build_vocab(eight_clause_fixture, 1)
    spec = tiny_spec(name)
    model = build_model(spec, len(vocab), label_prior(eight_clause_fixture), seed=3)
    save_checkpoint(TrainResult(model, vocab, spec, TrainConfig(), [], -1.0, {}), tmp_path / "m.ckpt")
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    for key, p in model.params.items():
        assert loaded.params[key].data.tobytes() == p.data.tobytes(), key
        assert loaded.params[key].requires_grad == p.requires_grad, key


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_checkpoint_load_draws_nothing(name, eight_clause_fixture, tmp_path, monkeypatch):
    vocab = build_vocab(eight_clause_fixture, 1)
    spec = tiny_spec(name)
    model = build_model(spec, len(vocab), label_prior(eight_clause_fixture), seed=3)
    save_checkpoint(TrainResult(model, vocab, spec, TrainConfig(), [], -1.0, {}), tmp_path / "m.ckpt")

    def no_generator(*args, **kwargs):
        raise AssertionError("loading a checkpoint made a random generator")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert list(loaded.params) == list(model.params)
    for key, p in model.params.items():
        assert loaded.params[key].data.tobytes() == p.data.tobytes(), key


def test_failed_chunk_keeps_previous_file(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"previous contents")

    def chunks():
        yield b"new "
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    atomic_write(path, [b"new ", memoryview(b"contents"), np.zeros(1)])
    assert path.read_bytes() == b"new contents" + bytes(8)


WRITERS = {
    "checkpoint": lambda result, path: save_checkpoint(result, path),
    # the four tables the CLI writes, each through write_tsv
    "sweep": lambda result, path: write_tsv(
        path, ["model", "k", "seed", "accuracy", "macro_f1"], [("disc", 4, 1, "0.5", "0.25")]),
    "aggregates": lambda result, path: write_tsv(
        path, ["model", "k", "mean_accuracy", "std_accuracy", "mean_macro_f1", "std_macro_f1"],
        [("disc", 4, "0.5", "0.0", "0.25", "0.0")]),
    "crossgenre": lambda result, path: write_tsv(
        path, ["model", "genre", "accuracy", "macro_f1"], [("disc", "news", "0.5", "0.25")]),
    "latents": lambda result, path: write_tsv(
        path, ["doc_id", "par_id", "clause_idx", "label", "genre", "mu_0"],
        [("d0", 0, 0, "STATE", "news", "0.5")]),
    # manifest.json, split.json, eval*.json, sweep_meta.json,
    # crossgenre_meta.json and gradcheck.json all go through cli._write_json
    "json": lambda result, path: cli._write_json(path, {"manifest": "manifest.json"}, indent=2),
    "jsonl": lambda result, path: write_jsonl(
        [Clause("a cat .", SEType.STATE, "news", "d0", 0, 0)], path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_replace_keeps_previous_file(writer, disc_result, tmp_path, monkeypatch):
    path = tmp_path / "out"
    path.write_bytes(b"previous contents")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](disc_result, path)
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def surgered(path, tmp_path, mutate):
    blob = bytearray(path.read_bytes())
    mutate(blob)
    out = tmp_path / "bad.ckpt"
    out.write_bytes(bytes(blob))
    return out


def test_checkpoint_bad_magic(disc_ckpt, tmp_path):
    def mutate(blob):
        blob[0] ^= 0xFF
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(surgered(disc_ckpt, tmp_path, mutate))


def test_checkpoint_unsupported_version(disc_ckpt, tmp_path):
    def mutate(blob):
        blob[8:12] = struct.pack("<I", 99)
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(surgered(disc_ckpt, tmp_path, mutate))


def test_checkpoint_truncated(disc_ckpt, tmp_path):
    blob = disc_ckpt.read_bytes()
    for cut in (5, 40, len(blob) - 7):
        out = tmp_path / f"cut{cut}.ckpt"
        out.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(out)


def test_checkpoint_corrupt_header(disc_ckpt, tmp_path):
    def mutate(blob):
        blob[84] = 0xFF  # header JSON starts here; 0xFF is invalid UTF-8
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        load_checkpoint(surgered(disc_ckpt, tmp_path, mutate))


def test_checkpoint_stamp_mismatch(disc_ckpt, tmp_path):
    def mutate(blob):
        blob[12] = ord("0") if blob[12] != ord("0") else ord("1")
    with pytest.raises(CheckpointError, match="between header and stamp"):
        load_checkpoint(surgered(disc_ckpt, tmp_path, mutate))


def test_checkpoint_trailing_bytes(disc_ckpt, tmp_path):
    def mutate(blob):
        blob.extend(b"\x00")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(surgered(disc_ckpt, tmp_path, mutate))


def test_checkpoint_parameter_set_mismatch(disc_ckpt, tmp_path):
    # rename the stored prior array in place (same length keeps framing valid)
    blob = disc_ckpt.read_bytes()
    pattern = struct.pack("<H", 5) + b"prior"
    assert blob.count(pattern) == 1
    out = tmp_path / "renamed.ckpt"
    out.write_bytes(blob.replace(pattern, struct.pack("<H", 5) + b"prime"))
    with pytest.raises(CheckpointError, match="parameter set mismatch"):
        load_checkpoint(out)


def test_checkpoint_shape_mismatch(disc_ckpt, tmp_path):
    # swap the two dims of the (vocab, embed) matrix: same byte count, so the
    # file still parses, but the shape no longer matches the rebuilt model
    blob = bytearray(disc_ckpt.read_bytes())
    marker = struct.pack("<H", 3) + b"emb" + bytes([1, 2])
    assert blob.count(marker) == 1
    at = blob.index(marker) + len(marker)
    d0, d1 = blob[at:at + 8], blob[at + 8:at + 16]
    assert d0 != d1
    blob[at:at + 8], blob[at + 8:at + 16] = d1, d0
    out = tmp_path / "swapped.ckpt"
    out.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="shape mismatch for 'emb'"):
        load_checkpoint(out)


@pytest.fixture(scope="module")
def fuzz_ckpt(tmp_path_factory, eight_clause_fixture):
    """A small untrained disc checkpoint: its bytes and a path to write
    damaged copies to."""
    vocab = build_vocab(eight_clause_fixture, 1)
    spec = tiny_spec("disc", embed_dim=3, hidden_dim=2)
    model = build_model(spec, len(vocab), label_prior(eight_clause_fixture), seed=0)
    result = TrainResult(model, vocab, spec, TrainConfig(), [], -1.0, {})
    tmp = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(result, tmp / "model.ckpt", {"note": "fuzz"})
    return (tmp / "model.ckpt").read_bytes(), tmp / "damaged.ckpt"


def load_damaged(fuzz_ckpt, blob):
    """Load a damaged copy; only CheckpointError may escape."""
    path = fuzz_ckpt[1]
    path.write_bytes(bytes(blob))
    return load_checkpoint(path)


def flipped(blob, offset, bit):
    out = bytearray(blob)
    out[offset] ^= 1 << bit
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_checkpoint_raises_checkpoint_error(fuzz_ckpt, data):
    blob = fuzz_ckpt[0]
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(CheckpointError):
        load_damaged(fuzz_ckpt, blob[:cut])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bit_flipped_checkpoint_loads_or_raises_checkpoint_error(fuzz_ckpt, data):
    blob = fuzz_ckpt[0]
    offset = data.draw(st.integers(0, len(blob) - 1))
    try:
        load_damaged(fuzz_ckpt, flipped(blob, offset, data.draw(st.integers(0, 7))))
    except CheckpointError:
        pass


@pytest.mark.parametrize("where", ["stamp", "meta key", "model name", "array dim"])
def test_damaged_checkpoint_fields_raise_checkpoint_error(fuzz_ckpt, where):
    blob = fuzz_ckpt[0]
    offset, bit = {
        "stamp": (12, 7),  # a non-ascii byte in the spec-hash stamp
        "meta key": (blob.index(b'"meta"') + 1, 0),
        "model name": (blob.index(b'"disc"') + 2, 2),
        # the high bit of the vocabulary dim of the embedding matrix
        "array dim": (blob.index(struct.pack("<H", 3) + b"emb" + bytes([1, 2])) + 13, 7),
    }[where]
    with pytest.raises(CheckpointError):
        load_damaged(fuzz_ckpt, flipped(blob, offset, bit))


@pytest.mark.parametrize("where, value", [("header length", 2 ** 63), ("array dim", 2 ** 40)])
def test_damaged_length_reads_as_truncated(fuzz_ckpt, where, value):
    # each length is checked against the bytes left before anything is
    # read or allocated, so neither a MemoryError nor an OverflowError
    blob = bytearray(fuzz_ckpt[0])
    at = {"header length": 76,
          "array dim": blob.index(struct.pack("<H", 3) + b"emb" + bytes([1, 2])) + 7}[where]
    blob[at:at + 8] = struct.pack("<Q", value)
    with pytest.raises(CheckpointError, match="truncated"):
        load_damaged(fuzz_ckpt, blob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_stored_array_is_a_checkpoint_error(fuzz_ckpt, bad):
    # the last value of the stored embedding matrix
    blob = bytearray(fuzz_ckpt[0])
    marker = struct.pack("<H", 3) + b"emb" + bytes([1, 2])
    at = blob.index(marker) + len(marker)
    rows, cols = struct.unpack("<QQ", blob[at:at + 16])
    end = at + 16 + 8 * rows * cols
    blob[end - 8:end] = struct.pack("<d", bad)
    with pytest.raises(CheckpointError, match="non-finite values in stored array 'emb'"):
        load_damaged(fuzz_ckpt, blob)


def test_repeated_array_is_a_parameter_set_mismatch(fuzz_ckpt):
    # one more array in the count, and the prior's entry stored again at the end
    blob = bytearray(fuzz_ckpt[0])
    count_at = 84 + struct.unpack("<Q", blob[76:84])[0]
    (count,) = struct.unpack("<I", blob[count_at:count_at + 4])
    blob[count_at:count_at + 4] = struct.pack("<I", count + 1)
    entry = struct.pack("<H", 5) + b"prior" + bytes([0, 1]) + struct.pack("<Q", 7)
    at = blob.index(entry)
    blob += blob[at:at + len(entry) + 8 * 7]
    with pytest.raises(CheckpointError, match="parameter set mismatch: 'prior' stored twice"):
        load_damaged(fuzz_ckpt, blob)


# ---------------------------------------------------------------------------
# protocol outputs (the grids themselves run through the CLI, test_cli.py)


def test_aggregate_sweep_hand_values():
    rows = [
        ("disc", 4, 1, 0.2, 0.1),
        ("disc", 4, 2, 0.4, 0.3),
        ("gen", 4, 1, 0.5, 0.5),
        ("disc", 4, 3, 0.6, 0.5),
    ]
    aggregates = aggregate_sweep(rows)
    # first-appearance order of (model, k) groups
    assert [a[:2] for a in aggregates] == [("disc", 4), ("gen", 4)]
    name, k, mean_acc, std_acc, mean_f1, std_f1 = aggregates[0]
    assert abs(mean_acc - 0.4) < 1e-15
    # population std of {0.2, 0.4, 0.6}
    assert abs(std_acc - math.sqrt(2.0 / 75.0)) < 1e-15
    assert abs(mean_f1 - 0.3) < 1e-15
    gname, _, gacc, gstd, gf1, gstd_f1 = aggregates[1]
    assert (gacc, gstd, gf1, gstd_f1) == (0.5, 0.0, 0.5, 0.0)


def test_tsv_writers_exact(tmp_path):
    # cells are written by str(); callers pass their floats by repr, which
    # reads back exactly
    rows = [("disc", 4, 1, 1.0 / 3.0, 0.25), ("gen", 8, 2, 0.5, 1.0 / 7.0)]
    path = tmp_path / "sweep.tsv"
    write_tsv(path, ["model", "k", "seed", "accuracy", "macro_f1"],
              [(name, k, seed, repr(acc), repr(f1)) for name, k, seed, acc, f1 in rows])
    assert path.read_bytes() == (b"model\tk\tseed\taccuracy\tmacro_f1\n"
                                 b"disc\t4\t1\t0.3333333333333333\t0.25\n"
                                 b"gen\t8\t2\t0.5\t0.14285714285714285\n")
    cells = path.read_text(encoding="utf-8").splitlines()[2].split("\t")
    assert float(cells[3]) == 0.5 and float(cells[4]) == 1.0 / 7.0

    apath = tmp_path / "agg.tsv"
    write_tsv(apath, ["model", "k", "mean_accuracy", "std_accuracy"],
              [(name, k, repr(ma), repr(sa)) for name, k, ma, sa, *_ in aggregate_sweep(rows)])
    assert apath.read_bytes() == (b"model\tk\tmean_accuracy\tstd_accuracy\n"
                                  b"disc\t4\t0.3333333333333333\t0.0\n"
                                  b"gen\t8\t0.5\t0.0\n")

    epath = tmp_path / "empty.tsv"
    write_tsv(epath, ["model", "genre", "accuracy", "macro_f1"], [])
    assert epath.read_bytes() == b"model\tgenre\taccuracy\tmacro_f1\n"
