import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevae import data as D
from sevae.errors import DataError


def clause(text, label, genre="news", doc="d0", par=0, idx=0):
    return D.Clause(text, label, genre, doc, par, idx)


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_contract_examples():
    assert D.tokenize("The ball is grounded.") == ["the", "ball", "is", "grounded", "."]
    assert D.tokenize("Don't!") == ["don", "'", "t", "!"]
    assert D.tokenize("A  b\tc") == ["a", "b", "c"]
    with pytest.raises(DataError):
        D.tokenize("   ")


def test_labels_and_aliases():
    assert list(D.SEType) == [D.SEType.STATE, D.SEType.EVENT, D.SEType.REPORT,
                              D.SEType.GENERIC, D.SEType.GENERALIZING,
                              D.SEType.QUESTION, D.SEType.IMPERATIVE]
    assert [int(x) for x in D.SEType] == list(range(7))
    assert D.label_from_string("state ") is D.SEType.STATE
    assert D.label_from_string("STATIVE") is D.SEType.STATE
    assert D.label_from_string("generic_sentence") is D.SEType.GENERIC
    assert D.label_from_string("generalizing_sentence") is D.SEType.GENERALIZING
    with pytest.raises(DataError):
        D.label_from_string("noun")


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_specials_and_ordering():
    corpus = [clause("b b b a a c", D.SEType.STATE)]
    v = D.build_vocab(corpus, min_count=1)
    assert (v.PAD, v.UNK, v.BOS, v.EOS, v.CLS) == (0, 1, 2, 3, 4)
    # frequency desc, then alphabetical
    assert v.encode(["b", "a", "c"]) == [5, 6, 7]
    assert v.encode(["zzz"]) == [v.UNK]


def test_vocab_min_count_hand_example():
    corpus = [clause("a b", D.SEType.STATE), clause("a c", D.SEType.EVENT)]
    v = D.build_vocab(corpus, min_count=2)
    assert v.encode(["a"]) != [v.UNK]
    assert v.encode(["b"]) == [v.UNK]
    assert v.encode(["c"]) == [v.UNK]
    v1 = D.build_vocab(corpus, min_count=1)
    ids = v1.encode(["a", "b", "c"])
    assert v1.UNK not in ids


def test_default_min_count_rule():
    small = [clause("x", D.SEType.STATE)] * 100
    assert D.default_min_count(small) == 1
    big = [clause("x", lab) for lab in D.SEType for _ in range(101)]
    assert D.default_min_count(big) == 2


def test_vocab_json_round_trip():
    corpus = [clause("a b c", D.SEType.STATE)]
    v = D.build_vocab(corpus, min_count=1)
    w = D.Vocab.from_json(v.to_json())
    assert w.encode(["a", "b", "c", "qq"]) == v.encode(["a", "b", "c", "qq"])
    assert len(w) == len(v)


# ---------------------------------------------------------------------------
# corpus IO


def test_jsonl_round_trip(tmp_path):
    clauses = [
        clause("The cat sat.", D.SEType.EVENT, "news", "doc1", 0, 0),
        clause("Cats are mammals.", D.SEType.GENERIC, "news", "doc1", 0, 1),
    ]
    path = tmp_path / "c.jsonl"
    D.write_jsonl(clauses, str(path))
    loaded = D.load_corpus(str(path))
    assert [(c.text, c.label, c.genre, c.coords) for c in loaded] == \
           [(c.text, c.label, c.genre, c.coords) for c in clauses]


def test_load_corpus_field_mapping_and_defaults(tmp_path):
    path = tmp_path / "foreign.jsonl"
    path.write_text(
        '{"sentence": "He ran.", "tag": "EVENT"}\n'
        '{"sentence": "He naps.", "tag": "generalizing_sentence"}\n'
    )
    loaded = D.load_corpus(str(path), {"text": "sentence", "label": "tag"})
    assert [c.label for c in loaded] == [D.SEType.EVENT, D.SEType.GENERALIZING]
    assert loaded[0].doc_id == "r1" and loaded[0].par_id == 0
    assert [c.clause_idx for c in loaded] == [0, 0]  # separate default docs


def test_load_corpus_running_clause_idx(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"text": "a.", "label": "state", "doc_id": "d", "par_id": 0}\n'
        '{"text": "b.", "label": "state", "doc_id": "d", "par_id": 0}\n'
        '{"text": "c.", "label": "state", "doc_id": "d", "par_id": 1}\n'
    )
    loaded = D.load_corpus(str(path))
    assert [c.clause_idx for c in loaded] == [0, 1, 0]


@pytest.mark.parametrize("line,message", [
    ('{"text": "", "label": "state"}', "empty text"),
    ('{"text": "x."}', "missing label"),
    ('{"text": "x.", "label": "verb"}', "unknown label"),
    ('{"text": "x.", "label": "state", "genre": "poetry"}', "unknown genre"),
    ('{nope}', "invalid JSON"),
    ('[1, 2]', "expected a JSON object, got list"),
    ('"text"', "expected a JSON object, got str"),
    ('{"text": "x.", "label": "state", "par_id": "abc"}', "par_id must be an integer"),
    ('{"text": "x.", "label": "state", "par_id": null}', "par_id must be an integer"),
    ('{"text": "x.", "label": "state", "par_id": NaN}', "par_id must be an integer"),
    ('{"text": "x.", "label": "state", "par_id": 1e400}', "par_id must be an integer"),
    ('{"text": "x.", "label": "state", "par_id": true}', "par_id must be an integer"),
    ('{"text": "x.", "label": "state", "clause_idx": 1.5}', "clause_idx must be an integer"),
    ('{"text": "x.", "label": "state", "clause_idx": [0]}', "clause_idx must be an integer"),
    ('{"text": ["a", "b"], "label": "state"}', "text must be a string"),
    ('{"text": 12.5, "label": "state"}', "text must be a string"),
    ('{"text": "x.", "label": "state", "doc_id": {"x": 1}}', "doc_id must be a string or an integer"),
    ('{"text": "x.", "label": "state", "doc_id": true}', "doc_id must be a string or an integer"),
    ('{"text": "x.", "label": "state", "doc_id": 1.5}', "doc_id must be a string or an integer"),
    ('{"text": "x.", "label": "state", "doc_id": null}', "doc_id must be a string or an integer"),
    # json.loads refuses integers past Python's digit limit with a ValueError
    pytest.param('{"text": "x.", "par_id": ' + "9" * 5000 + "}", "invalid JSON", id="huge-int"),
])
def test_load_corpus_errors_carry_location(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match=message) as exc:
        D.load_corpus(str(path))
    assert f"{path}:1" in str(exc.value)


def test_load_corpus_reads_integral_coordinates_of_any_json_type(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"text": "a.", "label": "state", "doc_id": "d", "par_id": "2", "clause_idx": 3.0}\n'
        '{"text": "b.", "label": "state", "doc_id": "d", "par_id": 2.0}\n'
        '{"text": "c.", "label": "state", "doc_id": 3}\n'
    )
    assert [c.coords for c in D.load_corpus(str(path))] == [("d", 2, 3), ("d", 2, 4), ("3", 0, 0)]


def test_load_corpus_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"text": "café.", "label": "state"}\n'.encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8") as exc:
        D.load_corpus(str(path))
    assert str(path) in str(exc.value)


_FIELDS = ("text", "label", "genre", "doc_id", "par_id", "clause_idx")
_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
                 | st.sampled_from(["state", "event", "news", "0", "1.5", "x ."]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_lines = (st.dictionaries(st.sampled_from(_FIELDS), _json_values, max_size=6).map(json.dumps)
          .map(str.encode)
          | _json_values.map(lambda v: json.dumps(v).encode())
          | st.binary(max_size=16))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(_lines, max_size=5))
def test_load_corpus_fuzz_returns_clauses_or_raises_data_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        try:
            clauses = D.load_corpus(path)
        except DataError:
            return
    assert all(isinstance(cl, D.Clause) and cl.tokens for cl in clauses)
    assert len({cl.coords for cl in clauses}) == len(clauses)


def test_unknown_genre_error_lists_valid_genres(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "x.", "label": "state", "genre": "poetry"}\n')
    with pytest.raises(DataError) as exc:
        D.load_corpus(str(path))
    for g in D.GENRES:
        assert g in str(exc.value)


def test_duplicate_coordinates_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    row = '{"text": "x.", "label": "state", "doc_id": "d", "par_id": 0, "clause_idx": 3}\n'
    path.write_text(row + row)
    with pytest.raises(DataError, match="duplicate"):
        D.load_corpus(str(path))


# ---------------------------------------------------------------------------
# sampling protocols


def make_labeled_pool(n_per_label=20):
    out = []
    for lab in D.SEType:
        for i in range(n_per_label):
            out.append(clause(f"w{i} .", lab, "news", f"doc{lab.name}", 0, i))
    return out


def test_subsample_counts_and_determinism():
    pool = make_labeled_pool(20)
    s1 = D.subsample_per_label(pool, 4, seed=11)
    s2 = D.subsample_per_label(pool, 4, seed=11)
    assert len(s1.train) == 28
    assert [c.coords for c in s1.train] == [c.coords for c in s2.train]
    counts = D.label_counts(s1.train)
    assert all(counts[lab] == 4 for lab in D.SEType)
    assert "k=4" in s1.provenance and "seed=11" in s1.provenance


def test_subsample_seeds_draw_independently():
    pool = make_labeled_pool(64)
    seen = set()
    for seed in range(1, 6):
        s = D.subsample_per_label(pool, 16, seed=seed)
        assert all(D.label_counts(s.train)[lab] == 16 for lab in D.SEType)
        seen.add(tuple(sorted(c.coords for c in s.train)))
    assert len(seen) == 5


def test_subsample_k_exceeding_pool():
    pool = make_labeled_pool(3)
    with pytest.raises(DataError):
        D.subsample_per_label(pool, 4, seed=0)


def test_subsample_passes_through_val_test():
    pool = make_labeled_pool(8)
    val = make_labeled_pool(2)
    s = D.subsample_per_label(pool, 2, seed=0, validation=val, test=pool[:3])
    assert len(s.validation) == len(val) and len(s.test) == 3


def test_cross_genre_partition():
    corpus = []
    for gi, genre in enumerate(["news", "blog", "fiction"]):
        for lab in D.SEType:
            for i in range(10):
                corpus.append(clause(f"w{i} .", lab, genre, f"{genre}{lab}", 0, i))
    split = D.cross_genre_split(corpus, "blog")
    train_genres = {c.genre for c in split.train}
    val_genres = {c.genre for c in split.validation}
    assert "blog" not in train_genres and "blog" not in val_genres
    assert {c.genre for c in split.test} == {"blog"}
    assert len(split.test) == 70
    # floor(10%) per label held out of the 20-per-label remainder
    val_counts = D.label_counts(split.validation)
    assert all(val_counts[lab] == 2 for lab in D.SEType)
    again = D.cross_genre_split(corpus, "blog")
    assert [c.coords for c in again.validation] == [c.coords for c in split.validation]
    assert "blog" in split.provenance


def test_cross_genre_needs_target_present():
    corpus = [clause("x .", D.SEType.STATE, "news")]
    with pytest.raises(DataError):
        D.cross_genre_split(corpus, "blog")


# ---------------------------------------------------------------------------
# priors


def test_label_prior_exact_fractions():
    # all labels present -> raw count/N fractions, no smoothing
    pool = make_labeled_pool(1)
    pool += [clause("x .", D.SEType.STATE)] * 7
    prior = D.label_prior(pool)
    assert prior.shape == (7,)
    assert prior[D.SEType.STATE] == pytest.approx(8 / 14, abs=0)
    assert prior[D.SEType.EVENT] == pytest.approx(1 / 14, abs=0)


def test_label_prior_uniform_on_balanced():
    pool = make_labeled_pool(5)
    np.testing.assert_allclose(D.label_prior(pool), np.full(7, 1 / 7), atol=1e-15)


def test_label_prior_add_one_when_absent():
    # 4 clauses, REPORT..IMPERATIVE absent -> smoothed entries 1/(N+7)
    pool = [clause("x .", D.SEType.STATE)] * 3 + [clause("x .", D.SEType.EVENT)]
    prior = D.label_prior(pool)
    n = 4
    assert prior[D.SEType.REPORT] == pytest.approx(1 / (n + 7), abs=1e-15)
    assert prior[D.SEType.STATE] == pytest.approx((3 + 1) / (n + 7), abs=1e-15)
    assert math.fsum(prior.tolist()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# manifests


def test_split_manifest_round_trip():
    pool = make_labeled_pool(6)
    split = D.subsample_per_label(pool, 2, seed=5, test=pool[:10])
    manifest = D.split_manifest(split)
    loaded = json.loads(json.dumps(manifest))  # must be JSON-able
    assert [tuple(row) for row in loaded["train"]] == [c.coords for c in split.train]
    assert [tuple(row) for row in loaded["test"]] == [c.coords for c in split.test]
    assert loaded["provenance"] == split.provenance
    assert D.json_digest(loaded) == D.json_digest(manifest)


def test_split_digest_stable_and_distinct(eight_clause_fixture):
    # the split_digest a checkpoint records: json_digest(split_manifest(split))
    def digest(split):
        return D.json_digest(D.split_manifest(split))

    a = D.Split(eight_clause_fixture[:4], eight_clause_fixture[4:6], eight_clause_fixture[6:], "a")
    assert digest(a) == digest(a)
    b = D.Split(eight_clause_fixture[:5], eight_clause_fixture[5:6], eight_clause_fixture[6:], "a")
    assert digest(a) != digest(b)


def test_split_digest_format_is_pinned():
    # saved checkpoints record their split's digest: its bytes never change
    manifest = {"provenance": "k=2 seed=5", "train": [["d0", 0, 0], ["d0", 0, 1], ["d\u00e9", 1, 0]],
                "validation": [], "test": [["d1", 0, 2]]}
    assert D.json_digest(manifest) == "b1410a2e82b6746d85104eaf299ecfdf08f6b8fe82d8202345a83b240beb8a34"


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthetic_balanced_and_deterministic():
    a = D.make_synthetic_corpus(12, seed=3)
    b = D.make_synthetic_corpus(12, seed=3)
    assert [(c.text, c.coords) for c in a] == [(c.text, c.coords) for c in b]
    counts = D.label_counts(a)
    assert all(counts[lab] == 12 for lab in D.SEType)
    assert all(c.genre in D.GENRES for c in a)
    c = D.make_synthetic_corpus(12, seed=4)
    assert [x.text for x in a] != [x.text for x in c]


def test_synthetic_has_paragraph_structure():
    corpus = D.make_synthetic_corpus(30, seed=0)
    paragraphs = D.paragraphs_of(corpus)
    assert sum(len(p) for p in paragraphs) == len(corpus)
    assert any(len(p) >= 3 for p in paragraphs)
    for para in paragraphs:
        assert len({(c.doc_id, c.par_id) for c in para}) == 1
        assert [c.clause_idx for c in para] == list(range(para[0].clause_idx,
                                                          para[0].clause_idx + len(para)))


def test_paragraphs_of_groups_contiguously():
    rows = [clause("a .", D.SEType.STATE, "news", "d", 0, 0),
            clause("b .", D.SEType.STATE, "news", "d", 0, 1),
            clause("c .", D.SEType.STATE, "news", "d", 1, 0)]
    paragraphs = D.paragraphs_of(rows)
    assert [len(p) for p in paragraphs] == [2, 1]
