import json

import pytest

import gen
from run import samples_beyond
from work import WORKLOADS, same_length_share
from sevae.data import load_corpus, tokenize
from sevae.models import default_spec


@pytest.mark.parametrize("kind", sorted(gen.SIZES))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(kind):
    assert gen.make_inputs(kind, 3) == gen.make_inputs(kind, 3)
    a, b = gen.make_inputs(kind, 3), gen.make_inputs(kind, 4)
    for part in ("train", "test"):
        texts_a = [r["text"] for r in a[part]]
        texts_b = [r["text"] for r in b[part]]
        assert len(texts_a) == len(texts_b)
        assert sum(x != y for x, y in zip(texts_a, texts_b)) > len(texts_a) // 2


@pytest.mark.parametrize("kind, lo, hi", [("train", 5, 9), ("tag-long", 10, None)])
def test_clause_lengths_and_schema(kind, lo, hi, tmp_path):
    hi = hi or default_spec("vae-xfmr").options["max_len"]
    for seed in (0, 1, 2):
        for part, records in gen.make_inputs(kind, seed).items():
            path = tmp_path / f"{part}.jsonl"
            gen.write_jsonl(records, path)
            clauses = load_corpus(str(path))
            assert len(clauses) == len(records)
            lengths = [len(tokenize(r["text"])) for r in records]
            assert lo <= min(lengths) and max(lengths) <= hi


def test_long_documents_have_mostly_distinct_lengths_short_ones_share():
    def share(kind):
        docs = {}
        for r in gen.make_inputs(kind, 0)["test"]:
            docs.setdefault(r["doc_id"], []).append(len(r["text"].split()))
        return same_length_share(docs.values())

    assert share("tag-long") < 0.1
    assert share("train") > 0.3


def test_work_per_document_is_the_same_for_every_seed():
    def totals(seed):
        docs = {}
        for r in gen.make_inputs("tag-long", seed)["test"]:
            docs[r["doc_id"]] = docs.get(r["doc_id"], 0) + len(r["text"].split())
        return docs

    assert totals(0) == totals(5)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_has_ten_latency_samples_beyond_p95(workload):
    spec = WORKLOADS[workload]
    n_docs = gen.SIZES[spec["inputs"]]["test_docs"]
    # one sample per (model, document); distinct latencies are the worst case
    per_model = {name: [float(i) for i in range(n_docs)] for name in spec["models"]}
    assert samples_beyond(per_model, 95) >= 10
