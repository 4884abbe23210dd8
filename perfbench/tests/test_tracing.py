import pytest

import sevae
import gen
from sevae import cli, data, harness, models
from tracing import Tracer
from work import documents


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    parts = {}
    for part, records in gen.make_inputs("train", 0).items():
        path = tmp / f"{part}.jsonl"
        gen.write_jsonl(records, path)
        parts[part] = data.load_corpus(str(path))
    return parts


def _train(name, corpus):
    cfg = harness.default_train_config(name, max_epochs=1, seed=0)
    split = data.Split(corpus["train"], [], [], "test")
    return harness.train(models.default_spec(name), split, cfg)


def _tag(result, corpus, tracer=None):
    preds = []
    for doc in documents(corpus["test"]):
        if tracer:
            tracer.new_request()
        preds.append(harness.predict_codes(result.model, doc, result.vocab))
    return preds


def test_uninstall_restores_every_original():
    tracer = Tracer()
    for _ in range(2):  # traced runs install and uninstall once per traced round
        tracer.install(sevae)
        installed = list(tracer._installed)
        assert len(installed) > 30
        for owner, attr, original, _own in installed:
            assert getattr(owner, attr) is not original
        tracer.uninstall()
        for owner, attr, original, own in installed:
            assert getattr(owner, attr) is original
            assert (attr in vars(owner)) == own


@pytest.mark.parametrize("name", ["disc", "ctx", "vae-bow"])
def test_traced_run_trains_and_tags_exactly_as_untraced(name, corpus):
    plain = _train(name, corpus)
    plain_preds = _tag(plain, corpus)
    tracer = Tracer()
    tracer.install(sevae)
    try:
        tracer.model = name
        traced = _train(name, corpus)
        traced_preds = _tag(traced, corpus, tracer)
    finally:
        tracer.uninstall()
    assert traced.log == plain.log
    assert traced_preds == plain_preds

    names = {span[0] for span in tracer.spans}
    assert {"harness.train", "harness.adam_step", "tensor.backward",
            "harness.predict_codes"} <= names
    for idx, (_name, start, end, parent, _req, model) in enumerate(tracer.spans):
        assert model == name
        assert start <= end
        assert parent < idx
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2]
    tagged = {s[4] for s in tracer.spans if s[0] == "harness.predict_codes"}
    assert len(tagged) == len(documents(corpus["test"]))
    steps = sum(1 for s in tracer.spans if s[0] == "harness.adam_step")
    assert tracer.counts[("harness.adam_step.steps", name)] == steps
    shares = tracer.shares(("harness.train",), ("tensor.backward", "harness.adam_step"))
    assert set(shares) == {name}
    assert 0 < shares[name]["harness.train"]["harness.adam_step"] \
        < shares[name]["harness.train"]["tensor.backward"] < 1


def test_sweep_cells_in_pool_workers_are_traced(corpus, tmp_path):
    paths = {}
    for part in ("train", "test"):
        paths[part] = str(tmp_path / f"{part}.jsonl")
        gen.write_jsonl(gen.make_inputs("train", 0)[part], paths[part])

    def sweep(out):
        args = ["sweep", "--train", paths["train"], "--test", paths["test"], "--out", str(out),
                "--models", "disc", "--ks", "4", "--seeds", "1,2", "--max-epochs", "1",
                "--jobs", "2"]
        assert cli.main(args) == 0
        return (out / "sweep.tsv").read_text()

    plain = sweep(tmp_path / "plain")
    tracer = Tracer()
    log = str(tmp_path / "cells.tsv")
    tracer.install(sevae, worker_log=log)
    try:
        traced = sweep(tmp_path / "traced")
    finally:
        tracer.uninstall()
    tracer.merge_worker_spans(log)
    assert traced == plain
    (run_jobs,) = [s for s in tracer.spans if s[0] == "cli.sweep"]
    cells = [s for s in tracer.spans if s[0] == "cli.sweep_cell"]
    assert len(cells) == 2
    for _name, start, end, _parent, _req, _model in cells:
        assert run_jobs[1] <= start <= end <= run_jobs[2]
    assert tracer.counts["cli.sweep.jobs"] == 2
