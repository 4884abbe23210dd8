"""Smoke test of benchmarks/output_digests.py at its tiniest settings: it
runs every command, prints one line per output file, and two runs in
different directories print the same lines."""

import importlib.util
import os
import re

from sevae import cli

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmarks", "output_digests.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_cover_every_output_and_repeat(tmp_path, monkeypatch):
    # the real suite takes tens of seconds; its numbers are fixed here
    results = {"disc": {"max_rel_err": 1.25e-9, "passed": True, "seconds": 0.5}}
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", lambda seeds: results)
    script = _load_script()
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(script.output_digests(cli, str(tmp_path / name), n_per_label=3, max_epochs=1,
                                          models=("disc", "vae-bow")))
    assert runs[0] == runs[1]
    paths = [line.rsplit("  ", 1)[1] for line in runs[0]]
    assert paths == sorted(paths)
    expected = {"synth/train.jsonl", "synth/val.jsonl", "synth/test.jsonl", "convert/converted.jsonl",
                "eval-disc/eval.json", "latents-vae-bow/latents.tsv", "sweep/sweep.tsv",
                "sweep/sweep_aggregates.tsv", "crossgenre/crossgenre.tsv"}
    for model in ("disc", "vae-bow"):
        expected |= {f"train-{model}/{f}" for f in
                     ("model.ckpt", "train_log.jsonl", "eval_test.json", "split.json")}
    assert expected <= set(paths)
    assert "latents-disc/latents.tsv" not in paths
    for line in runs[0]:
        value, path = line.rsplit("  ", 1)
        if path.endswith("manifest.json"):
            assert re.fullmatch("config_digest [0-9a-f]{64}", value), line
        elif path.endswith("gradcheck.json"):
            assert value == "max_rel_err disc 1.25e-09"
        else:
            assert re.fullmatch("[0-9a-f]{64}", value), line
