"""The package keeps every name the benchmark's tracer wraps.

perfbench/tracing.py (read here, never changed) wraps package functions
and methods by name; a rename or deletion in src/ would break a traced
benchmark run (perfbench/run.py --trace 1) with an AttributeError, so
installing and uninstalling its Tracer is checked here with the tier-1
tests.
"""

import importlib.util
import os

import sevae
import sevae.cli  # imports every module the tracer wraps

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_installs_on_the_package_and_uninstalls():
    tracer = _load_tracing().Tracer()
    tracer.install(sevae)
    installed = list(tracer._installed)
    try:
        assert len(installed) > 30
        for owner, attr, original, _own in installed:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original, own in installed:
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own


def test_training_and_loading_each_build_through_the_traced_name(eight_clause_fixture, tmp_path):
    # the benchmark's models.build_model.s metric sums the spans of
    # harness.build_model; a loader or trainer that stopped calling that
    # name would read 0 there without failing
    harness = sevae.harness
    tracer = _load_tracing().Tracer()
    tracer.install(sevae)
    try:
        spec = sevae.models.default_spec("disc", embed_dim=4, hidden_dim=4)
        split = sevae.data.Split(eight_clause_fixture, [], [], "tiny")
        result = harness.train(spec, split, harness.TrainConfig(max_epochs=1))
        harness.save_checkpoint(result, tmp_path / "disc.ckpt")
        harness.load_checkpoint(tmp_path / "disc.ckpt")
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    builds = [span for span in tracer.spans if span[0] == "models.build_model"]
    assert [names[span[3]] for span in builds] == ["harness.train", "harness.load_checkpoint"]
