"""The end-to-end gradient suite: structure and a cheap live run."""

import json

import pytest

from sevae.gradcheck import OBJECTIVES, gradient_suite


def test_objective_roster():
    assert OBJECTIVES == (
        "elbo-bow", "elbo-lstm", "elbo-xfmr",
        "classlm", "latent-marginal", "disc", "ctx",
    )


def test_suite_passes_on_cheap_objectives():
    results = gradient_suite(seeds=(0,), objectives=("disc", "classlm"))
    assert set(results) == {"disc", "classlm"}
    for name, entry in results.items():
        assert set(entry) == {"max_rel_err", "passed", "seconds"}
        assert entry["passed"], f"{name}: {entry['max_rel_err']}"
        assert entry["max_rel_err"] <= 1e-4
        assert entry["seconds"] >= 0.0
    # the gradcheck CLI writes the results as JSON
    assert json.loads(json.dumps(results)) == results


def test_suite_probe_limit_speeds_up_run():
    # max_entries caps coordinates per parameter; still a meaningful check
    results = gradient_suite(seeds=(3,), max_entries=2, objectives=("ctx",))
    assert results["ctx"]["passed"]


def test_unknown_objective_rejected():
    with pytest.raises(ValueError, match="unknown objective"):
        gradient_suite(seeds=(0,), objectives=("nope",))


def test_suite_of_no_seed_raises():
    # it would probe nothing and report every objective as passed
    with pytest.raises(ValueError, match="at least one seed"):
        gradient_suite(seeds=())
