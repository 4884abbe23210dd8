"""The end-to-end gradient suite's roster, seed check and a cheap live
run of two of its objectives; acceptance criterion 1 runs all seven."""

import pytest

from sevae.gradcheck import (
    DEFAULT_TOL, OBJECTIVES, _build_objective, check_gradients, gradient_suite,
)


def test_objective_roster():
    assert OBJECTIVES == (
        "elbo-bow", "elbo-lstm", "elbo-xfmr",
        "classlm", "latent-marginal", "disc", "ctx",
    )


def test_suite_passes_on_cheap_objectives():
    # the suite's own batch and frozen noise for its two cheapest objectives
    for name in ("disc", "classlm"):
        build, params = _build_objective(name, 0)
        per_param = check_gradients(build, params)
        assert set(per_param) == {k for k, p in params.items() if p.requires_grad}
        worst = max(per_param.values())
        assert worst <= DEFAULT_TOL, f"{name}: {worst}"


def test_suite_of_no_seed_raises():
    # it would probe nothing and report every objective as passed
    with pytest.raises(ValueError, match="at least one seed"):
        gradient_suite(seeds=())
