"""check_gradients on small objectives, and the end-to-end gradient
suite's roster, seed check and a cheap live run of two of its objectives;
acceptance criterion 1 runs all seven."""

import numpy as np
import pytest

from sevae import tensor as T
from sevae.errors import NumericsError
from sevae.gradcheck import (
    DEFAULT_STEP, DEFAULT_TOL, OBJECTIVES, _build_objective, check_gradients, gradient_suite,
)


def test_defaults_exposed():
    assert DEFAULT_STEP == 1e-5
    assert DEFAULT_TOL == 1e-4


def test_quadratic_passes_tight_tolerance():
    p = {"w": T.Tensor(np.array([0.5, -1.5]), requires_grad=True)}

    def build():
        return T.sum_(T.mul(p["w"], p["w"]))

    errs = check_gradients(build, p)
    assert errs["w"] < 1e-6


def test_catches_wrong_gradient():
    # the second use goes through a detached copy, so the analytic gradient
    # misses half the true derivative
    p = {"w": T.Tensor(np.array([0.7, 1.2]), requires_grad=True)}

    def build():
        detached = T.Tensor(p["w"].data.copy())
        return T.sum_(T.mul(p["w"], detached))

    errs = check_gradients(build, p)
    assert errs["w"] > 0.1


def test_nondeterministic_objective_rejected():
    p = {"w": T.Tensor(np.array([1.0]), requires_grad=True)}
    counter = {"n": 0}

    def build():
        counter["n"] += 1
        return T.sum_(T.mul(p["w"], T.Tensor(np.array([1.0 + counter["n"] * 1e-3]))))

    with pytest.raises(NumericsError, match="non-deterministic"):
        check_gradients(build, p)


def test_parameters_restored_after_check(rng):
    data = rng.standard_normal(5)
    p = {"w": T.Tensor(data.copy(), requires_grad=True)}

    def build():
        return T.sum_(T.mul(p["w"], p["w"]))

    check_gradients(build, p)
    np.testing.assert_array_equal(p["w"].data, data)


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
