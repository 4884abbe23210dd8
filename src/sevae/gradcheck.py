"""Finite-difference verification of tape gradients.

Central differences with a fixed step compare the analytic gradient of a
scalar objective against a numerical estimate, coordinate by coordinate.
The objective builder must be deterministic: it is evaluated twice up front
and any bitwise difference aborts the check, because a stochastic objective
(unseeded dropout, fresh noise draws) makes the comparison meaningless.
"""

import numpy as np

from .errors import NumericsError
from .tensor import Tape, zero_grads

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def _loss_value(build_loss):
    loss = build_loss()
    return float(loss.data if hasattr(loss, "data") else loss)


def check_gradients(build_loss, params, step=DEFAULT_STEP, max_entries=None, rng=None):
    """Compare analytic and numerical gradients for each named parameter.

    build_loss: zero-argument callable running a full forward pass and
        returning a scalar loss Tensor. Called once per probed coordinate
        (twice), plus once under a tape for the analytic pass.
    params: dict name -> Tensor with requires_grad=True.
    max_entries: probe at most this many coordinates per parameter, chosen
        with rng; None probes every coordinate.

    Returns dict name -> max relative error, where the relative error of a
    coordinate is |analytic - numerical| / max(1, |numerical|).
    """
    base = _loss_value(build_loss)
    again = _loss_value(build_loss)
    if base != again:
        raise NumericsError("objective is non-deterministic under gradcheck")

    zero_grads(params)
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)

    worst = {}
    for name, p in params.items():
        if p.grad is None:
            analytic = np.zeros_like(p.data)
        else:
            analytic = p.grad
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_entries, replace=False)
        else:
            coords = range(n)
        worst_err = 0.0
        aflat = analytic.reshape(-1)
        for i in coords:
            keep = flat[i]
            flat[i] = keep + step
            up = _loss_value(build_loss)
            flat[i] = keep - step
            down = _loss_value(build_loss)
            flat[i] = keep
            numerical = (up - down) / (2.0 * step)
            err = abs(aflat[i] - numerical) / max(1.0, abs(numerical))
            if err > worst_err:
                worst_err = err
        worst[name] = worst_err
    return worst
