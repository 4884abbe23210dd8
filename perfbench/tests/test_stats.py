import numpy as np
import pytest

from run import (TAIL_LADDER, doc_samples, median_round, model_percentile, percentile, round_times,
                 samples_beyond, tail_percentile)


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.exponential(size=137).tolist()
    for p in (0, 12.5, 50, 95, 99.9, 100):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


@pytest.mark.parametrize("n, expected", [(100, 90.0), (200, 95.0), (500, 98.0),
                                         (1000, 99.0), (10000, 99.9), (15, None)])
def test_tail_percentile_picks_highest_with_ten_samples_beyond(n, expected):
    xs = [float(i) for i in np.random.default_rng(n).permutation(n)]
    got = tail_percentile({"a": xs})
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(x > value for x in xs) >= 10
    higher = [q for q in TAIL_LADDER if q > p]
    for q in higher:
        assert sum(x > percentile(xs, q) for x in xs) < 10



def test_round_medians_and_latency_samples():
    # 2 models x 20 documents x 3 rounds at 1 ms; each round one document
    # stalls at 9 ms, a different one each round, and round 1 runs 2x slower
    units = {}
    for model in ("a", "b"):
        rounds = []
        for r in range(3):
            row = [2.0 if r == 1 else 1.0] * 20
            if model == "a":
                row[r] = 9.0
            rounds.append(row)
        units[model] = {"epoch_s": [[0.5], [1.0], [0.5]], "io_s": [0.1, 0.2, 0.1],
                        "doc_ms": rounds}
    assert round_times(units) == [pytest.approx((1.0, 0.2, 0.048)),
                                  pytest.approx((2.0, 0.4, 0.087)),
                                  pytest.approx((1.0, 0.2, 0.048))]
    assert median_round(units, (2,)) == pytest.approx(0.048)
    assert median_round(units) == pytest.approx(1.248)
    # a stall in one round of three drops out of the document's median;
    # the slowdown of one document in two rounds of three stays
    samples = doc_samples(units)
    assert samples["a"] == [2.0, 1.0, 2.0] + [1.0] * 17
    assert samples["b"] == [1.0] * 20


def test_tail_percentile_counts_samples_beyond_over_all_models():
    per_model = {m: [float(i) for i in range(72)] for m in ("a", "b", "c")}
    assert samples_beyond(per_model, 95) == 12
    p, value = tail_percentile(per_model)
    assert p == 95.0 and value == pytest.approx(percentile(range(72), 95))


def test_model_percentile_stays_out_of_the_gap_between_models():
    # two fast and two slow models: the pooled median falls between the
    # clusters and moves with one sample; the per-model one does not
    fast = [1.0 + 0.01 * i for i in range(100)]
    slow = [10.0 + 0.1 * i for i in range(100)]
    per_model = {"a": fast, "b": fast, "c": slow, "d": slow}
    pooled = fast * 2 + slow * 2
    assert 1.99 < percentile(pooled, 50) < 10.0
    assert percentile(pooled + [2.5], 50) < percentile(pooled + [11.0], 50) - 7.0
    expected = (percentile(fast, 50) ** 2 * percentile(slow, 50) ** 2) ** 0.25
    assert model_percentile(per_model, 50) == pytest.approx(expected)
    # a 2x faster model moves the statistic by the same factor whichever it is
    for name in per_model:
        halved = dict(per_model, **{name: [x / 2 for x in per_model[name]]})
        assert model_percentile(halved, 50) == pytest.approx(expected / 2 ** 0.25)
