"""Smoke test of benchmarks/bench_kernels.py: every bench_* function runs
once at a small case, and the agreements it reports stay within the
bounds its docstring states (1e-12; relative for tagging and the
factored op, absolute for the ragged LSTM; 0 for the BiLSTM and for
each rewritten elementwise op against its reference), an Adam
step over ctx's parameters peaks within two arrays of its largest
parameter, and loading a ctx checkpoint peaks within its parameters plus
its largest one."""

import importlib.util
import os

import numpy as np

from sevae.models import MODEL_NAMES, build_model, default_spec

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "bench_kernels.py")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_runs_and_its_variants_agree():
    bench = _load_bench()
    rng = np.random.default_rng(0)
    assert all(t > 0 for t in bench.bench_case(20, 100, 1, rng))
    assert all(t > 0 for t in bench.bench_step(100, 1, rng, T=5))
    *_, agree = bench.bench_ragged(8, 100, 1, rng)
    assert agree <= 1e-12
    *times, agree = bench.bench_bilstm(5, 1, rng, E=8, H=16)
    assert all(t > 0 for t in times) and agree == 0
    *_, agree = bench.bench_factored(8, 383, 1, rng)
    assert agree <= 1e-12
    seconds, pad_share = bench.bench_encoder(4, 1, rng, n_clauses=4)
    assert seconds > 0 and 0.0 <= pad_share < 1.0
    for name in MODEL_NAMES:
        model = build_model(default_spec(name), 383, np.full(7, 1 / 7), seed=0)
        *_, agree = bench.bench_tagging(model, 4, 8, 1, rng)
        assert agree <= 1e-12, name
    references = bench._load_references()
    for name, case in bench.elementwise_cases(4, rng).items():
        *times, agree = bench.bench_elementwise(name, case, 1, references)
        assert all(t > 0 for t in times) and agree == 0, name
    seconds, peak, largest = bench.bench_adam(1, rng)
    assert seconds > 0 and peak <= 2 * largest + 64 * 1024
    seconds, peak, total, largest = bench.bench_load(1)
    assert seconds > 0 and peak <= total + largest + 64 * 1024
