"""Benchmark the LSTM sequence kernels, the ragged-batch LSTM op against
one call per sequence, ctx's BiLSTM op against its two directions run one
after the other, the factored next-token likelihood op (matmul
normaliser vs direct reference) and the transformer encoder's
forward+backward at several stack sizes.

Each comparison runs both variants in one process on the same inputs, so
the numbers are directly comparable. The kernel section times the
forward and backward LSTM kernels over one sequence of T steps (each
timing includes a copy of xw or of the gates, which the kernels
consume), then the forward kernel's time per step at B=1 for H=100 and
H=300 next to its floor: a bare chain of the step's (1, H) @ (H, 4H)
products, each reading the one before, with nothing else. The ragged
section runs B sequences of 5-12 steps (the clause lengths of a training
batch) through tensor.lstm_seq forward and backward, once as one batch
and once as B single-sequence calls, and reports the largest absolute
difference of their outputs and gradients, which stays below 1e-12. The
BiLSTM section runs ctx's word BiLSTM at its default size (E=100, H=300)
over one sequence of T=20 and T=160 rows, B=1, once serially (a forward
and a reversed lstm_seq and a concat, at one BLAS thread) and once as
tensor.bilstm_seq, whose two directions run at the same time; it reports
the largest absolute difference of their outputs and gradients, which is
0. The factored op is timed at lat's tagging shape, 7 labels x 30
latent values; it agrees with the direct reference within 1e-12 relative.
The encoder section runs 32 clauses of 3-40 tokens through the default
vae encoder (width 128, 2 layers, 4 heads) as 32/B tapes of B clauses
each, every tape one stack padded to its longest clause, the way
training runs a logical batch; it reports the share of pad positions.
The tagging section builds each of the seven models at its default size
(vocabulary 383, untrained) and tags S clauses of n tokens (for ctx, S
one-clause paragraphs) once as S one-unit batch_probs calls and once as
one batch_probs call over all S, the pass a tagging run makes; it reports
the largest relative difference of their probabilities, which the
tagging contract bounds by 1e-12. The Adam
section times one harness.adam_step over ctx's parameters at its default
size (vocabulary 383) with clipping active, and reports the step's
tracemalloc peak, which stays within two arrays of the largest parameter.
The elementwise section times each op that was rewritten onto numpy's
fast paths, forward (inside tensor.checked, as tagging runs it) and
backward, against the plain expression it replaced, kept in
tests/test_tensor.py; at vae-train's tagging shapes (3 clauses, 11
positions with CLS) and tag-long's (3 clauses, 76 positions). The op's
forward time also holds its dispatch and any input scan, which the
expression's does not. add, sub and mul take a constant operand, as the
attention mask and scale are, whose gradient the op skips. It reports
the largest absolute difference of outputs and kept gradients, which is
0.
The load section writes ctx at that size to a checkpoint in a temporary
directory and times harness.load_checkpoint on it; it reports the load's
tracemalloc peak, which stays within the model's parameters plus its
largest parameter (and 64 KB of header and bookkeeping).

Usage: python3 benchmarks/bench_kernels.py [--reps 30]
"""

import argparse
import importlib.util
import os
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from sevae import encoders, kernels
from sevae import tensor
from sevae.data import Vocab
from sevae.harness import (
    TrainConfig, TrainResult, adam_step, init_adam_state, load_checkpoint, save_checkpoint,
)
from sevae.models import MODEL_NAMES, build_model, default_spec


def _time(fn, reps):
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_case(T, H, reps, rng):
    """Median seconds of the forward and backward LSTM kernels over one
    sequence of T steps, width H."""
    xw = rng.standard_normal((T, 4 * H))
    whT = rng.standard_normal((4 * H, H)) * 0.1
    h0 = rng.standard_normal((1, H))
    c0 = rng.standard_normal((1, H))
    steps = np.ones(T, dtype=np.int64)
    hs, cs, gates = kernels.lstm_forward(xw.copy(), whT, h0, c0, steps)
    dhs = rng.standard_normal((T, H))
    t_fwd = _time(lambda: kernels.lstm_forward(xw.copy(), whT, h0, c0, steps), reps)
    t_bwd = _time(lambda: kernels.lstm_backward(dhs, gates.copy(), cs, whT, c0, steps), reps)
    return t_fwd, t_bwd


def bench_step(H, reps, rng, T=60):
    """Median seconds per step of the forward LSTM kernel over one sequence
    of T steps (B=1), width H, and of a bare chain of its T recurrent
    products, each step's h read from the product before."""
    xw = rng.standard_normal((T, 4 * H))
    whT = rng.standard_normal((4 * H, H)) * 0.1
    h0 = rng.standard_normal((1, H))
    steps = np.ones(T, dtype=np.int64)
    wh = whT.T
    out = np.empty((T, 4 * H))

    def chain():
        h = h0
        for t in range(T):
            np.dot(h, wh, out=out[t:t + 1])
            h = out[t:t + 1, :H]

    t_step = _time(lambda: kernels.lstm_forward(xw.copy(), whT, h0, h0, steps), reps) / T
    return t_step, _time(chain, reps) / T


def bench_ragged(n_seq, H, reps, rng, E=100):
    """Median seconds of lstm_seq forward+backward over n_seq sequences of
    5-12 steps, as one batch and as one call per sequence, and the largest
    difference of their hidden states and gradients."""
    lengths = rng.integers(5, 13, size=n_seq)
    starts = np.cumsum(lengths) - lengths
    x = tensor.Tensor(rng.standard_normal((int(lengths.sum()), E)), requires_grad=True)
    w = [tensor.Tensor(a, requires_grad=True) for a in (
        rng.standard_normal((E, 4 * H)) * 0.1, rng.standard_normal((4 * H, H)) * 0.1, np.zeros(4 * H))]
    params = dict(zip(("x", "wx", "whT", "b"), [x] + w))
    weights = rng.standard_normal((x.shape[0], H))

    def batched():
        zeros = tensor.Tensor(np.zeros((n_seq, H)))
        return [tensor.lstm_seq(x, *w, zeros, zeros, lengths)]

    def sequential():
        zeros = tensor.Tensor(np.zeros((1, H)))
        return [tensor.lstm_seq(tensor.narrow(x, 0, s, n), *w, zeros, zeros, [n])
                for s, n in zip(starts, lengths)]

    def run(parts):
        with tensor.Tape() as tape:
            hs = parts()
            loss = tensor.sum_(tensor.mul(tensor.concat(hs, axis=0), weights))
            grads = tape.backward(loss, params)
        return np.concatenate([h.data for h in hs]), list(grads.values())

    (hs_b, grads_b), (hs_s, grads_s) = run(batched), run(sequential)
    agree = max(float(np.max(np.abs(a - b))) for a, b in zip([hs_b] + grads_b, [hs_s] + grads_s))
    return _time(lambda: run(batched), reps), _time(lambda: run(sequential), reps), agree


def bench_bilstm(T, reps, rng, E=100, H=300):
    """Median seconds of ctx's BiLSTM at B=1 over one sequence of T rows,
    forward and forward+backward, run serially (two lstm_seq and a concat,
    at one BLAS thread) and as one bilstm_seq; with the largest absolute
    difference of their outputs and gradients."""
    x = tensor.Tensor(rng.standard_normal((T, E)), requires_grad=True)
    dirs = [[tensor.Tensor(a, requires_grad=True) for a in (
        rng.standard_normal((E, 4 * H)) * 0.1, rng.standard_normal((4 * H, H)) * 0.1,
        np.zeros(4 * H))] for _ in range(2)]
    params = dict(enumerate([x] + dirs[0] + dirs[1]))
    weights = rng.standard_normal((T, 2 * H))

    def serial():
        zeros = tensor.Tensor(np.zeros((1, H)))
        with kernels.one_blas_thread():
            return tensor.concat([tensor.lstm_seq(x, *dirs[0], zeros, zeros, [T]),
                                  tensor.lstm_seq(x, *dirs[1], zeros, zeros, [T], True)], axis=1)

    def concurrent():
        return tensor.bilstm_seq(x, dirs[0], dirs[1], [T])

    def run(op):
        with tensor.Tape() as tape:
            out = op()
            loss = tensor.sum_(tensor.mul(out, weights))
            with kernels.one_blas_thread():
                grads = tape.backward(loss, params)
        return [out.data] + list(grads.values())

    agree = max(float(np.max(np.abs(a - b))) for a, b in zip(run(serial), run(concurrent)))
    return (_time(serial, reps), _time(concurrent, reps),
            _time(lambda: run(serial), reps), _time(lambda: run(concurrent), reps), agree)


def bench_factored(n_steps, V, reps, rng, n_rows=7, n_cols=30):
    """Forward times of factored_loglik and of its direct reference, plus
    their largest relative disagreement."""
    base = rng.standard_normal((n_steps, V))
    rows = rng.standard_normal((1, n_rows, V)) * 0.3
    cols = rng.standard_normal((n_cols, V)) * 0.3
    targets = rng.integers(0, V, size=n_steps)
    factored = tensor.factored_loglik(base, rows, cols, targets, [n_steps]).data[0]
    direct = tensor._direct_loglik(base, rows[0], cols, targets)
    t_fac = _time(lambda: tensor.factored_loglik(base, rows, cols, targets, [n_steps]), reps)
    t_dir = _time(lambda: tensor._direct_loglik(base, rows[0], cols, targets), reps)
    agree = float(np.max(np.abs(factored - direct) / np.maximum(1.0, np.abs(direct))))
    return t_fac, t_dir, agree


def bench_encoder(batch, reps, rng, n_clauses=32, min_tokens=3, max_tokens=40, vocab=383):
    """Median seconds of forward+backward over n_clauses clauses of
    min_tokens..max_tokens tokens run as padded stacks of `batch` clauses,
    one tape per stack; with the share of the stacks' positions that are
    padding."""
    model = build_model(default_spec("vae-bow"), vocab, np.full(7, 1 / 7), seed=0)
    params = {k: p for k, p in model.params.items() if k.startswith(encoders.PREFIX)}
    ids = [rng.integers(5, vocab, size=n) for n in rng.integers(min_tokens, max_tokens + 1, size=n_clauses)]
    stacks = [ids[lo:lo + batch] for lo in range(0, n_clauses, batch)]
    padded = sum(len(stack) * max(len(c) for c in stack) for stack in stacks)
    pad_share = 1.0 - sum(len(c) for c in ids) / padded

    def run():
        for stack in stacks:
            with tensor.Tape() as tape:
                h = encoders.encode(stack, model.enc_cfg, params)
                tape.backward(tensor.sum_(tensor.mul(h, h)), params)

    run()
    return _time(run, reps), pad_share


def bench_tagging(model, n_clauses, n_tokens, reps, rng):
    """Median seconds of n_clauses batch-of-one calls and of one batched
    call, and the largest relative difference of their probabilities."""
    clauses = [rng.integers(5, model.vocab_size, size=n_tokens).tolist() for _ in range(n_clauses)]
    units = [[ids] for ids in clauses] if model.consumes == "paragraph" else clauses

    def singles():
        return np.concatenate([model.batch_probs([unit]) for unit in units])

    batched, single = model.batch_probs(units), singles()
    agree = float(np.max(np.abs(batched - single) / single))
    return _time(singles, reps), _time(lambda: model.batch_probs(units), reps), agree


def bench_adam(reps, rng):
    """Median seconds of one adam_step over ctx's trainable parameters
    (clipping active), the step's tracemalloc peak in bytes, and the size
    in bytes of the largest parameter."""
    model = build_model(default_spec("ctx"), 383, np.full(7, 1 / 7), seed=0)
    params = {k: p for k, p in model.params.items() if p.requires_grad}
    state = init_adam_state(params)
    cfg = TrainConfig(grad_clip=1.0)

    def grads():
        return {k: rng.standard_normal(p.data.shape) for k, p in params.items()}

    def step():
        g = grads()
        t0 = time.perf_counter()
        adam_step(params, g, state, cfg)
        return time.perf_counter() - t0

    g = grads()
    tracemalloc.start()
    adam_step(params, g, state, cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    largest = max(p.data.nbytes for p in params.values())
    return statistics.median(step() for _ in range(reps)), peak, largest


def _load_references():
    """tests/test_tensor.py's REFERENCES: op name -> (op, reference)."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tests", "test_tensor.py")
    spec = importlib.util.spec_from_file_location("test_tensor_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCES


def elementwise_cases(n, rng, B=3, d=128, heads=4, vocab=383):
    """op name -> (input arrays, which of them are constants, keyword
    arguments) at the shapes of a tagging pass over B clauses of n
    positions: the encoder's width d, its heads, ffn width 4d."""
    def normal(*shape):
        return rng.standard_normal(shape)

    scores = (B, heads, n, n + 1)
    return {
        "relu": ([normal(B, n, 4 * d)], (), {}),
        "clamp": ([normal(B, n, d)], (), {"lo": -1.0, "hi": 1.0}),
        "dropout": ([normal(B, n, d)], (), {"p": 0.1, "seed": 0}),
        "softmax": ([normal(*scores)], (), {"axis": -1}),
        "log_softmax": ([normal(B * n, vocab)], (), {"axis": -1}),
        "logsumexp": ([normal(B * n, 7, 30)], (), {"axis": 2}),
        "cross_entropy": ([normal(B * n, vocab)], (),
                          {"targets": rng.integers(0, vocab, size=B * n)}),
        "affine": ([normal(B, n, d), normal(d, 4 * d), normal(4 * d)], (), {}),
        "layer_norm": ([normal(B, n, d), normal(d), normal(d)], (), {}),
        "transpose": ([normal(B, n, heads, d // heads)], (), {"axes": (0, 2, 1, 3)}),
        "add": ([normal(*scores), normal(B, 1, 1, n + 1)], (1,), {}),
        "sub": ([normal(B, n, d), np.array(1.0)], (1,), {}),
        "mul": ([np.array(0.17), normal(*scores)], (0,), {}),
    }


def bench_elementwise(name, case, reps, references):
    """Median seconds of op name's forward and backward and of its
    reference's, on case (elementwise_cases), and the largest absolute
    difference of their outputs and of the gradients the op gives."""
    op, reference = references[name]
    arrays, constants, kwargs = case
    tensors = [tensor.Tensor(a, requires_grad=i not in constants) for i, a in enumerate(arrays)]
    with tensor.Tape() as tape:
        out = op(*tensors, **kwargs)
        backward = tape.nodes[out._node_id][1]
    g = np.random.default_rng(1).standard_normal(out.shape)
    want, want_backward = reference(*arrays, **kwargs)
    diffs = [np.abs(out.data - want)]
    diffs += [np.abs(a - b) for a, b in zip(backward(g), want_backward(g)) if a is not None]
    agree = max(float(np.max(d)) for d in diffs)
    return (_time(lambda: tensor.checked(lambda: reference(*arrays, **kwargs)[0]), reps),
            _time(lambda: tensor.checked(lambda: op(*tensors, **kwargs)), reps),
            _time(lambda: want_backward(g), reps), _time(lambda: backward(g), reps), agree)


def bench_load(reps):
    """Median seconds of loading a checkpoint of ctx at its default size,
    the load's tracemalloc peak in bytes, and the bytes of the model's
    parameters and of its largest parameter."""
    vocab = Vocab([f"w{i}" for i in range(383 - len(Vocab.SPECIALS))], 1)
    spec = default_spec("ctx")
    model = build_model(spec, len(vocab), np.full(7, 1 / 7), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ctx.ckpt")
        save_checkpoint(TrainResult(model, vocab, spec, TrainConfig(), [], {}), path)
        tracemalloc.start()
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        seconds = _time(lambda: load_checkpoint(path), reps)
    sizes = [p.data.nbytes for p in model.params.values()]
    return seconds, peak, sum(sizes), max(sizes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'lstm kernels':>14s} {'forward':>10s} {'backward':>10s}")
    for T, H in ((20, 100), (60, 100), (60, 300), (200, 300)):
        t_fwd, t_bwd = bench_case(T, H, args.reps, rng)
        print(f"{f'T={T} H={H}':>14s} {t_fwd * 1e3:9.3f}ms {t_bwd * 1e3:9.3f}ms")
    print(f"{'B=1 step':>14s} {'forward':>10s} {'dot floor':>10s}")
    for H in (100, 300):
        t_step, t_floor = bench_step(H, args.reps, rng)
        print(f"{f'H={H}':>14s} {t_step * 1e6:9.1f}us {t_floor * 1e6:9.1f}us")

    print()
    print(f"{'lstm_seq fwd+bwd, 5-12 steps':>30s} {'batched':>10s} {'sequential':>11s} "
          f"{'speedup':>8s} {'max abs diff':>12s}")
    for H in (100, 300):
        for n_seq in (1, 8, 32):
            t_b, t_s, agree = bench_ragged(n_seq, H, args.reps, rng)
            print(f"{f'B={n_seq} H={H}':>30s} {t_b * 1e3:9.2f}ms {t_s * 1e3:10.2f}ms "
                  f"{t_s / t_b:7.2f}x {agree:12.2e}")

    print()
    print(f"{'ctx BiLSTM, B=1':>16s} {'forward':>8s} {'serial':>9s} {'concurrent':>10s} "
          f"{'speedup':>8s} {'max abs diff':>12s}")
    for T in (20, 160):
        t_sf, t_cf, t_sb, t_cb, agree = bench_bilstm(T, args.reps, rng)
        for label, t_s, t_c in (("forward", t_sf, t_cf), ("fwd+bwd", t_sb, t_cb)):
            print(f"{f'T={T} E=100 H=300':>16s} {label:>8s} {t_s * 1e3:7.2f}ms {t_c * 1e3:8.2f}ms "
                  f"{t_s / t_c:7.2f}x {agree:12.2e}")

    print()
    print(f"{'case':>14s} {'factored':>10s} {'direct':>10s} {'speedup':>8s} {'max rel diff':>12s}")
    for n_steps in (8, 64, 120):
        t_fac, t_dir, agree = bench_factored(n_steps, 383, args.reps, rng)
        print(f"{f'T={n_steps} V=383':>14s} {t_fac * 1e3:9.3f}ms {t_dir * 1e3:9.3f}ms "
              f"{t_dir / t_fac:7.2f}x {agree:12.2e}")

    print()
    print(f"{'encoder fwd+bwd, 32 clauses x 3-40 tokens':>42s} {'total':>10s} {'per clause':>11s} "
          f"{'speedup':>8s} {'pad share':>10s}")
    base = None
    for batch in (1, 4, 32):
        t, pad_share = bench_encoder(batch, args.reps, np.random.default_rng(1))
        base = base or t
        print(f"{f'B={batch} ({32 // batch} tapes)':>42s} {t * 1e3:9.2f}ms {t / 32 * 1e3:9.3f}ms "
              f"{base / t:7.2f}x {pad_share:10.3f}")

    print()
    print(f"{'tagging, S clauses x n tokens':>30s} {'one by one':>11s} {'batched':>10s} "
          f"{'speedup':>8s} {'max rel diff':>12s}")
    for name in MODEL_NAMES:
        model = build_model(default_spec(name), 383, np.full(7, 1 / 7), seed=0)
        for n_tokens in (8, 64):
            for n_clauses in (1, 4, 32):
                t_one, t_batch, agree = bench_tagging(model, n_clauses, n_tokens, args.reps, rng)
                print(f"{f'{name} S={n_clauses} n={n_tokens}':>30s} {t_one * 1e3:10.2f}ms "
                      f"{t_batch * 1e3:9.2f}ms {t_one / t_batch:7.2f}x {agree:12.2e}")

    print()
    print(f"{'elementwise ops, 3 clauses':>34s} {'fwd ref':>9s} {'fwd op':>9s} {'bwd ref':>9s} "
          f"{'bwd op':>9s} {'max abs diff':>12s}")
    references = _load_references()
    for workload, n in (("vae-train", 11), ("tag-long", 76)):
        for name, case in elementwise_cases(n, rng).items():
            t_rf, t_of, t_rb, t_ob, agree = bench_elementwise(name, case, args.reps, references)
            print(f"{f'{name} {workload} n={n}':>34s} {t_rf * 1e6:7.1f}us {t_of * 1e6:7.1f}us "
                  f"{t_rb * 1e6:7.1f}us {t_ob * 1e6:7.1f}us {agree:12.2e}")

    print()
    t, peak, largest = bench_adam(args.reps, rng)
    print(f"adam_step over ctx's parameters: {t * 1e3:.2f}ms, tracemalloc peak "
          f"{peak / 1e6:.1f} MB ({peak / largest:.2f} x the largest parameter, {largest / 1e6:.1f} MB)")

    t, peak, total, largest = bench_load(args.reps)
    print(f"load_checkpoint of ctx: {t * 1e3:.2f}ms, tracemalloc peak {peak / 1e6:.1f} MB "
          f"(parameters {total / 1e6:.1f} MB, largest {largest / 1e6:.1f} MB)")


if __name__ == "__main__":
    main()
