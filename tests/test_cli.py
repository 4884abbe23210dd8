"""End-to-end CLI behavior: flows, files, exit codes, config precedence.

Everything runs in-process through cli.main so coverage and monkeypatching
work; each writing command gets its own directory under tmp_path.
"""

import json
import math
import multiprocessing.pool
import os
import struct

import numpy as np
import pytest

from sevae import __version__, cli, harness, kernels
from sevae.data import Clause, load_corpus, make_synthetic_corpus, write_jsonl
from sevae.models import ModelSpec, build_model, default_spec, spec_hash

DISC_OPTS = ["--opt", "embed_dim=8", "--opt", "hidden_dim=8"]
VAE_OPTS = [
    "--opt", "enc_embed_dim=8", "--opt", "enc_layers=1", "--opt", "enc_heads=2",
    "--opt", "max_len=32", "--opt", "latent_dim=4", "--opt", "dec_embed_dim=8",
    "--opt", "dec_hidden_dim=8", "--opt", "dec_layers=1", "--opt", "dec_heads=2",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = cli.main([
        "synth", "--out", str(out), "--n-per-label", "3",
        "--val-per-label", "2", "--test-per-label", "2", "--seed", "5",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def disc_run(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("disc-run")
    rc = cli.main([
        "train", "--model", "disc",
        "--train", str(synth_dir / "train.jsonl"),
        "--val", str(synth_dir / "val.jsonl"),
        "--test", str(synth_dir / "test.jsonl"),
        "--out", str(out), "--max-epochs", "2", "--batch", "8", *DISC_OPTS,
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def vae_run(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("vae-run")
    rc = cli.main([
        "train", "--model", "vae-bow",
        "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), "--max-epochs", "1", "--batch", "8", *VAE_OPTS,
    ])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# parsing, usage, version


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "a subcommand is required" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_required_flag(capsys, tmp_path):
    assert cli.main(["train", "--out", str(tmp_path / "x")]) == 1
    assert "--model is required" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # nothing written on usage errors


def test_invalid_model_choice(capsys, tmp_path):
    rc = cli.main(["train", "--model", "rnn-svm", "--train", "t", "--out", str(tmp_path)])
    assert rc == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_input_file_is_data_error(capsys):
    assert cli.main(["stats", "--in", "/nonexistent/corpus.jsonl"]) == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth + stats


def test_synth_outputs(synth_dir):
    for name, n in (("train.jsonl", 21), ("val.jsonl", 14), ("test.jsonl", 14)):
        clauses = load_corpus(synth_dir / name)
        assert len(clauses) == n
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["tool_version"] == __version__
    assert manifest["inputs"] == {}
    assert manifest["config"]["n_per_label"] == 3
    assert set(manifest) == {
        "command", "config", "config_digest", "inputs", "seed",
        "tool_version", "timestamp",
    }


@pytest.mark.parametrize("flags,field", [
    (["--n-per-label", "0"], "train set: n_per_label must be >= 1, got 0"),
    (["--val-per-label", "0"], "val set: n_per_label must be >= 1, got 0"),
    (["--test-per-label", "-1"], "test set: n_per_label must be >= 1, got -1"),
    (["--noise", "1.5"], "noise must be in [0, 1], got 1.5"),
    (["--noise", "nan"], "noise must be in [0, 1], got nan"),
    (["--genre-salience", "-0.1"], "genre_salience must be in [0, 1], got -0.1"),
])
def test_synth_bad_value_is_data_error_before_any_output(capsys, tmp_path, flags, field):
    out = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


def test_stats_tables(capsys, synth_dir):
    assert cli.main(["stats", "--in", str(synth_dir / "train.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "clauses 21" in out
    for label in ("STATE", "EVENT", "REPORT", "GENERIC", "GENERALIZING",
                  "QUESTION", "IMPERATIVE"):
        assert f"label {label} 3" in out
    assert "genre " in out


def test_stats_combines_multiple_files(capsys, synth_dir):
    rc = cli.main(["stats", "--in", str(synth_dir / "val.jsonl"),
                   "--in", str(synth_dir / "test.jsonl")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "label STATE 4" in out  # 2 + 2 per label across the two files


# ---------------------------------------------------------------------------
# train / eval


def test_train_writes_expected_files(disc_run):
    for name in ("manifest.json", "split.json", "train_log.jsonl",
                 "model.ckpt", "eval_test.json"):
        assert (disc_run / name).exists(), name
    manifest = json.loads((disc_run / "manifest.json").read_text())
    assert manifest["config"]["model"] == "disc"
    assert manifest["config"]["spec"]["options"]["embed_dim"] == 8
    assert manifest["config"]["train_config"]["max_epochs"] == 2
    assert len(manifest["inputs"]) == 3
    split = json.loads((disc_run / "split.json").read_text())
    assert len(split["train"]) == 21
    assert len(split["validation"]) == 14
    assert len(split["test"]) == 14


def test_train_log_is_jsonl(disc_run):
    lines = (disc_run / "train_log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["epoch"] for r in records] == list(range(len(records)))
    assert all("val_macro_f1" in r for r in records)


def test_eval_reproduces_training_test_metrics(tmp_path, synth_dir, disc_run):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--ckpt", str(disc_run / "model.ckpt"),
                   "--data", str(synth_dir / "test.jsonl"), "--out", str(out)])
    assert rc == 0
    got = json.loads((out / "eval.json").read_text())
    want = json.loads((disc_run / "eval_test.json").read_text())
    for key in ("accuracy", "macro_f1", "per_class", "confusion"):
        assert got[key] == want[key], key


def test_eval_rejects_garbage_checkpoint(capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    rc = cli.main(["eval", "--ckpt", str(bad), "--data", "x", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()])
def test_eval_of_missing_or_directory_checkpoint_is_data_error(capsys, tmp_path, synth_dir, make):
    ckpt = tmp_path / "model.ckpt"
    make(ckpt)
    out = tmp_path / "o"
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir / "test.jsonl"),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read checkpoint" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "[1, 2]",
    '{"text": "x.", "label": "state", "par_id": "abc"}',
    '{"text": "x.", "label": "state", "par_id": null}',
    '{"text": "x.", "label": "state", "par_id": NaN}',
    '{"text": "x.", "label": "state", "par_id": 1e400}',
    '{"text": "x.", "label": "state", "clause_idx": 1.5}',
])
def test_stats_of_unreadable_record_is_data_error(capsys, tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "ok.", "label": "state"}\n' + line + "\n")
    assert cli.main(["stats", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["corpus", "config", "missing-corpus", "missing-config"])
def test_non_utf8_input_is_data_error(capsys, tmp_path, name):
    # a missing file goes through the same reader, and fails the same way
    path = tmp_path / name
    if not name.startswith("missing"):
        path.write_bytes(b'{"text": "caf\xe9.", "label": "state"}\n')
    out = tmp_path / "o"
    args = (["stats", "--in", str(path)] if name.endswith("corpus")
            else ["synth", "--config", str(path), "--out", str(out)])
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert ("cannot read" if name.startswith("missing") else "UTF-8") in err
    assert not out.exists()


def test_train_with_subsample_k(tmp_path, synth_dir):
    out = tmp_path / "k2"
    rc = cli.main([
        "train", "--model", "disc", "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), "--k", "2", "--max-epochs", "1", "--batch", "8",
        "--seed", "3", *DISC_OPTS,
    ])
    assert rc == 0
    split = json.loads((out / "split.json").read_text())
    assert len(split["train"]) == 14  # 2 per label
    assert "k=2" in split["provenance"]
    assert "seed=3" in split["provenance"]


def test_train_with_k_zero_is_data_error(capsys, tmp_path, synth_dir):
    out = tmp_path / "k0"
    rc = cli.main(["train", "--model", "disc", "--train", str(synth_dir / "train.jsonl"),
                   "--out", str(out), "--k", "0", *DISC_OPTS])
    assert rc == 2
    assert "k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_leaves_cwd_untouched(tmp_path, monkeypatch, synth_dir):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--model", "disc", "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), "--max-epochs", "1", "--batch", "8", *DISC_OPTS,
    ])
    assert rc == 0
    assert os.listdir(workdir) == []
    assert sorted(os.listdir(synth_dir)) == [
        "manifest.json", "test.jsonl", "train.jsonl", "val.jsonl",
    ]


@pytest.mark.parametrize("model", ["disc", "ctx"])
def test_an_overflowing_lstm_projection_is_a_numerics_error(capsys, tmp_path, synth_dir, model):
    # after one Adam step at this rate the input weights are near 1e300, so
    # the input projection overflows; the kernel's saturated gates would
    # map it to finite states, so the replayed step checks the projection
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning, match="overflow encountered in matmul"):
        rc = cli.main(["train", "--model", model, "--train", str(synth_dir / "train.jsonl"),
                       "--out", str(out), "--lr", "1e300", "--max-epochs", "2", "--batch", "8",
                       *DISC_OPTS])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite values in output of op '" in err and "lstm_seq'" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# config files


def test_config_file_precedence(tmp_path, synth_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comments and dashed keys are fine\n"
        "max-epochs = 1\n"
        "seed = 9\n"
        "batch = 8\n"
    )
    out = tmp_path / "out"
    rc = cli.main([
        "train", "--model", "disc", "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), "--config", str(cfg), "--seed", "3", *DISC_OPTS,
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3          # flag beats file
    assert manifest["config"]["max_epochs"] == 1    # file beats default
    assert manifest["config"]["patience"] == 5      # builtin default
    assert manifest["seed"] == 3


@pytest.mark.parametrize("command,lines,needle", [
    (["train", "--model", "disc", "--train", "TRAIN", *DISC_OPTS], ["lr = 0.1", "lr = 0.2"],
     "'lr' sets lr again; line 2 set it already as 'lr'"),
    (["train", "--model", "disc", "--train", "TRAIN", *DISC_OPTS],
     ["max-epochs = 1", "max_epochs = 2"], "'max_epochs' sets max_epochs again; line 2"),
    (["stats"], ["in = TRAIN", "infiles = TRAIN"],
     "'infiles' sets infiles again; line 2 set it already as 'in'"),
], ids=["lr", "max-epochs", "in"])
def test_config_file_setting_a_flag_twice_is_data_error(capsys, tmp_path, synth_dir, command,
                                                        lines, needle):
    train = str(synth_dir / "train.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# line 1\n" + "".join(line.replace("TRAIN", train) + "\n" for line in lines))
    out = tmp_path / "out"
    argv = [train if arg == "TRAIN" else arg for arg in command]
    if command[0] != "stats":  # stats writes only to stdout
        argv += ["--out", str(out)]
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"{cfg}:3: {needle}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("verbosity = 3\n")
    rc = cli.main(["stats", "--in", "whatever.jsonl", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_can_supply_required_flags(capsys, tmp_path, synth_dir):
    cfg = tmp_path / "in.cfg"
    cfg.write_text(f"in = {synth_dir / 'train.jsonl'}\n")
    assert cli.main(["stats", "--config", str(cfg)]) == 0
    assert "clauses 21" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# convert


def test_convert_with_field_map(capsys, tmp_path):
    src = tmp_path / "foreign.jsonl"
    rows = [
        {"sentence": "the cat sat .", "tag": "STATE", "genre": "news"},
        {"sentence": "the dog ran .", "tag": "EVENT", "genre": "news"},
    ]
    src.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "converted"
    rc = cli.main(["convert", "--in", str(src), "--out", str(out),
                   "--map", "text=sentence", "--map", "label=tag"])
    assert rc == 0
    assert "wrote 2 clauses" in capsys.readouterr().out
    clauses = load_corpus(out / "converted.jsonl")
    assert [cl.tokens for cl in clauses] == [["the", "cat", "sat", "."],
                                             ["the", "dog", "ran", "."]]
    assert clauses[0].label.name == "STATE"


@pytest.mark.parametrize("name", ["../escaped.jsonl", "sub/c.jsonl", "ABSOLUTE", "", ".", "..",
                                  "manifest.json"])
def test_convert_name_must_be_a_plain_file_name(capsys, tmp_path, synth_dir, name):
    # any other name would write outside --out, fail on a directory, or
    # overwrite the manifest
    name = str(tmp_path / "abs.jsonl") if name == "ABSOLUTE" else name
    rc = cli.main(["convert", "--in", str(synth_dir / "train.jsonl"),
                   "--out", str(tmp_path / "out"), "--name", name])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--name must be a plain file name" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# sweep / crossgenre


def test_opt_false_bool_stays_false(tmp_path, synth_dir):
    out = tmp_path / "run"
    rc = cli.main([
        "train", "--model", "vae-bow", "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), "--max-epochs", "1", "--batch", "8", *VAE_OPTS,
        "--opt", "tie_embeddings=false",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["spec"]["options"]["tie_embeddings"] is False


@pytest.mark.parametrize("opt", ["latent_dim=1.5", "tie_embeddings=yes", "beta=high"])
def test_unparsable_opt_is_data_error(capsys, tmp_path, synth_dir, opt):
    out = tmp_path / "run"
    key = opt.split("=")[0]
    # a key may be set only once, so opt replaces its VAE_OPTS entry
    opts = [a for o in VAE_OPTS[1::2] if not o.startswith(key + "=") for a in ("--opt", o)]
    rc = cli.main([
        "train", "--model", "vae-bow", "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), *opts, "--opt", opt,
    ])
    assert rc == 2
    assert f"option {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model,opt", [
    ("vae-bow", "latent_dim=0"),
    ("lat", "n_latent=0"),
    ("disc", "hidden_dim=-1"),
    ("vae-bow", "enc_heads=3"),
    ("vae-xfmr", "dec_heads=3"),
    ("vae-lstm", "beta=1.5"),
    ("vae-xfmr", "dec_hidden_dim=16"),
    ("vae-xfmr", "dec_embed_dim=1"),
])
def test_out_of_range_opt_is_data_error_before_any_output(capsys, tmp_path, synth_dir,
                                                         model, opt):
    out = tmp_path / "run"
    base = VAE_OPTS if model.startswith("vae") else DISC_OPTS
    rc = cli.main([
        "train", "--model", model, "--train", str(synth_dir / "train.jsonl"),
        "--out", str(out), *base, "--opt", opt,
    ])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_negative_beta_warmup_is_data_error(capsys, tmp_path, synth_dir):
    out = tmp_path / "run"
    rc = cli.main(["train", "--model", "vae-bow", "--train", str(synth_dir / "train.jsonl"),
                   "--out", str(out), *VAE_OPTS, "--beta-warmup-steps", "-1"])
    assert rc == 2
    assert "beta_warmup_steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model,flags,field", [
    ("disc", ["--max-epochs", "0"], "max_epochs"),
    ("disc", ["--weight-decay", "-3"], "weight_decay"),
    ("disc", ["--grad-clip", "-1"], "grad_clip"),
    ("vae-bow", ["--opt", "label_loss_weight=-5"], "label_loss_weight"),
    ("disc", ["--lr", "nan"], "lr"),
    ("disc", ["--lr", "inf"], "lr"),
    ("disc", ["--weight-decay", "inf"], "weight_decay"),
    ("disc", ["--grad-clip", "inf"], "grad_clip"),
    ("vae-bow", ["--opt", "label_loss_weight=inf"], "label_loss_weight"),
    ("disc", ["--train", "EMPTY"], "empty training split"),
    ("disc", ["--val", "EMPTY"], "cannot validate on zero clauses"),
    ("disc", ["--test", "EMPTY"], "cannot evaluate on zero clauses"),
])
def test_out_of_range_training_value_is_data_error_before_any_output(capsys, tmp_path, synth_dir,
                                                                     model, flags, field):
    out = tmp_path / "run"
    base = VAE_OPTS if model.startswith("vae") else DISC_OPTS
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    flags = [str(empty) if flag == "EMPTY" else flag for flag in flags]
    # a flag is given once: the case's own --train replaces the default one
    train = [] if "--train" in flags else ["--train", str(synth_dir / "train.jsonl")]
    rc = cli.main(["train", "--model", model, *train, "--out", str(out), *base, *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_outputs(tmp_path, synth_dir):
    out = tmp_path / "sweep"
    rc = cli.main([
        "sweep", "--models", "disc", "--ks", "2", "--seeds", "1,2",
        "--train", str(synth_dir / "train.jsonl"),
        "--val", str(synth_dir / "val.jsonl"),
        "--test", str(synth_dir / "test.jsonl"),
        "--out", str(out), "--max-epochs", "1", "--batch", "8", *DISC_OPTS,
    ])
    assert rc == 0
    lines = (out / "sweep.tsv").read_text().splitlines()
    assert lines[0] == "model\tk\tseed\taccuracy\tmacro_f1"
    assert len(lines) == 3
    assert [l.split("\t")[:3] for l in lines[1:]] == [["disc", "2", "1"], ["disc", "2", "2"]]
    alines = (out / "sweep_aggregates.tsv").read_text().splitlines()
    assert alines[0] == "model\tk\tmean_accuracy\tstd_accuracy\tmean_macro_f1\tstd_macro_f1"
    assert len(alines) == 2
    meta = json.loads((out / "sweep_meta.json").read_text())
    assert len(meta["rows"]) == 2
    got = [l.split("\t") for l in lines[1:]]
    for row, cells in zip(meta["rows"], got):
        assert row[:3] == [cells[0], int(cells[1]), int(cells[2])]
        assert row[3] == float(cells[3]) and row[4] == float(cells[4])


def test_sweep_of_an_empty_test_file_is_data_error_before_any_output(capsys, tmp_path, synth_dir):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--models", "disc", "--ks", "2", "--seeds", "1",
                   "--train", str(synth_dir / "train.jsonl"), "--test", str(empty),
                   "--out", str(out), "--max-epochs", "1", *DISC_OPTS])
    assert rc == 2
    captured = capsys.readouterr()
    assert "cannot evaluate on zero clauses" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_rejects_unknown_model(capsys, tmp_path):
    rc = cli.main(["sweep", "--models", "disc,bogus", "--train", "t",
                   "--test", "t", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "unknown model 'bogus'" in capsys.readouterr().err


def _sweep_args(synth_dir, out, *extra):
    return ["sweep", "--train", str(synth_dir / "train.jsonl"),
            "--val", str(synth_dir / "val.jsonl"), "--test", str(synth_dir / "test.jsonl"),
            "--out", str(out), "--max-epochs", "1", "--batch", "8", *DISC_OPTS, *extra]


@pytest.mark.parametrize("command,flags,flag", [
    ("sweep", ["--models", "", "--ks", "2"], "--models"),
    ("sweep", ["--models", "disc", "--ks", ""], "--ks"),
    ("sweep", ["--models", "disc", "--ks", "2", "--seeds", ","], "--seeds"),
    ("sweep", ["--models", "disc", "--ks", "2", "--config", "CONFIG:seeds"], "--seeds"),
    ("gradcheck", ["--seeds", ""], "--seeds"),
    ("stats", ["--in", ""], "--in"),
    ("crossgenre", ["--genres", ""], "--genres"),
    ("crossgenre", ["--genres", ","], "--genres"),
    ("crossgenre", ["--config", "CONFIG:genres"], "--genres"),
    ("crossgenre", ["--opt", ""], "--opt"),
])
def test_empty_list_flag_is_usage_error_before_any_output(capsys, tmp_path, synth_dir, command,
                                                          flags, flag):
    # each used to run nothing, or crossgenre every genre, and exit 0:
    # header-only sweep TSVs, a gradcheck "pass" that probed no seed,
    # all-zero stats tables
    out = tmp_path / "out"
    config = tmp_path / "empty-list.cfg"
    for f in flags:
        if f.startswith("CONFIG:"):
            config.write_text(f"{f[len('CONFIG:'):]} =\n")
    flags = [str(config) if f.startswith("CONFIG:") else f for f in flags]
    if command == "sweep":
        argv = _sweep_args(synth_dir, out, *flags)
    elif command == "crossgenre":
        argv = ["crossgenre", "--model", "disc", "--data", str(synth_dir / "train.jsonl"),
                "--out", str(out), *flags]
    elif command == "gradcheck":
        argv = ["gradcheck", "--out", str(out), *flags]
    else:
        argv = ["stats", *flags]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"{flag} needs at least one entry" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def _tsv_rows(path):
    return [line.split("\t") for line in path.read_text().splitlines()[1:]]


def test_sweep_grid_order_and_aggregates(tmp_path, synth_dir):
    out = tmp_path / "sweep"
    rc = cli.main(_sweep_args(synth_dir, out, "--models", "disc,gen", "--ks", "2,3",
                              "--seeds", "1,2"))
    assert rc == 0
    rows = _tsv_rows(out / "sweep.tsv")
    assert [tuple(r[:3]) for r in rows] == [
        (m, k, s) for m in ("disc", "gen") for k in ("2", "3") for s in ("1", "2")]
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0 and 0.0 <= float(row[4]) <= 1.0

    # aggregate arithmetic against an fsum oracle, group by (model, k)
    aggregates = _tsv_rows(out / "sweep_aggregates.tsv")
    assert [tuple(a[:2]) for a in aggregates] == [
        (m, k) for m in ("disc", "gen") for k in ("2", "3")]
    for name, k, *stats in aggregates:
        group = [r for r in rows if r[:2] == [name, k]]
        for col, (mean, std) in ((3, stats[0:2]), (4, stats[2:4])):
            values = [float(r[col]) for r in group]
            ref_mean = math.fsum(values) / len(values)
            ref_std = math.sqrt(math.fsum((v - ref_mean) ** 2 for v in values) / len(values))
            assert abs(float(mean) - ref_mean) <= 1e-12
            assert abs(float(std) - ref_std) <= 1e-12

    # the runs' seeds come from --seeds, and the manifest records them
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == [1, 2]
    assert "seed" not in manifest["config"]


def test_sweep_has_no_seed_flag(capsys, tmp_path, synth_dir):
    out = tmp_path / "sweep"
    rc = cli.main(_sweep_args(synth_dir, out, "--models", "disc", "--ks", "2", "--seed", "3"))
    assert rc == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ks", ["2,50", "0", "4"])
def test_sweep_rejects_k_beyond_the_rarest_label_up_front(capsys, monkeypatch, tmp_path,
                                                          synth_dir, ks):
    # synth_dir's train file holds 3 clauses per label
    monkeypatch.setattr(cli.harness, "train", lambda *a, **kw: pytest.fail("trained a cell"))
    out = tmp_path / "sweep"
    rc = cli.main(_sweep_args(synth_dir, out, "--models", "disc", "--ks", ks))
    assert rc == 2
    assert "outside 1..3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "crossgenre"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(capsys, tmp_path, synth_dir, command, jobs):
    out = tmp_path / "run"
    if command == "sweep":
        args = _sweep_args(synth_dir, out, "--models", "disc", "--ks", "2")
    else:
        args = ["crossgenre", "--model", "disc", "--data", str(synth_dir / "train.jsonl"),
                "--out", str(out)]
    assert cli.main([*args, "--jobs", jobs]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


def test_pool_never_has_more_processes_than_cells(monkeypatch, tmp_path, synth_dir,
                                                  three_genre_file):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.multiprocessing, "Pool", _RecordingPool)
    rc = cli.main(_sweep_args(synth_dir, tmp_path / "s", "--models", "disc", "--ks", "2",
                              "--seeds", "1,2", "--jobs", "8"))
    assert rc == 0
    assert _RecordingPool.sizes == [2]
    xg = ["crossgenre", "--model", "disc", "--data", str(three_genre_file),
          "--max-epochs", "1", "--batch", "8", *DISC_OPTS, "--jobs", "4"]
    assert cli.main([*xg, "--out", str(tmp_path / "x1"), "--genres", "news"]) == 0
    assert _RecordingPool.sizes == [2]  # one cell runs in this process
    assert cli.main([*xg, "--out", str(tmp_path / "x3")]) == 0
    assert _RecordingPool.sizes == [2, 3]


def test_sweep_jobs_2_writes_the_rows_of_jobs_1(tmp_path, synth_dir):
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        rc = cli.main(_sweep_args(synth_dir, outs[jobs], "--models", "disc", "--ks", "2",
                                  "--seeds", "1,2", "--jobs", jobs))
        assert rc == 0
    for name in ("sweep.tsv", "sweep_aggregates.tsv"):
        assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes()


@pytest.fixture(scope="module")
def three_genre_file(tmp_path_factory):
    corpus = make_synthetic_corpus(6, seed=4, genres=("news", "fiction", "blog"))
    path = tmp_path_factory.mktemp("genres") / "three-genre.jsonl"
    write_jsonl(corpus, path)
    return path


def _crossgenre(path, out, *extra):
    rc = cli.main(["crossgenre", "--model", "disc", "--data", str(path), "--out", str(out),
                   "--max-epochs", "1", "--batch", "8", *DISC_OPTS, *extra])
    assert rc == 0
    return _tsv_rows(out / "crossgenre.tsv")


def test_crossgenre_defaults_to_every_present_genre(tmp_path, three_genre_file):
    rows = _crossgenre(three_genre_file, tmp_path / "all")
    assert [r[1] for r in rows] == ["blog", "fiction", "news"]  # sorted present genres
    assert all(r[0] == "disc" for r in rows)
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0 and 0.0 <= float(row[3]) <= 1.0
    # one target alone: same split, same seed, same row
    (only,) = _crossgenre(three_genre_file, tmp_path / "news", "--genres", "news")
    assert only == rows[2]


def test_crossgenre_jobs_2_writes_the_rows_of_jobs_1(tmp_path, three_genre_file):
    serial = _crossgenre(three_genre_file, tmp_path / "j1", "--genres", "news,blog")
    assert _crossgenre(three_genre_file, tmp_path / "j2", "--genres", "news,blog",
                       "--jobs", "2") == serial


def test_crossgenre_needs_two_genres(capsys, tmp_path):
    data = tmp_path / "one-genre.jsonl"
    write_jsonl(make_synthetic_corpus(6, seed=4, genres=("news",)), data)
    out = tmp_path / "xg"
    rc = cli.main(["crossgenre", "--model", "disc", "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert "at least 2 genres" in capsys.readouterr().err
    assert not out.exists()


def test_crossgenre_rejects_unknown_genre_up_front(capsys, monkeypatch, tmp_path,
                                                  three_genre_file):
    monkeypatch.setattr(cli.harness, "train", lambda *a, **kw: pytest.fail("trained a cell"))
    out = tmp_path / "xg"
    rc = cli.main(["crossgenre", "--model", "disc", "--data", str(three_genre_file),
                   "--genres", "blog,bogus", "--out", str(out)])
    assert rc == 2
    assert "'bogus' not in" in capsys.readouterr().err
    assert not out.exists()


def test_crossgenre_outputs(tmp_path):
    corpus = make_synthetic_corpus(6, seed=0, genres=("news", "fiction"))
    data = tmp_path / "two-genre.jsonl"
    write_jsonl(corpus, data)
    out = tmp_path / "xg"
    rc = cli.main([
        "crossgenre", "--model", "disc", "--data", str(data),
        "--genres", "news", "--out", str(out),
        "--max-epochs", "1", "--batch", "8", *DISC_OPTS,
    ])
    assert rc == 0
    lines = (out / "crossgenre.tsv").read_text().splitlines()
    assert lines[0] == "model\tgenre\taccuracy\tmacro_f1"
    assert len(lines) == 2
    assert lines[1].split("\t")[:2] == ["disc", "news"]
    meta = json.loads((out / "crossgenre_meta.json").read_text())
    assert len(meta["rows"]) == 1


@pytest.mark.parametrize("command,flag", [
    (["train", "--model", "disc", "--train", "TRAIN", "--seed", "-1"], "--seed"),
    (["crossgenre", "--model", "disc", "--data", "TRAIN", "--seed", "-1"], "--seed"),
    (["sweep", "--models", "disc", "--ks", "1", "--train", "TRAIN", "--test", "TRAIN",
      "--seeds", "-3"], "--seeds"),
    (["gradcheck", "--seeds", "-1"], "--seeds"),
    (["synth", "--seed", "-1"], "--seed"),
])
def test_negative_seed_is_data_error_before_any_output(capsys, monkeypatch, tmp_path, synth_dir,
                                                       command, flag):
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", lambda **kw: pytest.fail("ran the suite"))
    out = tmp_path / "out"
    argv = [str(synth_dir / "train.jsonl") if arg == "TRAIN" else arg for arg in command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be >= 0, got -" in err and "Traceback" not in err
    assert flag.lstrip("-") in err
    assert not out.exists()


@pytest.mark.parametrize("command,code,needle", [
    (["convert", "--in", "TRAIN", "--map", "text=body", "--map", "text=body"], 1, "--map repeats"),
    (["convert", "--in", "TRAIN", "--map", "text=body", "--map", "text=words"], 2,
     "--map sets 'text' twice"),
    (["stats", "--in", "TRAIN", "--in", "TRAIN"], 1, "--in repeats"),
    (["train", "--model", "disc", "--train", "TRAIN", "--opt", "embed_dim=4",
      "--opt", "embed_dim=8"], 2, "--opt sets 'embed_dim' twice"),
    (["sweep", "--models", "disc,disc", "--ks", "1", "--train", "TRAIN", "--test", "TRAIN",
      "--seeds", "1"], 1, "--models repeats 'disc'"),
    (["sweep", "--models", "disc", "--ks", "1", "--train", "TRAIN", "--test", "TRAIN",
      "--seeds", "1,1"], 1, "--seeds repeats '1'"),
    (["sweep", "--models", "disc", "--ks", "1", "--train", "TRAIN", "--test", "TRAIN",
      "--seeds", "1,01"], 2, "--seeds repeats 1"),
    (["crossgenre", "--model", "disc", "--data", "TRAIN", "--genres", "blog,blog"], 1,
     "--genres repeats 'blog'"),
    (["gradcheck", "--seeds", "0,00"], 2, "--seeds repeats 0"),
], ids=["convert-map", "convert-map-key", "stats-in", "train-opt-key", "sweep-models",
        "sweep-seeds", "sweep-seeds-int", "crossgenre-genres", "gradcheck-seeds-int"])
def test_repeated_list_entry_is_an_error_before_any_output(capsys, monkeypatch, tmp_path, synth_dir,
                                                            command, code, needle):
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", lambda **kw: pytest.fail("ran the suite"))
    out = tmp_path / "out"
    argv = [str(synth_dir / "train.jsonl") if arg == "TRAIN" else arg for arg in command]
    if command[0] != "stats":  # stats writes only to stdout
        argv += ["--out", str(out)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert needle in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("out", ["FILE", "FILE/sub"])
@pytest.mark.parametrize("command", [
    ["convert", "--in", "TRAIN"],
    ["synth"],
    ["train", "--model", "disc", "--train", "TRAIN", *DISC_OPTS],
    ["eval", "--ckpt", "DISC_CKPT", "--data", "TRAIN"],
    ["sweep", "--models", "disc", "--ks", "1", "--seeds", "1", "--train", "TRAIN",
     "--test", "TRAIN", *DISC_OPTS],
    ["crossgenre", "--model", "disc", "--data", "TRAIN", *DISC_OPTS],
    ["gradcheck", "--seeds", "0"],
    ["export-latents", "--ckpt", "VAE_CKPT", "--data", "TRAIN"],
], ids=lambda command: command[0])
def test_unusable_out_is_data_error_before_any_output(capsys, monkeypatch, tmp_path, synth_dir,
                                                      disc_run, vae_run, command, out):
    # --out names an existing file, or a directory under one
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", lambda **kw: pytest.fail("ran the suite"))
    blocker = tmp_path / "FILE"
    blocker.write_text("a file\n")
    paths = {"TRAIN": synth_dir / "train.jsonl", "DISC_CKPT": disc_run / "model.ckpt",
             "VAE_CKPT": vae_run / "model.ckpt"}
    argv = [str(paths[arg]) if arg in paths else arg for arg in command]
    assert cli.main([*argv, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert f"cannot create --out {tmp_path / out}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert blocker.read_text() == "a file\n"
    assert list(tmp_path.iterdir()) == [blocker]


_SWEEP = ["sweep", "--models", "disc", "--ks", "1", "--seeds", "1", "--train", "TRAIN", "--test", "TRAIN",
          *DISC_OPTS]
_CROSSGENRE = ["crossgenre", "--model", "disc", "--data", "TRAIN", *DISC_OPTS]


@pytest.mark.parametrize("command,taken", [
    (["convert", "--in", "TRAIN", "--name", "sub"], "sub"),
    (["convert", "--in", "TRAIN"], "manifest.json"),
    (["synth"], "val.jsonl"),
    (["train", "--model", "disc", "--train", "TRAIN", *DISC_OPTS], "model.ckpt"),
    (["train", "--model", "disc", "--train", "TRAIN", "--test", "TRAIN", *DISC_OPTS], "eval_test.json"),
    (["eval", "--ckpt", "DISC_CKPT", "--data", "TRAIN"], "eval.json"),
    (_SWEEP, "sweep_meta.json"),
    (_CROSSGENRE, "crossgenre.tsv"),
    (["gradcheck", "--seeds", "0"], "gradcheck.json"),
    (["export-latents", "--ckpt", "VAE_CKPT", "--data", "TRAIN"], "latents.tsv"),
], ids=lambda arg: arg if isinstance(arg, str) else arg[0])
def test_output_name_taken_by_a_directory_is_data_error_before_any_output(
        capsys, monkeypatch, tmp_path, synth_dir, disc_run, vae_run, command, taken):
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", lambda **kw: pytest.fail("ran the suite"))
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    paths = {"TRAIN": synth_dir / "train.jsonl", "DISC_CKPT": disc_run / "model.ckpt",
             "VAE_CKPT": vae_run / "model.ckpt"}
    argv = [str(paths[arg]) if arg in paths else arg for arg in command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out / taken}: it is a directory" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert list(out.iterdir()) == [out / taken] and not any((out / taken).iterdir())


@pytest.mark.parametrize("command,flag", [
    (["train", "--model", "disc", "--train", "TRAIN", "--lr", "0.1", "--lr", "0.2", *DISC_OPTS], "--lr"),
    (["train", "--model", "disc", "--model", "gen", "--train", "TRAIN", *DISC_OPTS], "--model"),
    (["synth", "--seed", "1", "--seed=2"], "--seed"),
    (["convert", "--in", "TRAIN", "--in", "TRAIN"], "--in"),
    (["stats", "--in", "TRAIN", "--config", "EMPTY", "--config", "EMPTY"], "--config"),
], ids=["train-lr", "train-model", "synth-seed", "convert-in", "stats-config"])
def test_scalar_flag_given_twice_is_usage_error_before_any_output(capsys, tmp_path, synth_dir,
                                                                  command, flag):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    paths = {"TRAIN": synth_dir / "train.jsonl", "EMPTY": empty}
    out = tmp_path / "out"
    argv = [str(paths[arg]) if arg in paths else arg for arg in command]
    if command[0] != "stats":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"{flag} given twice" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


class _BoundedPool(multiprocessing.pool.Pool):
    """multiprocessing.Pool whose map fails instead of hanging past
    FORK_TIMEOUT_S; leaving the with block terminates its workers."""

    def map(self, fn, jobs):
        return self.map_async(fn, jobs).get(FORK_TIMEOUT_S)


FORK_TIMEOUT_S = 120


def test_a_ctx_sweep_runs_in_workers_forked_after_ctx_tagged_here(monkeypatch, tmp_path,
                                                                   synth_dir):
    # tagging with ctx here starts the kernels' worker thread; a forked pool
    # worker has no thread behind that executor and must start its own
    spec = default_spec("ctx", embed_dim=8, hidden_dim=8)
    model = build_model(spec, 30, np.full(7, 1 / 7), seed=0)
    model.batch_probs([[[5, 6, 7], [8, 9]]])
    assert kernels._WORKER is not None
    monkeypatch.setattr(cli.multiprocessing, "Pool", _BoundedPool)
    rc = cli.main(_sweep_args(synth_dir, tmp_path / "s", "--models", "ctx", "--ks", "2",
                              "--seeds", "1,2", "--jobs", "2"))
    assert rc == 0
    assert len(_tsv_rows(tmp_path / "s" / "sweep.tsv")) == 2


# ---------------------------------------------------------------------------
# gradcheck exit codes (suite itself is exercised elsewhere; stub it here)


def _fake_suite(passed):
    def suite(seeds=(0, 1, 2)):
        return {"disc": {"max_rel_err": 1e-6 if passed else 0.5,
                         "passed": passed, "seconds": 0.01}}
    return suite


def test_gradcheck_pass_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", _fake_suite(True))
    out = tmp_path / "gc"
    assert cli.main(["gradcheck", "--out", str(out)]) == 0
    assert "pass" in capsys.readouterr().out
    blob = json.loads((out / "gradcheck.json").read_text())
    assert blob["results"]["disc"]["passed"] is True


def test_gradcheck_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.gradcheck, "gradient_suite", _fake_suite(False))
    assert cli.main(["gradcheck"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "gradient check failed" in captured.err


# ---------------------------------------------------------------------------
# a model spec too large to build


def _restamped(ckpt, out, **options):
    """A copy of checkpoint ckpt whose header spec takes options, with the
    stamp recomputed to match it."""
    blob = ckpt.read_bytes()
    (size,) = struct.unpack("<Q", blob[76:84])
    header = json.loads(blob[84:84 + size])
    header["spec"]["options"].update(options)
    stamp = spec_hash(ModelSpec.from_json(header["spec"])).encode()
    body = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(blob[:12] + stamp + struct.pack("<Q", len(body)) + body + blob[84 + size:])
    return out


def test_train_of_a_spec_too_large_to_build_is_data_error(capsys, tmp_path, synth_dir):
    # the model's size is a function of its spec and vocabulary size, so it
    # is checked before the manifest
    out = tmp_path / "run"
    rc = cli.main(["train", "--model", "disc", "--train", str(synth_dir / "train.jsonl"),
                   "--out", str(out), "--opt", f"hidden_dim={10 ** 12}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model 'disc'" in err and "too large to build" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_of_a_spec_too_large_to_build_is_checkpoint_error(capsys, tmp_path, synth_dir,
                                                                disc_run):
    ckpt = _restamped(disc_run / "model.ckpt", tmp_path / "huge.ckpt", hidden_dim=10 ** 12)
    out = tmp_path / "out"
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir / "val.jsonl"),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "checkpoint spec cannot be built: model 'disc'" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# clauses past a vae encoder's max_len


@pytest.fixture(scope="module")
def long_clause_file(tmp_path_factory):
    """A three-genre corpus with one clause of 40 tokens, past VAE_OPTS's
    max_len of 32; returns its path and that clause's coordinates."""
    clauses = make_synthetic_corpus(2, seed=4, genres=("news", "fiction", "blog"))
    cl = clauses[3]
    clauses[3] = Clause(" ".join(["word"] * 40), cl.label, cl.genre, cl.doc_id, cl.par_id, cl.clause_idx)
    path = tmp_path_factory.mktemp("long") / "long.jsonl"
    write_jsonl(clauses, str(path))
    return path, cl.coords


def assert_names_long_clause(err, coords):
    doc_id, par_id, clause_idx = coords
    assert f"doc_id={doc_id!r} par_id={par_id} clause_idx={clause_idx} has 40 tokens" in err
    assert "max_len=32" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["train", "--model", "vae-bow", "--val", "LONG"],
    ["train", "--model", "vae-bow", "--test", "LONG"],
    ["sweep", "--models", "vae-bow", "--ks", "1", "--seeds", "1", "--test", "LONG"],
    ["crossgenre", "--model", "vae-bow", "--data", "LONG"],
])
def test_training_commands_reject_over_long_clause_before_any_output(capsys, tmp_path, synth_dir,
                                                                     long_clause_file, command):
    path, coords = long_clause_file
    out = tmp_path / "run"
    train = [] if command[0] == "crossgenre" else ["--train", str(synth_dir / "train.jsonl")]
    args = [str(path) if arg == "LONG" else arg for arg in command]
    rc = cli.main([*args, *train, "--out", str(out), "--max-epochs", "1", *VAE_OPTS])
    assert rc == 2
    assert_names_long_clause(capsys.readouterr().err, coords)
    assert not out.exists()


def test_baselines_take_clauses_of_any_length(tmp_path, synth_dir, long_clause_file):
    rc = cli.main(["train", "--model", "disc", "--train", str(synth_dir / "train.jsonl"),
                   "--test", str(long_clause_file[0]), "--out", str(tmp_path / "run"),
                   "--max-epochs", "1", *DISC_OPTS])
    assert rc == 0


@pytest.mark.parametrize("command", ["eval", "export-latents"])
def test_loaded_vae_rejects_over_long_clause_before_any_output(capsys, tmp_path, vae_run,
                                                               long_clause_file, command):
    path, coords = long_clause_file
    out = tmp_path / "out"
    rc = cli.main([command, "--ckpt", str(vae_run / "model.ckpt"), "--data", str(path),
                   "--out", str(out)])
    assert rc == 2
    assert_names_long_clause(capsys.readouterr().err, coords)
    assert not out.exists()


def test_eval_of_zero_clauses_is_data_error_before_any_output(capsys, tmp_path, disc_run):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    rc = cli.main(["eval", "--ckpt", str(disc_run / "model.ckpt"), "--data", str(empty),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "zero clauses" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# export-latents


def test_export_latents_of_zero_clauses_is_data_error_before_any_output(capsys, tmp_path, vae_run):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    rc = cli.main(["export-latents", "--ckpt", str(vae_run / "model.ckpt"), "--data", str(empty),
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "zero clauses" in err and "Traceback" not in err
    assert not out.exists()


def test_export_latents_from_vae_checkpoint(tmp_path, synth_dir, vae_run):
    out = tmp_path / "lat"
    rc = cli.main(["export-latents", "--ckpt", str(vae_run / "model.ckpt"),
                   "--data", str(synth_dir / "val.jsonl"), "--out", str(out)])
    assert rc == 0
    lines = (out / "latents.tsv").read_text().splitlines()
    assert lines[0] == "doc_id\tpar_id\tclause_idx\tlabel\tgenre\tmu_0\tmu_1\tmu_2\tmu_3"
    assert len(lines) == 15  # header + one row per clause
    # every row holds its clause's coordinates and exact posterior means
    model, vocab, _meta = harness.load_checkpoint(vae_run / "model.ckpt")
    rows = harness.export_latents(model, load_corpus(synth_dir / "val.jsonl"), vocab)
    for line, (doc_id, par_id, clause_idx, label, genre, mu) in zip(lines[1:], rows):
        cells = line.split("\t")
        assert cells[:5] == [doc_id, str(par_id), str(clause_idx), label, genre]
        assert [float(c) for c in cells[5:]] == mu.tolist()


def test_export_latents_rejects_baseline_checkpoint(capsys, tmp_path, synth_dir, disc_run):
    rc = cli.main(["export-latents", "--ckpt", str(disc_run / "model.ckpt"),
                   "--data", str(synth_dir / "val.jsonl"),
                   "--out", str(tmp_path / "nope")])
    assert rc == 2
    assert "no latent space" in capsys.readouterr().err
