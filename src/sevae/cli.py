"""Command-line entry point.

Subcommands: convert, stats, synth, train, eval, sweep, crossgenre,
gradcheck, export-latents. Exit codes: 0 success, 1 usage error, 2 data or
checkpoint error, 3 numerical failure (non-finite values, graph misuse, or
a failed gradient check).

Every flag can instead come from a flat key=value config file given with
--config (keys are the flag names with dashes as underscores; repeatable
flags take comma-separated entries). An explicit flag always overrides the
file; a file that sets one flag twice, in either spelling, is a data error.
Each writing subcommand takes --out and touches nothing outside that
directory (an --out that cannot be made a directory is a data error); a
manifest.json recording the command line, the effective config and its
digest, input file digests, seed (sweep: the list of --seeds), version,
and timestamp is written there before any other output; every input check
a command can make up front comes before it.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import replace

from . import __version__, gradcheck, harness, vae
from .data import (
    SEType, Split, Vocab, atomic_write, check_max_len, cross_genre_split, genre_counts,
    json_digest, label_counts, load_corpus, make_synthetic_corpus, read_lines, split_manifest,
    subsample_per_label, write_jsonl, write_tsv,
)
from .errors import CheckpointError, DataError, GraphError, NumericsError
from .models import MODEL_NAMES, ModelSpec, check_size, default_spec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _StoreOnce(argparse.Action):
    """Store a scalar flag; giving it twice is a usage error, as a repeated
    list entry is, rather than a silent override."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} given twice")
        setattr(namespace, self.dest, values)


# ---------------------------------------------------------------------------
# flag schemas: dest -> (type, default, required, extra argparse kwargs)
# type is one of str/int/float or "list" (repeatable flag; comma-separated
# in a config file). Defaults live here, not in argparse, so a config file
# can fill any flag the command line left out.

_TC = harness.TrainConfig  # the training flags' defaults are its fields'
# one flag per TrainConfig field (--batch sets logical_batch); _train_config
# reads exactly these
_TRAIN_FLAGS = {
    "lr": (float, None, False, {"help": "learning rate (default 1e-3, 5e-4 for vae-*)"}),
    "max_epochs": (int, _TC.max_epochs, False, {}),
    "patience": (int, _TC.patience, False, {"help": "epochs without validation gain before stopping"}),
    "seed": (int, _TC.seed, False, {}),
    "batch": (int, _TC.logical_batch, False, {"help": "logical batch size"}),
    "grad_clip": (float, _TC.grad_clip, False, {}),
    "weight_decay": (float, _TC.weight_decay, False, {}),
    "beta_warmup_steps": (int, _TC.beta_warmup_steps, False,
                          {"help": "vae beta rises linearly from 0 over N updates"}),
}
_OPT_FLAG = ("list", [], False, {"help": "model option override key=value, repeatable"})

_SCHEMAS = {
    "convert": {
        "infile": (str, None, True, {"flag": "--in"}),
        "out": (str, None, True, {}),
        "map": ("list", [], False, {"help": "field mapping ours=theirs, repeatable"}),
        "name": (str, "converted.jsonl", False, {"help": "output file name"}),
    },
    "stats": {
        "infiles": ("list", None, True, {"flag": "--in"}),
    },
    "synth": {
        "out": (str, None, True, {}),
        "n_per_label": (int, 60, False, {}),
        "val_per_label": (int, 20, False, {}),
        "test_per_label": (int, 40, False, {}),
        "seed": (int, 0, False, {}),
        "noise": (float, 0.5, False, {}),
        "genre_salience": (float, 0.5, False, {}),
    },
    "train": {
        "model": (str, None, True, {"choices": MODEL_NAMES}),
        "train": (str, None, True, {}),
        "val": (str, None, False, {}),
        "test": (str, None, False, {}),
        "out": (str, None, True, {}),
        "k": (int, None, False, {"help": "subsample k clauses per label before training"}),
        **_TRAIN_FLAGS,
        "opt": _OPT_FLAG,
    },
    "eval": {
        "ckpt": (str, None, True, {}),
        "data": (str, None, True, {}),
        "out": (str, None, True, {}),
    },
    "sweep": {
        "models": ("list", None, True, {"help": "model names, repeatable or comma-separated"}),
        "ks": ("list", ["4", "8", "16", "32", "64", "100", "400", "600", "1000"], False, {}),
        "seeds": ("list", ["1", "2", "3", "4", "5"], False, {}),
        "train": (str, None, True, {}),
        "val": (str, None, False, {}),
        "test": (str, None, True, {}),
        "out": (str, None, True, {}),
        "jobs": (int, 1, False, {}),
        # each run's seed comes from --seeds
        **{k: v for k, v in _TRAIN_FLAGS.items() if k != "seed"},
        "opt": _OPT_FLAG,
    },
    "crossgenre": {
        "model": (str, None, True, {"choices": MODEL_NAMES}),
        "data": (str, None, True, {}),
        "genres": ("list", [], False, {"help": "target genres (default: all present)"}),
        "out": (str, None, True, {}),
        "jobs": (int, 1, False, {}),
        **_TRAIN_FLAGS,
        "opt": _OPT_FLAG,
    },
    "gradcheck": {
        "seeds": ("list", ["0", "1", "2"], False, {}),
        "out": (str, None, False, {"help": "optionally write gradcheck.json here"}),
    },
    "export-latents": {
        "ckpt": (str, None, True, {}),
        "data": (str, None, True, {}),
        "out": (str, None, True, {}),
    },
}

_DESCRIPTIONS = {
    "convert": "Convert a foreign JSONL file to the corpus schema.",
    "stats": "Print clause/label/genre tables for one or more corpus files.",
    "synth": "Generate a synthetic fixture corpus (train/val/test).",
    "train": "Train one model and checkpoint the best state.",
    "eval": "Evaluate a checkpoint on a corpus file.",
    "sweep": "k-per-label low-resource sweep over models and seeds.",
    "crossgenre": "Leave-one-genre-out training and evaluation loop.",
    "gradcheck": "Finite-difference verification of every training objective.",
    "export-latents": "Write posterior means for every clause to TSV.",
}


def build_parser():
    parser = _Parser(prog="sevae", description="Situation-entity clause classification toolkit.")
    parser.add_argument("--version", action="version", version=f"sevae {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, schema in _SCHEMAS.items():
        # no prefix matching: sweep --seed must not read as --seeds
        sub = subs.add_parser(command, description=_DESCRIPTIONS[command], allow_abbrev=False)
        for dest, (typ, _default, _required, extra) in schema.items():
            extra = dict(extra)
            flag = extra.pop("flag", "--" + dest.replace("_", "-"))
            if typ == "list":
                sub.add_argument(flag, dest=dest, action="append", default=None, **extra)
            else:
                sub.add_argument(flag, dest=dest, type=typ, default=None, action=_StoreOnce, **extra)
        sub.add_argument("--config", default=None, action=_StoreOnce, help="key=value config file")
    return parser


def _parse_config_file(path):
    """The (line number, key, value) entries of a config file, keys with
    dashes as underscores."""
    entries = []
    for line_no, line in enumerate(read_lines(path, "config file"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries.append((line_no, key.strip().replace("-", "_"), value.strip()))
    return entries


def _coerce(raw, typ, dest):
    try:
        if typ == "list":
            return [x.strip() for x in raw.split(",") if x.strip()]
        return typ(raw)
    except (TypeError, ValueError):
        raise DataError(f"bad value {raw!r} for config key {dest}") from None


def _config_key_map(schema):
    """Config keys are the flag names; the dest spelling works too."""
    keys = {}
    for dest, (_typ, _default, _required, extra) in schema.items():
        flag = extra.get("flag", "--" + dest.replace("_", "-"))
        keys[flag.lstrip("-").replace("-", "_")] = dest
        keys[dest] = dest
    return keys


def _effective(args, command):
    """Merge precedence: explicit flag > config file > builtin default."""
    schema = _SCHEMAS[command]
    key_map = _config_key_map(schema)
    file_values = {}  # dest -> (line number, key, raw value)
    for line_no, key, raw in _parse_config_file(args.config) if args.config else []:
        if key not in key_map:
            raise DataError(f"unknown config key {key!r} for {command}")
        dest = key_map[key]  # both spellings of a flag (in, infiles) share it
        if dest in file_values:
            first_no, first_key, _ = file_values[dest]
            raise DataError(f"{args.config}:{line_no}: {key!r} sets {dest} again; "
                            f"line {first_no} set it already as {first_key!r}")
        file_values[dest] = (line_no, key, raw)
    cfg = {}
    for dest, (typ, default, required, extra) in schema.items():
        flag = extra.get("flag", "--" + dest.replace("_", "-"))
        value = getattr(args, dest)
        if value is None and dest in file_values:
            value = _coerce(file_values[dest][2], typ, dest)
        given = value is not None
        if not given:
            value = default
        if typ == "list" and value is not None:
            value = [x.strip() for entry in value for x in entry.split(",") if x.strip()]
            # a given list that names nothing would run nothing, or
            # everything, and report success; an omitted one keeps its default
            if given and not value:
                raise UsageError(f"{command}: {flag} needs at least one entry")
            # a repeat would run or report the same thing twice
            repeated = [x for i, x in enumerate(value) if x in value[:i]]
            if repeated:
                raise UsageError(f"{command}: {flag} repeats {repeated[0]!r}")
        if value is None and required:
            raise UsageError(f"{command}: {flag} is required")
        choices = extra.get("choices")
        if choices and value is not None and value not in choices:
            raise UsageError(f"{command}: invalid value {value!r}; choose from {', '.join(choices)}")
        cfg[dest] = value
    return cfg


def _sha256_file(path):
    h = hashlib.sha256()
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, cfg, inputs, seed, outputs):
    """Write out_dir/manifest.json, the first output of a command that then
    writes the files named in outputs there, and return their paths in
    that order; a name taken by a directory is a DataError before anything
    is written."""
    paths = [os.path.join(out_dir, name) for name in ("manifest.json", *outputs)]
    for path in paths:
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create --out {out_dir}: {exc.strerror}") from None
    manifest = {
        "command": list(sys.argv) if sys.argv else ["sevae"],
        "config": cfg,
        "config_digest": json_digest(cfg),
        "inputs": {p: _sha256_file(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(paths[0], manifest, indent=2, sort_keys=True)
    return paths[1:]


def _write_json(path, obj, **dump_options):
    """One JSON document plus a newline, replacing path atomically."""
    atomic_write(path, json.dumps(obj, **dump_options) + "\n")


def _split_pairs(entries, what):
    pairs = {}
    for entry in entries:
        if "=" not in entry:
            raise DataError(f"{what} expects key=value, got {entry!r}")
        key, _, value = entry.partition("=")
        key = key.strip()
        if key in pairs:
            raise DataError(f"{what} sets {key!r} twice")
        pairs[key] = value.strip()
    return pairs


def _int_list(values, what):
    """The integers of a list flag, seeds or ks; numpy takes no negative seed."""
    try:
        ints = [int(v) for v in values]
    except ValueError:
        raise DataError(f"{what} expects integers, got {values!r}") from None
    if min(ints, default=0) < 0:
        raise DataError(f"{what} must be >= 0, got {min(ints)}")
    repeated = [n for i, n in enumerate(ints) if n in ints[:i]]
    if repeated:
        raise DataError(f"{what} repeats {repeated[0]}")
    return ints


def _check_spec(spec, clauses, train):
    """A training command's up-front checks of a spec: clauses within max_len,
    and the size at the largest vocabulary the clauses train can give."""
    check_max_len(clauses, spec.options.get("max_len"))
    check_size(spec, len({tok for cl in train for tok in cl.tokens}) + len(Vocab.SPECIALS))


def _train_config(model_name, cfg):
    """The TrainConfig of a command's _TRAIN_FLAGS (sweep has no --seed)."""
    overrides = {"logical_batch" if k == "batch" else k: cfg[k]
                 for k in _TRAIN_FLAGS if cfg.get(k) is not None}
    return harness.default_train_config(model_name, **overrides)


def _load_split(cfg):
    train = load_corpus(cfg["train"])
    if not train:
        raise DataError(f"empty training split: {cfg['train']} holds no clauses")
    validation = _load_clauses(cfg["val"], "validate on") if cfg.get("val") else []
    test = _load_clauses(cfg["test"], "evaluate on") if cfg.get("test") else []
    split = Split(train, validation, test, "file-given")
    if cfg.get("k") is not None:
        split = subsample_per_label(train, cfg["k"], cfg["seed"], validation, test)
    return split


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_convert(cfg):
    name = cfg["name"]
    # a plain file name, so the corpus lands in --out beside, not over, the manifest
    if name in ("", ".", "..", "manifest.json") or os.path.basename(name) != name:
        raise UsageError(f"convert: --name must be a plain file name other than "
                         f"manifest.json, got {name!r}")
    schema = _split_pairs(cfg["map"], "--map")
    clauses = load_corpus(cfg["infile"], schema)
    (out_path,) = _write_manifest(cfg["out"], cfg, [cfg["infile"]], seed=None, outputs=[name])
    write_jsonl(clauses, out_path)
    print(f"wrote {len(clauses)} clauses to {out_path}")
    return 0


def _cmd_stats(cfg):
    combined = []
    for path in cfg["infiles"]:
        clauses = load_corpus(path)
        combined.extend(clauses)
        print(f"file {path} clauses {len(clauses)}")
    labels = label_counts(combined)
    for lab in SEType:
        print(f"label {lab.name} {labels[lab]}")
    for genre, n in sorted(genre_counts(combined).items()):
        print(f"genre {genre} {n}")
    return 0


def _cmd_synth(cfg):
    # the corpora are small: build all three, so a bad value fails before
    # any output
    _int_list([cfg["seed"]], "--seed")
    corpora = []
    for name, key, seed in (("train", "n_per_label", cfg["seed"]),
                            ("val", "val_per_label", cfg["seed"] + 1),
                            ("test", "test_per_label", cfg["seed"] + 2)):
        try:
            clauses = make_synthetic_corpus(cfg[key], seed, cfg["noise"], cfg["genre_salience"])
        except DataError as exc:
            raise DataError(f"{name} set: {exc}") from None
        corpora.append((name, clauses))
    paths = _write_manifest(cfg["out"], cfg, [], seed=cfg["seed"],
                            outputs=[f"{name}.jsonl" for name, _ in corpora])
    for (_name, clauses), path in zip(corpora, paths):
        write_jsonl(clauses, path)
        print(f"wrote {len(clauses)} clauses to {path}")
    return 0


def _cmd_train(cfg):
    train_cfg = _train_config(cfg["model"], cfg)  # checks --seed before --k draws with it
    split = _load_split(cfg)
    spec = default_spec(cfg["model"], **_split_pairs(cfg["opt"], "--opt"))
    _check_spec(spec, split.train + split.validation + split.test, split.train)
    inputs = [p for p in (cfg["train"], cfg["val"], cfg["test"]) if p]
    manifest_cfg = dict(cfg, spec=spec.to_json(), train_config=train_cfg.to_json())
    outputs = ["split.json", "train_log.jsonl", "model.ckpt"] + (["eval_test.json"] if split.test else [])
    split_path, log_path, ckpt_path, *test_path = _write_manifest(
        cfg["out"], manifest_cfg, inputs, seed=train_cfg.seed, outputs=outputs)
    _write_json(split_path, split_manifest(split))
    # the log is streamed, one flushed line per epoch, so a long run shows
    # its progress and keeps its finished epochs if it dies; an atomic
    # write would show nothing until training ends
    with open(log_path, "w", encoding="utf-8") as fh:
        result = harness.train(
            spec, split, train_cfg,
            log_hook=lambda rec: (fh.write(json.dumps(rec) + "\n"), fh.flush()),
        )
    harness.save_checkpoint(result, ckpt_path, meta={
        "split_provenance": split.provenance,
        "split_digest": json_digest(split_manifest(split)),
        "manifest": "manifest.json",
    })
    print(f"trained {cfg['model']} for {len(result.log)} epochs; checkpoint at {ckpt_path}")
    if split.test:
        meta = dict(result.meta, manifest="manifest.json")
        report = harness.evaluate(result.model, split.test, result.vocab, meta)
        _write_json(test_path[0], report.to_json(), indent=2)
        print(f"test accuracy {report.accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    return 0


def _load_clauses(path, purpose):
    """The clauses of a corpus file to validate, evaluate or tag on; one
    that holds none is a DataError before any output."""
    clauses = load_corpus(path)
    if not clauses:
        raise DataError(f"cannot {purpose} zero clauses: {path} holds none")
    return clauses


def _cmd_eval(cfg):
    model, vocab, meta = harness.load_checkpoint(cfg["ckpt"])
    clauses = _load_clauses(cfg["data"], "evaluate on")
    if isinstance(model, vae.VAEModel):
        check_max_len(clauses, model.enc_cfg.max_len)
    (out_path,) = _write_manifest(cfg["out"], cfg, [cfg["ckpt"], cfg["data"]], seed=meta.get("seed"),
                                  outputs=["eval.json"])
    report = harness.evaluate(model, clauses, vocab, dict(meta, manifest="manifest.json"))
    _write_json(out_path, report.to_json(), indent=2)
    print(f"accuracy {report.accuracy:.4f} macro_f1 {report.macro_f1:.4f}")
    return 0


def _fit_and_score(spec_json, split, cfg_json):
    """Train on split.train, evaluate on split.test: (accuracy, macro_f1)."""
    result = harness.train(ModelSpec.from_json(spec_json), split, harness.TrainConfig(**cfg_json))
    report = harness.evaluate(result.model, split.test, result.vocab)
    return report.accuracy, report.macro_f1


def _sweep_cell(job):
    spec_json, k, seed, paths, cfg_json = job
    split = _load_split(dict(paths, k=k, seed=seed))
    return (spec_json["name"], k, seed, *_fit_and_score(spec_json, split, cfg_json))


def _crossgenre_cell(job):
    spec_json, target, path, cfg_json = job
    split = cross_genre_split(load_corpus(path), target)
    return (spec_json["name"], target, *_fit_and_score(spec_json, split, cfg_json))


def _run_jobs(worker, jobs, n_jobs):
    """worker over jobs in order, in at most n_jobs processes (never more
    than there are jobs)."""
    processes = min(n_jobs, len(jobs))
    if processes > 1:
        with multiprocessing.Pool(processes) as pool:
            return pool.map(worker, jobs)
    return [worker(job) for job in jobs]


def _check_jobs(cfg):
    if cfg["jobs"] < 1:
        raise UsageError(f"--jobs must be >= 1, got {cfg['jobs']}")


def _cmd_sweep(cfg):
    _check_jobs(cfg)
    model_names = cfg["models"]
    opts = _split_pairs(cfg["opt"], "--opt")
    specs = [default_spec(name, **opts) for name in model_names]
    ks = _int_list(cfg["ks"], "--ks")
    seeds = _int_list(cfg["seeds"], "--seeds")
    split = _load_split(cfg)
    smallest = min(label_counts(split.train).values())
    for k in ks:
        if not 1 <= k <= smallest:
            raise DataError(f"--ks: k={k} is outside 1..{smallest}; the rarest label has "
                            f"{smallest} clauses in {cfg['train']}")
    paths = {"train": cfg["train"], "val": cfg["val"], "test": cfg["test"]}
    jobs = []
    for spec in specs:
        _check_spec(spec, split.train + split.validation + split.test, split.train)
        spec_json = spec.to_json()
        base = _train_config(spec.name, cfg)
        for k in ks:
            for seed in seeds:
                jobs.append((spec_json, k, seed, paths, replace(base, seed=seed).to_json()))
    inputs = [p for p in paths.values() if p]
    rows_path, aggregates_path, meta_path = _write_manifest(
        cfg["out"], dict(cfg, models=model_names, ks=ks, seeds=seeds), inputs, seed=seeds,
        outputs=["sweep.tsv", "sweep_aggregates.tsv", "sweep_meta.json"])
    rows = _run_jobs(_sweep_cell, jobs, cfg["jobs"])
    aggregates = harness.aggregate_sweep(rows)
    write_tsv(rows_path, ["model", "k", "seed", "accuracy", "macro_f1"], rows)
    write_tsv(aggregates_path,
              ["model", "k", "mean_accuracy", "std_accuracy", "mean_macro_f1", "std_macro_f1"],
              aggregates)
    sidecar = {"manifest": "manifest.json",
               "rows": [list(r) for r in rows],
               "aggregates": [list(a) for a in aggregates]}
    _write_json(meta_path, sidecar, indent=2)
    for name, k, mean_acc, _sa, mean_f1, _sf in aggregates:
        print(f"{name} k={k} mean_accuracy={mean_acc:.4f} mean_macro_f1={mean_f1:.4f}")
    return 0


def _cmd_crossgenre(cfg):
    _check_jobs(cfg)
    corpus = load_corpus(cfg["data"])
    present = sorted({cl.genre for cl in corpus})
    if len(present) < 2:
        raise DataError("cross-genre evaluation needs at least 2 genres")
    targets = cfg["genres"] or present
    for target in targets:
        if target not in present:
            raise DataError(f"--genres: {target!r} not in {cfg['data']}; "
                            f"present genres: {', '.join(present)}")
    spec = default_spec(cfg["model"], **_split_pairs(cfg["opt"], "--opt"))
    # every held-out genre's training clauses come from corpus
    _check_spec(spec, corpus, corpus)
    train_cfg = _train_config(cfg["model"], cfg)
    rows_path, meta_path = _write_manifest(
        cfg["out"], dict(cfg, targets=targets, spec=spec.to_json()), [cfg["data"]],
        seed=train_cfg.seed, outputs=["crossgenre.tsv", "crossgenre_meta.json"])
    jobs = [(spec.to_json(), t, cfg["data"], train_cfg.to_json()) for t in targets]
    rows = _run_jobs(_crossgenre_cell, jobs, cfg["jobs"])
    write_tsv(rows_path, ["model", "genre", "accuracy", "macro_f1"], rows)
    _write_json(meta_path,
                {"manifest": "manifest.json", "rows": [list(r) for r in rows]}, indent=2)
    for name, genre, acc, f1 in rows:
        print(f"{name} genre={genre} accuracy={acc:.4f} macro_f1={f1:.4f}")
    return 0


def _cmd_gradcheck(cfg):
    seeds = tuple(_int_list(cfg["seeds"], "--seeds"))
    if cfg["out"]:
        (out_path,) = _write_manifest(cfg["out"], cfg, [], seed=None, outputs=["gradcheck.json"])
    results = gradcheck.gradient_suite(seeds=seeds)
    width = max(len(n) for n in results)
    all_passed = True
    for name, r in results.items():
        status = "pass" if r["passed"] else "FAIL"
        all_passed &= r["passed"]
        print(f"{name:{width}s}  max_rel_err {r['max_rel_err']:.3e}  {status}  ({r['seconds']:.1f}s)")
    if cfg["out"]:
        _write_json(out_path, {"manifest": "manifest.json", "results": results}, indent=2)
    if not all_passed:
        raise NumericsError("gradient check failed; see table above")
    return 0


def _cmd_export_latents(cfg):
    model, vocab, meta = harness.load_checkpoint(cfg["ckpt"])
    if not isinstance(model, vae.VAEModel):
        raise DataError("checkpointed model has no latent space to export")
    clauses = _load_clauses(cfg["data"], "export latents of")
    check_max_len(clauses, model.enc_cfg.max_len)
    (out_path,) = _write_manifest(cfg["out"], cfg, [cfg["ckpt"], cfg["data"]], seed=meta.get("seed"),
                                  outputs=["latents.tsv"])
    rows = harness.export_latents(model, clauses, vocab)
    header = ["doc_id", "par_id", "clause_idx", "label", "genre"]
    write_tsv(out_path, header + [f"mu_{i}" for i in range(model.latent_dim)],
              [(*cells, *mu.tolist()) for *cells, mu in rows])
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


_COMMANDS = {
    "convert": _cmd_convert,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "crossgenre": _cmd_crossgenre,
    "gradcheck": _cmd_gradcheck,
    "export-latents": _cmd_export_latents,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            print("sevae: a subcommand is required", file=sys.stderr)
            return 1
        return _COMMANDS[args.command](_effective(args, args.command))
    except UsageError as exc:
        print(f"sevae: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError) as exc:
        print(f"sevae: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, GraphError) as exc:
        print(f"sevae: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
