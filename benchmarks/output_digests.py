"""Print a digest of every file the sevae commands write, to check that two
commits produce the same outputs.

In an empty working directory it runs, in process and in this order:
`sevae synth` (20 clauses per label); `convert` of the synth test file;
`train` of each of the seven models on the synth files with --max-epochs
2; `eval` of each checkpoint on the test file; `export-latents` of each
vae checkpoint on the test file; a `sweep` of disc and gen at k 2,3 and
seeds 1,2; a leave-one-genre-out `crossgenre` of disc; and `gradcheck
--seeds 0`. Every command takes paths relative to that directory, so the
configs it records do not depend on where the directory is.

It prints one line per output file, in path order: the file's sha256,
then its path. manifest.json holds the command line and a timestamp, so
its line carries the manifest's config_digest instead. gradcheck.json
holds timings, so its lines carry each objective's max_rel_err (repr)
instead. Run it on each commit and diff the two outputs:

    python3 benchmarks/output_digests.py > new.txt
    python3 benchmarks/output_digests.py --src ../parent/src > old.txt
    diff old.txt new.txt

Usage: python3 benchmarks/output_digests.py [--src DIR]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile


def _sevae(cli, *argv):
    """cli.main(argv) with its stdout swallowed; a non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"sevae {' '.join(argv)} exited {code}")


def run_commands(cli, n_per_label, max_epochs, models):
    """Run every command in the current directory, which must be empty."""
    epochs = ("--max-epochs", str(max_epochs))
    _sevae(cli, "synth", "--out", "synth", "--n-per-label", str(n_per_label), "--seed", "0")
    _sevae(cli, "convert", "--in", "synth/test.jsonl", "--out", "convert")
    data = ("--train", "synth/train.jsonl", "--val", "synth/val.jsonl")
    for name in models:
        _sevae(cli, "train", "--model", name, *data, "--test", "synth/test.jsonl",
               "--out", f"train-{name}", "--seed", "0", *epochs)
        ckpt = ("--ckpt", f"train-{name}/model.ckpt", "--data", "synth/test.jsonl")
        _sevae(cli, "eval", *ckpt, "--out", f"eval-{name}")
        if name.startswith("vae"):
            _sevae(cli, "export-latents", *ckpt, "--out", f"latents-{name}")
    _sevae(cli, "sweep", "--models", "disc,gen", "--ks", "2,3", "--seeds", "1,2", *data,
           "--test", "synth/test.jsonl", "--out", "sweep", *epochs)
    _sevae(cli, "crossgenre", "--model", "disc", "--data", "synth/train.jsonl",
           "--out", "crossgenre", *epochs)
    _sevae(cli, "gradcheck", "--seeds", "0", "--out", "gradcheck")


def digest_lines(root):
    """One line per file under root, in path order (see the module docstring)."""
    lines = []
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, root)
            if name == "manifest.json":
                with open(path, encoding="utf-8") as fh:
                    lines.append(f"config_digest {json.load(fh)['config_digest']}  {rel}")
            elif name == "gradcheck.json":
                with open(path, encoding="utf-8") as fh:
                    results = json.load(fh)["results"]
                lines += [f"max_rel_err {objective} {r['max_rel_err']!r}  {rel}"
                          for objective, r in results.items()]
            else:
                with open(path, "rb") as fh:
                    lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}")
    return lines


def output_digests(cli, work, n_per_label=20, max_epochs=2, models=None):
    """Run the commands in the empty directory work, training models (all
    of cli.MODEL_NAMES by default); returns the digest lines."""
    here = os.getcwd()
    os.chdir(work)
    try:
        run_commands(cli, n_per_label, max_epochs, models or cli.MODEL_NAMES)
    finally:
        os.chdir(here)
    return digest_lines(work)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"), help="directory holding the sevae package to run")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from sevae import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sevae imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        lines = output_digests(cli, tmp)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
