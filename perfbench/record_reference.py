"""Record perfbench/reference.json from the code in ./src.

Usage (from the repository root): python3 perfbench/record_reference.py

For every workload, on the default seed, this stores the per-epoch
losses and the per-document predictions that run.py checks later (losses
within run.LOSS_RTOL relative, predictions exactly), and the exact
counts of the traced run (tape nodes per clause, trainable floats per
Adam step, LSTM flops and bytes, checkpoint bytes, call counts), so that
later count-based claims have a baseline. Re-record only for a change
that is meant to alter the numerics, and say so in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from work import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "nodes/clause", "floats/step", "GFLOP", "GB", "tokens", "bytes", "ratio")


def main():
    out = {"seed": run.DEFAULT_SEED, "loss_rtol": run.LOSS_RTOL,
           "commit": run.git_commit(), "workloads": {}}
    for workload in sorted(WORKLOADS):
        result, _setups = run.collect(workload, run.DEFAULT_SEED, 2.0, trace=1)
        if result["failed"]:
            raise SystemExit(f"{workload}: failed operations: {result['errors']}")
        # cli.sweep.parallel_eff is a ratio of times, not a count
        counts = {k: v for k, v in result["per_layer"].items()
                  if v and run.per_layer_unit(k) in COUNT_UNITS and not k.endswith("_eff")}
        out["workloads"][workload] = {"losses": result["losses"], "preds": result["preds"],
                                      "counts": counts}
        print(f"recorded {workload}", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
