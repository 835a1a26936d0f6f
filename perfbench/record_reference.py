#!/usr/bin/env python3
"""Record perfbench/reference.json, the exact per-round outcomes the
benchmark's correctness gate compares against.

    python3 perfbench/record_reference.py

For every workload and each of its INPUT_SETS benchmark seeds, it runs each
experiment a run of BENCHMARK.json's run_seconds would make, untimed and
untraced, and stores per round: params, units added per layer, sub-rounds,
bytes up and down (from the ledgers), and the global, personalization and
generalization scores.  Record it on the commit whose outputs are correct;
a change that alters any of these values fails the gate.
"""

import argparse
import json
import os
import sys

import run  # pins BLAS threads before numpy is imported
from workloads import INPUT_SETS, WORKLOADS, config_seed


def dump(reference: dict) -> str:
    """JSON with one line per experiment, so a re-recording diffs by seed."""
    blocks = []
    for name in sorted(reference):
        table = reference[name]
        rows = ",\n".join(f"  {json.dumps(cs)}: {json.dumps(table[cs], separators=(',', ':'))}"
                          for cs in sorted(table, key=int))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="limit to these workloads (default all)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.ROOT / "src"))
    from fedsim.config import parse_config
    from fedsim.scheduler import run_experiment

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out_dir = run.OUT / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        table = {}
        for seed in range(INPUT_SETS):
            for i in range(workload.experiments(seconds)):
                cs = config_seed(seed, i)
                cfg = parse_config(run.write_config(workload.render(cs), out_dir))
                records = run.round_records(run_experiment(cfg))
                table[str(cs)] = [[rec[f] for f in run.FIELDS] for rec in records]
                print(f"{name} config seed {cs}: {len(records)} rounds", flush=True)
            # Re-read before writing, so recorders of other workloads can run
            # at the same time.
            reference = (json.loads(run.REFERENCE.read_text())
                         if run.REFERENCE.exists() else {})
            reference[name] = table
            partial = run.REFERENCE.with_suffix(f".{name}.tmp")
            partial.write_text(dump(reference))
            os.replace(partial, run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
