"""Record the reference outputs that check.py compares against.

    python3 perfbench/record_reference.py

Runs every op of every workload at seed 0 and at seed 1 and writes
``reference/<workload>.json``: the seed-0 snapshot of each op's outputs
and the names of the files that changed with the seed.  Run it only when
a change to the program is meant to change its outputs, and say so.
"""

import json
import os
import sys

import run
from check import read_outputs, snapshot


def record(workload, env):
    references = {}
    for name, config_path in run.materialize(workload):
        snapshots = []
        for seed in (0, 1):
            out_dir = os.path.join(run.WORK, f"record-{name}-{seed}")
            result = run.spawn_op(out_dir, config_path, seed, False, env)
            if result["problems"]:
                sys.exit(f"{workload}/{name} seed {seed}: {result['problems']}")
            snapshots.append(snapshot(read_outputs(out_dir)))
            run.remove_op_files(out_dir)
        first, second = snapshots
        seeded = sorted(n for n in first if first[n] != second.get(n))
        references[name] = {"files": first, "seeded": seeded}
        print(f"{workload}/{name}: {len(first)} files, seeded {seeded}")
    return references


def main():
    env = run.child_env()
    os.makedirs(run.REFERENCE, exist_ok=True)
    for workload in run.WORKLOADS:
        references = record(workload, env)
        path = os.path.join(run.REFERENCE, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
