"""Record the model's simulated outputs per workload and seed into
bench/expected.json, which run.py checks them against.

    python3 bench/record_expected.py --seeds 0-15 [--workloads sweep,...]

Rerun it only in a change that alters the model's output on purpose, and
say so in that change. One untraced pass per workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os

import run
import workloads


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    table = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cases = workloads.generate(workloads.specs(workload, seed))
            gate = run.Gate()
            one_pass = run.color_pass(cases, gate, None, run.speed.Probe())
            outputs = run.model_outputs(one_pass.outcomes)
            if gate.problems:
                raise SystemExit(f"{workload} seed {seed}: {gate.problems}")
            table.setdefault(workload, {})[str(seed)] = outputs
            print(workload, seed, json.dumps(outputs, sort_keys=True), flush=True)
    # Replace the file in one step, so a benchmark run never reads half of it.
    tmp = run.EXPECTED.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, run.EXPECTED)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
