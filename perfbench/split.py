"""Per-layer split of each workload's traced time.

    python3 perfbench/split.py [--seed N] [--seconds S] [--write]

Runs ``run.py --trace 1`` on every workload and prints, per workload,
each layer's self time as a share of all traced span time (for the
single-process workloads that is the traced wall time; on
scan-mp-checkpoint it adds the parent's and the workers' time).
``--write`` stores the result as ``baseline_split`` in
``perfbench/interactions.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INTERACTIONS = os.path.join(HERE, "interactions.json")

#: Time metrics that are not span self times.
NOT_SELF_TIMES = ("framework.parent_cpu_s", "framework.worker_cpu_s", "py.gc_s")


def split(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    metrics = {name: m["value"] for name, m in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    self_times = [name for name in metrics if name.endswith("_s") and name not in NOT_SELF_TIMES]
    total = sum(metrics[name] for name in self_times)
    return {
        "seed": seed,
        "traced_span_s": round(total, 4),
        "trace_overhead_frac": round(metrics["trace.overhead_frac"], 3),
        "gc_share": round(metrics["py.gc_s"] / total, 3),
        "shares": {name: round(metrics[name] / total, 3) for name in self_times if metrics[name]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    result = {name: split(name, args.seed, args.seconds) for name in workloads.WORKLOADS}
    print(json.dumps(result, indent=2))
    if args.write:
        with open(INTERACTIONS) as handle:
            document = json.load(handle)
        document["baseline_split"] = result
        with open(INTERACTIONS, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
