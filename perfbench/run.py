"""pyzdns benchmark: wall-clock lookups/s per workload, with a traced
per-layer split.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are listed in
``BENCHMARK.json``.  The run repeats rounds of the workload, each in a
fresh process (``perfbench/round.py``), until ``--seconds`` of wall time
have passed, and checks that every round of one seed produced the same
virtual-time fingerprint and row digest.

Most workloads run one universe (one simulated Internet per seed);
service-soak cycles through several universes derived from the seed.
Every metric is the median over universes of each universe's median
round.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
pairs each traced round with an untraced one and reports the per-layer
metrics of the traced rounds plus ``trace.overhead_frac``, traced over
untraced wall time, minus one.  Host context (``nproc``, load average,
a spin-loop rate) is printed with every run; it is never used to
normalise a metric.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Rounds of each kind a run needs at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Stop starting rounds after this long, so a run ends within 180 s.
MAX_RUN_S = 100.0
ROUND_TIMEOUT_S = 50.0
#: The spans of a traced round must account for its wall time to within
#: this share; the rest is tracer overhead outside any span.
UNATTRIBUTED_TOLERANCE = 0.02

E2E_METRICS = {
    "lookups_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


class RunFailed(RuntimeError):
    """A round crashed, or the rounds disagree about the output."""


def spin_rate(iterations: int = 50_000) -> float:
    """Iterations/s of a fixed allocation-heavy loop: a rough reading of
    how much CPU the host gave this process just now."""
    start = time.perf_counter()
    x = 0
    bucket: dict = {}
    for i in range(iterations):
        x += i ^ (x >> 3)
        bucket[i & 255] = (x, i)
    return iterations / (time.perf_counter() - start)


def host_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "spin_per_s": round(statistics.median(spin_rate() for _ in range(3))),
    }


def run_round(workload: str, seed: int, universe: int, trace: int, scratch: str) -> dict:
    directory = os.path.join(scratch, f"round-{len(os.listdir(scratch))}")
    os.makedirs(directory)
    command = [
        sys.executable,
        os.path.join(HERE, "round.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--universe", str(universe),
        "--trace", str(trace),
        "--scratch", directory,
        "--t0",
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + [repr(t0)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise RunFailed(f"round timed out after {ROUND_TIMEOUT_S} s") from error
    if proc.returncode != 0:
        raise RunFailed(f"round exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["universe"] = universe
    result["traced"] = bool(trace)
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: int, scratch: str) -> list[dict]:
    """Cycle through the workload's universes until ``seconds`` passed.

    An untraced run repeats every universe at least twice, so each one
    is checked against a second run of itself; a traced run pairs every
    traced round with an untraced one of the same universe."""
    import workloads

    if workload not in workloads.WORKLOADS:
        raise RunFailed(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    universes = workloads.WORKLOADS[workload]
    kinds = (0, 1) if trace else (0,)
    repeats = 1 if trace else 2
    rounds: list[dict] = []
    started = time.monotonic()
    cycles = 0
    while True:
        for universe in range(universes):
            for kind in kinds:
                rounds.append(run_round(workload, seed, universe, kind, scratch))
        cycles += 1
        elapsed = time.monotonic() - started
        enough = cycles >= repeats and cycles * universes >= MIN_ROUNDS
        if enough and (elapsed >= seconds or elapsed >= MAX_RUN_S):
            return rounds


def by_universe(rounds: list[dict], traced: bool) -> list[list[dict]]:
    groups: dict[int, list[dict]] = {}
    for result in rounds:
        if result["traced"] == traced:
            groups.setdefault(result["universe"], []).append(result)
    return [groups[universe] for universe in sorted(groups)]


def check_rounds(rounds: list[dict]) -> None:
    references: dict[int, dict] = {}
    for index, result in enumerate(rounds):
        reference = references.setdefault(result["universe"], result)
        if result["fingerprint"] != reference["fingerprint"]:
            raise RunFailed(
                f"round {index} (universe {result['universe']}, traced {result['traced']})"
                f" differs from an earlier round (traced {reference['traced']}):\n"
                f"  {json.dumps(result['fingerprint'], sort_keys=True)}\n"
                f"  {json.dumps(reference['fingerprint'], sort_keys=True)}"
            )
        layers = result["layers"]
        if layers is not None and abs(layers["trace.unattributed_frac"]) > UNATTRIBUTED_TOLERANCE:
            raise RunFailed(
                f"round {index}: spans cover only"
                f" {1 - layers['trace.unattributed_frac']:.3f} of the traced wall time"
            )


def _per_universe(groups: list[list[dict]], value) -> float:
    """Median over universes of each universe's median round."""
    return statistics.median(statistics.median(value(r) for r in group) for group in groups)


def e2e_metrics(rounds: list[dict]) -> dict:
    # The median over universes, not the sum: on service-soak one
    # universe in several has a Zipf-popular name in a misbehaving zone
    # and needs twice the wall time of the others.
    groups = by_universe(rounds, traced=False)
    plain = [r for group in groups for r in group]
    return {
        "lookups_per_s": _per_universe(groups, lambda r: r["completed"] / r["wall_s"]),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "success_rate": _per_universe(groups, lambda r: (r["attempted"] - r["unsuccessful"]) / r["attempted"]),
    }


def layer_metrics(rounds: list[dict]) -> dict:
    traced = by_universe(rounds, traced=True)
    metrics = {
        name: _per_universe(traced, lambda r: r["layers"][name]) for name in traced[0][0]["layers"]
    }
    plain_wall = {
        group[0]["universe"]: statistics.median(r["wall_s"] for r in group)
        for group in by_universe(rounds, traced=False)
    }
    overhead = _per_universe(traced, lambda r: r["wall_s"] / plain_wall[r["universe"]])
    metrics["trace.overhead_frac"] = overhead - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    scratch = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        host_before = host_context()
        try:
            rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace, scratch)
            check_rounds(rounds)
        except RunFailed as error:
            print(f"perfbench: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
            return 1
        host_after = host_context()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = layer_metrics(rounds)
        units = {name: layer_unit(name) for name in values}
    else:
        values = e2e_metrics(rounds)
        units = E2E_METRICS
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": len(rounds),
                "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
                "host_before": host_before,
                "host_after": host_after,
                "fingerprints": [group[0]["fingerprint"] for group in by_universe(rounds, traced=False)],
            },
            sort_keys=True,
        )
    )
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
