"""One benchmark round, in a fresh process.

    python3 perfbench/round.py --workload W --seed N --universe K \\
        --trace 0|1 --t0 MONOTONIC --scratch DIR

A fresh process per round keeps process-global state (codec memos,
response memos, ``ru_maxrss``) of one round out of the next.  The round
sets up the workload, runs it once and prints one JSON line: set-up and
work wall time, the lookup counts, the correctness fingerprint, peak
RSS and, with ``--trace 1``, the per-layer split.  ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process, so
set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracer

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder, outcome, wall: float, cpu: dict, workers: list[dict]) -> dict:
    """The per-layer metrics of one traced round."""
    self_s, calls = recorder.layer_times()
    # the spans of this process must cover its traced wall time (worker
    # processes run in parallel with it and are added afterwards); a
    # routine from a module no layer claims counts as unattributed
    attributed = sum(value for name, value in self_s.items() if name != "other")
    unattributed = _frac(wall - attributed, wall)
    counts = dict(recorder.counts)
    state = tracer.state_counts(outcome.internets, outcome.caches)
    gc_s, gc_collections = recorder.gc_s, recorder.gc_collections
    for worker in workers:
        for key, value in worker["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in worker["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for table, extra in ((counts, worker["counts"]), (state, worker["state"])):
            for key, value in extra.items():
                table[key] = table.get(key, 0) + value
        gc_s += worker["gc_s"]
        gc_collections += worker["gc_collections"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    service = outcome.service_counters
    served_from_cache = sum(c["fresh_hits"] + c["negative_hits"] for c in service)
    cache_checked = sum(c["queries"] + c["warm_jobs"] for c in service)
    return {
        "net.sim.self_s": s("net.sim"),
        "net.sim.events": state["events"],
        "net.sim.timer_cancel_frac": _frac(state["timers_cancelled"], state["timers_scheduled"]),
        "net.sockets.self_s": s("net.sockets"),
        "net.sockets.queries": n("net.sockets"),
        "net.sockets.queries_per_lookup": _frac(outcome.queries, outcome.attempted),
        "net.sockets.truncated": state["truncated"],
        "net.sockets.lost": state["lost"],
        "dnslib.encode_s": s("dnslib.encode"),
        "dnslib.encode_calls": n("dnslib.encode"),
        "dnslib.decode_s": s("dnslib.decode"),
        "dnslib.decode_calls": n("dnslib.decode"),
        "dnslib.wire_bytes": counts.get("dnslib.wire_bytes", 0),
        "ecosystem.serve_s": s("ecosystem.serve"),
        "ecosystem.serve_calls": n("ecosystem.serve"),
        "ecosystem.memo_hit_frac": _frac(state["memo_hits"], state["memo_probes"]),
        "ecosystem.sign_s": s("ecosystem.sign"),
        "ecosystem.sign_calls": n("ecosystem.sign"),
        "core.machine.self_s": s("core.machine"),
        "core.machine.steps": n("core.machine"),
        "core.cache.read_s": s("core.cache.read"),
        "core.cache.reads": n("core.cache.read"),
        "core.cache.write_s": s("core.cache.write"),
        "core.cache.writes": n("core.cache.write"),
        "core.cache.hit_frac": _frac(state["cache_hits"], state["cache_probes"]),
        "core.dnssec.verify_s": s("core.dnssec.verify"),
        "core.dnssec.verify_calls": n("core.dnssec.verify"),
        "framework.runner_s": s("framework.runner"),
        "framework.parallel_s": s("framework.parallel"),
        "framework.rows_s": s("framework.rows"),
        "framework.rows": n("framework.rows"),
        "framework.out_bytes": counts.get("framework.out_bytes", 0),
        "framework.checkpoint_s": s("framework.checkpoint"),
        "framework.checkpoint_writes": n("framework.checkpoint"),
        "framework.parent_cpu_s": cpu["parent"],
        "framework.worker_cpu_s": cpu["workers"],
        "framework.steals": outcome.steals,
        "service.routine_s": s("service.routine"),
        "service.cache_served_frac": _frac(served_from_cache, cache_checked),
        "service.upstream_resolutions": sum(c["upstream_resolutions"] for c in service),
        "service.invalidated": state["invalidated"] if service else 0,
        "py.gc_s": gc_s,
        "py.gc_collections": gc_collections,
        "trace.unattributed_frac": unattributed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--universe", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SOURCE)
    import workloads

    work = workloads.prepare(args.workload, args.seed, args.universe, args.scratch)
    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        tracer.install(recorder)
        if isinstance(work, workloads.ParallelWork):
            tracer.trace_forked_workers(recorder, args.scratch)
        recorder.watch_gc()
    parent_cpu, workers_cpu = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    started = time.monotonic()
    report = work.run()
    wall = time.monotonic() - started
    cpu = {
        "parent": _cpu(resource.RUSAGE_SELF) - parent_cpu,
        "workers": _cpu(resource.RUSAGE_CHILDREN) - workers_cpu,
    }
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if recorder is not None:
        recorder.unwatch_gc()
    outcome = work.outcome(report)
    result = {
        "setup_s": started - args.t0,
        "wall_s": wall,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "unsuccessful": outcome.unsuccessful,
        "failed": outcome.failed,
        "queries": outcome.queries,
        "fingerprint": outcome.fingerprint,
        "peak_rss_mb": peak_kb / 1024.0,
        "layers": None,
    }
    if recorder is not None:
        workers = tracer.worker_dumps(args.scratch)
        result["layers"] = layer_metrics(recorder, outcome, wall, cpu, workers)
        work.check_layers(result["layers"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
