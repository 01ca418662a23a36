"""The benchmark's workloads: set-up, the timed work, and the checks.

Every workload is a closed loop: a scanner routine (or a daemon worker)
sends its next query only when its last one finished.  Everything a
workload runs on is derived from one integer seed: the name corpus, the
``EcosystemParams`` seed of the simulated universe and the network RNG
seed.  The "threads" of a scan are simulated routines in one process.

:func:`prepare` does the set-up and returns the work object: its
``run()`` is the timed part, and its ``outcome(report)`` checks what the
run produced and returns an :class:`Outcome` whose ``fingerprint`` must
be identical for every run of one seed and universe.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field

from repro.core import Status
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import ScanConfig, ScanRunner
from repro.framework import io as framework_io
from repro.framework import parallel
from repro.net import derive_seed
from repro.service import ResolverService, ServiceConfig
from repro.workloads import CorpusConfig, DomainCorpus

#: Names per scan round.  Large enough that the 2000 routines spend most
#: of the round at full concurrency, small enough for several rounds per
#: run (the run reports the median round).
SCAN_NAMES = 3000
SCAN_ROUTINES = 2000
#: A run of the service workload soaks ``SERVICE_UNIVERSES`` universes
#: derived from its seed, one per round, and reports the median
#: universe: how much upstream work a soak needs depends on which
#: Zipf-popular names sit in misbehaving zones, so a single universe
#: makes throughput swing from seed to seed.  Together: 6 virtual hours
#: and 24 zone deltas.
SERVICE_UNIVERSES = 8
SERVICE_HOURS = 0.75
SERVICE_DELTAS = 3
MP_NAMES = 4000
MP_PROCESSES = 2
MP_STEAL_QUANTUM = 250

#: The lookup statuses of the output vocabulary.  ``ERROR`` (an
#: exception inside the resolver) counts as a failed operation.
SCAN_STATUSES = {status.value for status in Status}


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Lookups the work attempted (scan names, or service client queries).
    attempted: int
    #: Lookups that completed (every scan lookup; served client queries).
    completed: int
    #: Lookups that ended in a non-success DNS outcome (timeouts etc.).
    unsuccessful: int
    #: Lookups that raised inside the program (status ``ERROR``).
    failed: int
    #: Upstream queries sent on behalf of the lookups.
    queries: int
    #: Virtual-time fingerprint plus the sha256 of the emitted rows.
    fingerprint: dict
    #: Simulators, networks and caches the work ran on, for the trace.
    internets: list = field(default_factory=list)
    caches: list = field(default_factory=list)
    service_counters: list = field(default_factory=list)
    steals: int = 0


class CheckFailed(RuntimeError):
    """The program's output broke an invariant the benchmark checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _scan_fingerprint(stats, rows_digest: str) -> dict:
    return {
        "total": stats.total,
        "successes": stats.successes,
        "statuses": dict(sorted(stats.by_status.items())),
        "queries_sent": stats.queries_sent,
        "duration_virtual_s": round(stats.duration, 6),
        "rows_sha256": rows_digest,
    }


def _check_scan(stats, rows: int, names: int) -> None:
    check(stats.total == names, f"{stats.total} lookups for {names} names")
    check(rows == names, f"{rows} rows for {names} names")
    unknown = set(stats.by_status) - SCAN_STATUSES
    check(not unknown, f"unexpected statuses {sorted(unknown)}")
    check(stats.successes >= 0.8 * names, f"only {stats.successes}/{names} lookups succeeded")
    check(stats.queries_sent >= names, f"{stats.queries_sent} queries for {names} lookups")


def _scan_outcome(stats, fingerprint: dict, **extra) -> Outcome:
    return Outcome(
        attempted=stats.total,
        completed=stats.total,
        unsuccessful=stats.total - stats.successes,
        failed=stats.by_status.get("ERROR", 0),
        queries=stats.queries_sent,
        fingerprint=fingerprint,
        **extra,
    )


def corpus_names(seed: int, count: int) -> list[str]:
    return list(DomainCorpus(CorpusConfig(seed=seed)).fqdns(count))


class ScanWork:
    """An iterative ``A`` scan through ``ScanRunner`` into an in-memory sink."""

    def __init__(self, seed: int, wire_mode: str, dnssec: bool):
        self.names = corpus_names(seed, SCAN_NAMES)
        self.wire = wire_mode != "never"
        self.dnssec = dnssec
        self.internet = build_internet(
            params=EcosystemParams(seed=seed),
            wire_mode=wire_mode,
            net_seed=derive_seed(seed, "net"),
        )
        self.lines: list[str] = []
        config = ScanConfig(
            module="A",
            mode="iterative",
            threads=SCAN_ROUTINES,
            source_prefix=28,
            seed=seed,
            dnssec=dnssec,
        )
        self.runner = ScanRunner(self.internet, config, sink=self._sink)

    def _sink(self, row: dict) -> None:
        # looked up per row so a traced run sees the wrapped encoder
        self.lines.append(framework_io.encode_row(row))

    def run(self):
        return self.runner.run(self.names)

    def outcome(self, report) -> Outcome:
        stats = report.stats
        _check_scan(stats, len(self.lines), len(self.names))
        if self.dnssec:
            states = report.dnssec_stats or {}
            check(sum(states.values()) == stats.total, f"dnssec states {states} do not cover the scan")
            check(states.get("secure", 0) > 0, f"no secure lookup in {states}")
        digest = hashlib.sha256("".join(self.lines).encode()).hexdigest()
        return _scan_outcome(
            stats,
            _scan_fingerprint(stats, digest),
            internets=[self.internet],
            caches=[self.runner.cache],
        )

    def check_layers(self, layers: dict) -> None:
        codec_calls = layers["dnslib.encode_calls"] + layers["dnslib.decode_calls"]
        if self.wire:
            check(codec_calls > 0, "a wire-mode scan made no codec call")
        else:
            check(codec_calls == 0, f"a scan without wire mode made {codec_calls} codec calls")
        if self.dnssec:
            check(layers["core.dnssec.verify_calls"] > 0, "a DNSSEC scan verified no signature")
            check(layers["ecosystem.sign_calls"] > 0, "a DNSSEC scan signed no RRset")
        else:
            check(layers["core.dnssec.verify_calls"] == 0, "a scan without DNSSEC verified signatures")


class ServiceWork:
    """A virtual soak of ``ResolverService`` (defaults: 400-name Zipf
    catalog, prefetch, serve-stale, sampled wire) with zone deltas and
    incremental revalidation."""

    def __init__(self, seed: int, universe: int):
        self.service = ResolverService(
            ServiceConfig(
                seed=derive_seed(seed, "service", universe) % 2**31,
                duration=SERVICE_HOURS * 3600.0,
                deltas=SERVICE_DELTAS,
            )
        )

    def run(self):
        return self.service.run()

    def outcome(self, report) -> Outcome:
        counters = report.counters
        check(counters["queries"] > 0, "no client queries")
        check(
            counters["served"] + counters["failed"] == counters["queries"],
            f"served {counters['served']} + failed {counters['failed']} != queries {counters['queries']}",
        )
        check(
            counters["deltas_published"] == SERVICE_DELTAS,
            f"{counters['deltas_published']} of {SERVICE_DELTAS} zone deltas published",
        )
        queries = report.network["udp_queries"] + report.network["tcp_queries"]
        return Outcome(
            attempted=counters["queries"],
            completed=counters["served"],
            unsuccessful=counters["failed"],
            failed=0,
            queries=queries,
            fingerprint={
                "queries": counters["queries"],
                "served": counters["served"],
                "upstream_queries": queries,
                "virtual_s": round(report.virtual_elapsed, 6),
                "report_sha256": report.determinism_digest(),
            },
            internets=[self.service.internet],
            caches=[self.service.cache],
            service_counters=[counters],
        )

    def check_layers(self, layers: dict) -> None:
        check(layers["core.cache.reads"] > 0, "no cache read was traced")
        check(layers["service.routine_s"] > 0, "no service routine step was traced")


class ParallelWork:
    """The wire scan through ``run_parallel_scan``: forked workers,
    work stealing and a checkpoint journal in a scratch directory."""

    def __init__(self, seed: int, scratch: str, processes: int = MP_PROCESSES):
        self.names = corpus_names(seed, MP_NAMES)
        self.config = ScanConfig(
            module="A",
            mode="iterative",
            threads=SCAN_ROUTINES,
            source_prefix=28,
            seed=seed,
        )
        self.processes = processes
        self.checkpoint_dir = tempfile.mkdtemp(prefix="checkpoint-", dir=scratch)
        self.out = _MemoryOut()

    def run(self):
        return parallel.run_parallel_scan(
            self.names,
            self.config,
            processes=self.processes,
            out=self.out,
            wire_mode="always",
            add_timestamp=False,
            steal_quantum=MP_STEAL_QUANTUM,
            checkpoint_dir=self.checkpoint_dir,
        )

    def outcome(self, report) -> Outcome:
        out, checkpoint_dir = self.out, self.checkpoint_dir
        stats = report.stats
        _check_scan(stats, report.rows_written, len(self.names))
        check(out.lines == report.rows_written, f"{out.lines} rows merged, {report.rows_written} reported")
        check(
            os.path.exists(os.path.join(checkpoint_dir, "state.json")),
            "the checkpoint journal left no state.json",
        )
        return _scan_outcome(
            stats,
            _scan_fingerprint(stats, out.digest.hexdigest()),
            steals=report.steals,
        )

    def check_layers(self, layers: dict) -> None:
        check(layers["framework.checkpoint_writes"] > 0, "no checkpoint journal write was traced")
        check(layers["framework.worker_cpu_s"] > 0, "no worker process CPU time was recorded")
        check(layers["framework.rows"] == len(self.names), f"{layers['framework.rows']} rows encoded")


class _MemoryOut:
    """A text sink that keeps only a digest and a line count."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> None:
        self.digest.update(text.encode())
        self.lines += text.count("\n")

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)


#: Workload name -> universes a run cycles through (one per round).
WORKLOADS = {
    "scan-wire": 1,
    "scan-dnssec-nowire": 1,
    "service-soak": SERVICE_UNIVERSES,
    "scan-mp-checkpoint": 1,
}


def prepare(name: str, seed: int, universe: int, scratch: str):
    """Set-up for one round of workload ``name``; returns the work."""
    if name == "scan-wire":
        return ScanWork(seed, wire_mode="always", dnssec=False)
    if name == "scan-dnssec-nowire":
        return ScanWork(seed, wire_mode="never", dnssec=True)
    if name == "service-soak":
        return ServiceWork(seed, universe)
    if name == "scan-mp-checkpoint":
        return ParallelWork(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

