"""The event loop owns garbage collection while it runs.

``Simulator.run`` pauses Python's cyclic collector, which is only safe
because the loop makes no reference cycles.  These tests hold both
halves: every scan and service shape leaves zero cyclic garbage behind
its loop, and the collector comes back exactly as the caller left it on
every way out of ``run``, without starving across many short runs.
A backstop bounds the young heap of long runs.
"""

import gc
import io
import sys
import threading
import weakref

import pytest

from repro.dnslib.wire import WireReader, WireWriter
from repro.ecosystem import EcosystemParams, build_internet
from repro.faults import FaultInjector, plan_by_name
from repro.framework import ScanConfig, ScanRunner
from repro.framework import parallel
from repro.net import HangError, SimFuture, Simulator
from repro.net import sim as sim_module
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, run_service
from repro.workloads import CorpusConfig, DomainCorpus

from .rdata_samples import SAMPLES

SHAPE_NAMES = 600


def _cyclic_garbage() -> list[str]:
    """Collect now and return the type names of what only the cyclic
    collector could free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [type(obj).__name__ for obj in gc.garbage]
        del gc.garbage[:]
    finally:
        gc.set_debug(0)
    return found


@pytest.fixture
def loop_garbage(monkeypatch):
    """Type names of the cyclic garbage each outermost ``Simulator.run``
    left behind: the heap is collected before the loop, then collected
    again under ``DEBUG_SAVEALL`` right after it."""
    found: list[str] = []
    run = Simulator.run
    depth = [0]

    def probed(sim, *args, **kwargs):
        if depth[0]:
            return run(sim, *args, **kwargs)
        gc.collect()
        depth[0] += 1
        try:
            return run(sim, *args, **kwargs)
        finally:
            depth[0] -= 1
            found.extend(_cyclic_garbage())

    monkeypatch.setattr(Simulator, "run", probed)
    return found


def _names(seed: int, count: int = SHAPE_NAMES) -> list[str]:
    return list(DomainCorpus(CorpusConfig(seed=seed)).fqdns(count))


def _scan(seed: int = 5, wire_mode: str = "always", plan: str | None = None, **config):
    internet = build_internet(params=EcosystemParams(seed=seed), wire_mode=wire_mode)
    if plan is not None:
        FaultInjector(plan_by_name(plan), sim=internet.sim, seed=seed).attach(internet.network)
    if config.get("mode") == "external":
        config["resolver_ips"] = [internet.google_ip]
    rows: list[dict] = []
    status = io.StringIO()
    runner = ScanRunner(
        internet,
        ScanConfig(seed=seed, threads=300, **config),
        sink=rows.append,
        status_stream=status,
    )
    report = runner.run(_names(seed))
    assert report.stats.total == len(rows) == SHAPE_NAMES
    return report, status.getvalue()


class TestLoopLeavesNoCycles:
    """The shape matrix: zero cyclic garbage from every loop shape."""

    def test_wire_scan(self, loop_garbage):
        _scan(wire_mode="always")
        assert loop_garbage == []

    def test_dnssec_scan_without_wire(self, loop_garbage):
        report, _ = _scan(wire_mode="never", dnssec=True)
        assert report.dnssec_stats["secure"] > 0
        assert loop_garbage == []

    def test_chaos_moderate(self, loop_garbage):
        _scan(plan="moderate")
        assert loop_garbage == []

    def test_oracle_check(self, loop_garbage):
        report, _ = _scan(oracle_check=5)
        assert report.oracle_stats["checked"] > 0
        assert loop_garbage == []

    def test_spans_and_status(self, loop_garbage):
        report, status = _scan(collect_spans=True, status_interval=0.5, metrics=True)
        assert status and report.tracer is not None
        assert loop_garbage == []

    def test_external_mode(self, loop_garbage):
        _scan(mode="external", module="MX")
        assert loop_garbage == []

    def test_service_soak_with_delta_blackout_and_prefetch(self, loop_garbage):
        report = run_service(
            ServiceConfig(
                seed=7,
                duration=600.0,
                catalog_size=40,
                base_qps=3.0,
                workers=4,
                deltas=1,
                blackouts=((200.0, 320.0),),
                prefetch_interval=30.0,
            )
        )
        assert report.counters["deltas_published"] == 1
        assert report.counters["prefetch_scheduled"] > 0
        assert loop_garbage == []

    def test_parallel_task(self, loop_garbage):
        class Pipe:
            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

        names = _names(3)
        spec = parallel._ShardSpec(
            names=names,
            shards=1,
            config=ScanConfig(seed=3, threads=300),
            collect_spans=True,
            delta_interval=0.5,
        )
        pipe = Pipe()
        parallel._run_task(parallel._ShardTask(0, 0, 0, len(names), 1), spec, pipe)
        assert pipe.sent[-1][0] == "task_done"
        assert loop_garbage == []


class TestTimerCycle:
    def test_fired_timeout_race_leaves_no_cycle(self):
        """A timed-out race used to keep a cycle: timer -> on_timeout ->
        future -> on_future -> timer.  Firing the timer breaks it."""
        sim = Simulator()
        never = SimFuture()
        race = sim.timeout_race(never, timeout=1.0)
        sim.run()
        assert race.result() is None and never.abandoned
        gc.collect()
        del sim, never, race
        assert _cyclic_garbage() == []

    def test_fired_handle_drops_its_callback(self):
        sim = Simulator()
        handle = sim.call_later(1.0, lambda: None)
        sim.run()
        assert handle.finished and handle.fn is None


class TestCollectorState:
    def _watch(self, sim, seen):
        sim.call_soon(lambda: seen.append(gc.isenabled()))

    def test_paused_inside_restored_after(self):
        assert gc.isenabled()
        sim = Simulator()
        seen = []
        self._watch(sim, seen)
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_hang(self):
        sim = Simulator()

        def forever():
            while True:
                yield 1.0

        sim.spawn(forever())
        with pytest.raises(HangError):
            sim.run(max_events=100)
        assert gc.isenabled()

    def test_restored_after_raising_callback(self):
        sim = Simulator()

        def boom():
            raise ValueError("callback failed")

        sim.call_soon(boom)
        with pytest.raises(ValueError):
            sim.run()
        assert gc.isenabled()

    def test_nested_run(self):
        outer = Simulator()
        seen = []

        def nested():
            inner = Simulator()
            self._watch(inner, seen)
            inner.run()
            seen.append(gc.isenabled())  # still inside the outer loop

        outer.call_soon(nested)
        outer.run()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, monkeypatch):
        monkeypatch.setattr(sim_module, "_GC_YOUNG_CEILING", 0)
        monkeypatch.setattr(sim_module, "_GC_CHECK_EVERY", 1)
        sim = Simulator()
        for _ in range(5):
            sim.call_soon(lambda: None)
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()
        # the collector was the caller's to keep off: no backstop either
        assert sim.counters()["gc_backstop_collections"] == 0

    def test_runs_in_threads_share_one_pause(self):
        """Loops in several threads overlap; the last one out must put
        the collector back, whatever the interleaving."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        seen = []
        errors = []

        def loops():
            try:
                for _ in range(2000):
                    sim = Simulator()
                    for _ in range(3):
                        sim.call_soon(lambda: seen.append(gc.isenabled()))
                    sim.run()
            except BaseException as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=loops) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == 4 * 2000 * 3 and not any(seen)
        assert gc.isenabled()

    def test_short_runs_do_not_starve_the_collector(self):
        """Each run leaves a cycle; the automatic collector, not an
        explicit ``gc.collect``, must still reclaim them between runs."""

        class Node:
            pass

        refs = []

        def make_cycle():
            node = Node()
            node.me = node
            refs.append(weakref.ref(node))

        sim = Simulator()
        gc.collect()
        for _ in range(5000):
            sim.call_soon(make_cycle)
            sim.run()
        alive = sum(ref() is not None for ref in refs)
        assert alive < 2000, f"{alive} of {len(refs)} cycles never collected"


class TestEventBudget:
    """``max_events`` is a countdown charged at the backstop's
    checkpoints; it must stay exact across them."""

    @pytest.mark.parametrize("events", [20, 21])
    def test_budget_exact_across_checkpoints(self, monkeypatch, events):
        monkeypatch.setattr(sim_module, "_GC_CHECK_EVERY", 7)
        sim = Simulator()
        ran = []
        for i in range(events):
            sim.call_soon(lambda i=i: ran.append(i))
        if events > 20:
            with pytest.raises(HangError, match="after 20 events"):
                sim.run(max_events=20)
        else:
            sim.run(max_events=20)
        assert len(ran) == sim.events_executed == 20

    def test_non_positive_budget_runs_nothing(self):
        for budget in (0, -3):
            sim = Simulator()
            sim.call_soon(lambda: None)
            with pytest.raises(HangError):
                sim.run(max_events=budget)
            assert sim.events_executed == 0


class TestBackstop:
    def test_ceiling_collects_and_counts(self, monkeypatch):
        monkeypatch.setattr(sim_module, "_GC_YOUNG_CEILING", 100)
        monkeypatch.setattr(sim_module, "_GC_CHECK_EVERY", 50)

        class Node:
            pass

        def plant():
            node, peer = Node(), Node()
            node.peer, peer.peer = peer, node

        sim = Simulator()
        for _ in range(2000):
            sim.call_soon(plant)
        gc.collect()
        sim.run()
        counters = sim.counters()
        assert counters["gc_backstop_collections"] > 0
        assert counters["gc_backstop_freed"] >= 1000
        assert gc.isenabled()
        registry = MetricsRegistry()
        sim.publish_metrics(registry.scope("scheduler"))
        snapshot = registry.snapshot()
        assert snapshot["scheduler.gc_backstop_collections"] == counters["gc_backstop_collections"]
        assert snapshot["scheduler.gc_backstop_freed"] == counters["gc_backstop_freed"]

    def test_default_ceiling_idle_on_a_scan(self):
        report, _ = _scan(metrics=True)
        assert report.metrics["scheduler.gc_backstop_collections"] == 0
        assert report.metrics["scheduler.gc_backstop_freed"] == 0


def test_canonical_wire_memo_matches_a_fresh_encode():
    for samples in SAMPLES.values():
        for rdata in samples:
            writer = WireWriter(enable_compression=False)
            rdata.to_wire(writer)
            fresh = writer.getvalue()
            twin = type(rdata).from_wire(WireReader(fresh), len(fresh))
            assert rdata.canonical_wire() == fresh
            assert rdata.canonical_wire() is rdata.canonical_wire()  # memoised
            # the memo is not part of the value: an un-memoised twin is
            # still equal, hashes alike and prints alike
            assert twin == rdata and hash(twin) == hash(rdata)
            assert repr(twin) == repr(rdata)
