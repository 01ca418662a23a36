"""Out-of-tree span tracer for the per-layer split.

The tracer never edits the program: :func:`install` wraps public entry
points of each layer (class methods, module functions as their callers
look them up, and the routines handed to ``Simulator.spawn``) from the
outside.  Every wrapped call or generator step is one span with a name,
a start, an end and a parent; spans stay in flat arrays in memory until
the round ends, and :meth:`Recorder.layer_times` turns them into self
times (span duration minus the duration of its child spans).

Generator entry points (routines, ``IterativeMachine.resolve``) are
timed per step: a span opens when the generator is resumed and closes
when it yields, so virtual-time waits never count as wall time and the
spans of different routines never overlap.
"""

from __future__ import annotations

import gc
import json
import os
import time
from array import array

#: Routine step time is charged to the module that defines the routine;
#: the first matching prefix wins.
ROUTINE_LAYERS = (
    ("repro.net", "net.sockets"),
    ("repro.core", "core.machine"),
    ("repro.service", "service.routine"),
    ("repro.framework", "framework.runner"),
)


def routine_layer(routine) -> str:
    frame = getattr(routine, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    for prefix, layer in ROUTINE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class Recorder:
    """Spans as parallel arrays (no per-span objects for the GC to walk)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- garbage collector pauses ------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- results ------------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per span name."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                if start[i] < start[p] or end[i] > end[p]:
                    raise RuntimeError(f"span {i} is not inside its parent {p}")
                child[p] += end[i] - start[i]
        self_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        names = self.names
        for i in range(len(start)):
            key = names[name[i]]
            self_s[key] += end[i] - start[i] - child[i]
            calls[key] += 1
        return self_s, calls

    def reset(self) -> None:
        """Drop every span and count (a forked worker starts empty)."""
        for values in (self.name, self.parent, self.start, self.end):
            del values[:]
        self.stack.clear()
        self.counts.clear()
        self.gc_s = 0.0
        self.gc_collections = 0


def _wrap_call(recorder: Recorder, func, span: str, sizer=None):
    nid = recorder.name_id(span)
    opened, closed = recorder.open, recorder.close

    def traced(*args, **kwargs):
        index = opened(nid)
        try:
            result = func(*args, **kwargs)
        finally:
            closed(index)
        if sizer is not None:
            sizer(result)
        return result

    return traced


def traced_steps(recorder: Recorder, generator, nid: int):
    """Drive ``generator`` transparently, one span per resumed step."""
    opened, closed = recorder.open, recorder.close
    value = None
    error = None
    while True:
        index = opened(nid)
        try:
            if error is None:
                yielded = generator.send(value)
            else:
                pending, error = error, None
                yielded = generator.throw(pending)
        except StopIteration as stop:
            closed(index)
            return stop.value
        except BaseException:
            closed(index)
            raise
        closed(index)
        try:
            value = yield yielded
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:
            error, value = thrown, None


def _patch(owner, attr: str, recorder: Recorder, span: str, sizer=None) -> None:
    """Replace ``owner.attr`` (of a class or a module) by a timed wrapper."""
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(_wrap_call(recorder, raw.__func__, span, sizer))
    else:
        wrapped = _wrap_call(recorder, raw, span, sizer)
    setattr(owner, attr, wrapped)


#: SelectiveCache public methods, split into probes and mutations.
CACHE_READS = (
    "get_delegation",
    "best_delegation",
    "get_answer",
    "get_negative",
    "get_security",
    "get_stale_answer",
    "get_stale_negative",
    "answer_heat",
)
CACHE_WRITES = (
    "put_delegation",
    "put_answer",
    "put_negative",
    "put_security",
    "invalidate_subtree",
    "flush",
)
CHECKPOINT_METHODS = ("spool_rows", "spool_spans", "note_delta", "task_done", "checkpoint", "finalize")


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point for the rest of the process.  Call
    after set-up, right before the work."""
    import repro.core.dnssec as core_dnssec
    import repro.ecosystem.content as content
    import repro.framework.io as framework_io
    import repro.framework.parallel as parallel
    from repro.core import IterativeMachine, SelectiveCache
    from repro.dnslib import Message
    from repro.framework import ScanRunner
    from repro.framework.checkpoint import CheckpointWriter
    from repro.net import SimNetwork, Simulator
    from repro.service import ResolverService

    _patch(Simulator, "run", recorder, "net.sim")
    _patch(ScanRunner, "run", recorder, "framework.runner")
    _patch(ResolverService, "run", recorder, "service.routine")
    _patch(parallel, "run_parallel_scan", recorder, "framework.parallel")

    spawn = vars(Simulator)["spawn"]

    def traced_spawn(sim, routine):
        nid = recorder.name_id(routine_layer(routine))
        return spawn(sim, traced_steps(recorder, routine, nid))

    Simulator.spawn = traced_spawn

    for attr in ("query_udp", "query_tcp"):
        _patch(SimNetwork, attr, recorder, "net.sockets")

    def add_wire_bytes(wire: bytes) -> None:
        recorder.count("dnslib.wire_bytes", len(wire))

    _patch(Message, "to_wire", recorder, "dnslib.encode", sizer=add_wire_bytes)
    _patch(Message, "from_wire", recorder, "dnslib.decode")

    for server_class in _server_classes():
        _patch(server_class, "handle_query", recorder, "ecosystem.serve")
    _patch(content, "sign_rrset", recorder, "ecosystem.sign")

    machine_nid = recorder.name_id("core.machine")
    resolve = vars(IterativeMachine)["resolve"]

    def traced_resolve(machine, name, qtype):
        return traced_steps(recorder, resolve(machine, name, qtype), machine_nid)

    IterativeMachine.resolve = traced_resolve

    for attr in CACHE_READS:
        _patch(SelectiveCache, attr, recorder, "core.cache.read")
    for attr in CACHE_WRITES:
        _patch(SelectiveCache, attr, recorder, "core.cache.write")
    for attr in ("verify_rrsig", "ds_matches"):
        _patch(core_dnssec, attr, recorder, "core.dnssec.verify")

    def add_out_bytes(line: str) -> None:
        recorder.count("framework.out_bytes", len(line))

    _patch(framework_io, "encode_row", recorder, "framework.rows", sizer=add_out_bytes)
    _patch(parallel, "encode_row", recorder, "framework.rows", sizer=add_out_bytes)
    for attr in CHECKPOINT_METHODS:
        _patch(CheckpointWriter, attr, recorder, "framework.checkpoint")


def _server_classes() -> list[type]:
    """Every ecosystem class that defines its own ``handle_query``; a
    subclass that inherits it is covered by its base."""
    import repro.ecosystem.publicresolver as publicresolver
    import repro.ecosystem.servers as servers
    import repro.ecosystem.staticzone as staticzone

    found = []
    for module in (servers, publicresolver, staticzone):
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "handle_query" in vars(value)
            ):
                found.append(value)
    return found


def state_counts(internets, caches) -> dict[str, int]:
    """Counters the program keeps itself, summed over the simulators,
    networks and caches a round ran on."""
    totals = dict.fromkeys(
        (
            "events",
            "timers_scheduled",
            "timers_cancelled",
            "truncated",
            "lost",
            "memo_hits",
            "memo_probes",
            "cache_hits",
            "cache_probes",
            "invalidated",
        ),
        0,
    )
    for internet in internets:
        scheduler = internet.sim.counters()
        totals["events"] += scheduler["events_executed"]
        totals["timers_scheduled"] += scheduler["timers_scheduled"]
        totals["timers_cancelled"] += scheduler["timers_cancelled"]
        net = internet.network.stats
        totals["truncated"] += net.truncated_replies
        totals["lost"] += net.lost_outbound + net.lost_inbound
        for server in internet.network.servers():
            memo = getattr(server, "memo", None)
            if memo is not None:
                totals["memo_hits"] += memo.hits
                totals["memo_probes"] += memo.hits + memo.misses
    for cache in caches:
        if cache is None:
            continue
        stats = cache.stats
        totals["cache_hits"] += stats.hits + stats.answer_hits
        totals["cache_probes"] += stats.hits + stats.misses + stats.answer_hits + stats.answer_misses
        totals["invalidated"] += stats.invalidated
    return totals


def trace_forked_workers(recorder: Recorder, directory: str) -> None:
    """Carry the trace into worker processes forked by the parallel
    executor.  Each worker starts with an empty recorder, counts the
    state of every scan it runs, and writes its totals to
    ``directory/worker-<pid>.json`` when it exits."""
    from multiprocessing import util

    from repro.framework import ScanRunner

    def in_child(recorder: Recorder) -> None:
        recorder.reset()
        run = ScanRunner.run
        state: dict[str, int] = {}

        def run_and_count(runner, names):
            report = run(runner, names)
            for key, value in state_counts([runner.internet], [runner.cache]).items():
                state[key] = state.get(key, 0) + value
            return report

        ScanRunner.run = run_and_count

        def dump() -> None:
            self_s, calls = recorder.layer_times()
            document = {
                "self_s": self_s,
                "calls": calls,
                "counts": recorder.counts,
                "state": state,
                "gc_s": recorder.gc_s,
                "gc_collections": recorder.gc_collections,
            }
            path = os.path.join(directory, f"worker-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(document, handle)

        util.Finalize(None, dump, exitpriority=10)

    util.register_after_fork(recorder, in_child)


def worker_dumps(directory: str) -> list[dict]:
    documents = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                documents.append(json.load(handle))
    return documents
