"""End-to-end sanity check for the observability stack.

Run as ``python -m repro.obs.selfcheck``.  Exercises every obs layer the
way a real scan does — registry instruments, a small simulated scan with
metrics + status + spans enabled, the Prometheus dump, and the metadata
builder — and exits non-zero if any invariant fails.  Cheap enough
(~200 lookups) to run in the verify loop.
"""

from __future__ import annotations

import sys

from . import (
    MetricsRegistry,
    build_run_metadata,
    estimate_eta,
    format_status_line,
    parse_prometheus,
)
from .metrics import bucket_bounds, bucket_index


def check_registry() -> None:
    registry = MetricsRegistry(enabled=True)
    scope = registry.scope("engine")
    scope.counter("lookups").inc(7)
    scope.gauge("inflight").set(3)
    histogram = scope.histogram("latency")
    for value in (0.001, 0.002, 0.004, 0.008, 0.1):
        histogram.observe(value)
    snapshot = registry.snapshot()
    assert snapshot["engine.lookups"] == 7, snapshot
    assert snapshot["engine.inflight"] == 3, snapshot
    assert snapshot["engine.latency"]["count"] == 5, snapshot
    assert 0.001 <= snapshot["engine.latency"]["p50"] <= 0.008, snapshot
    for value in (0.0013, 1.0, 250.0):
        low, high = bucket_bounds(bucket_index(value))
        assert low <= value < high, (value, low, high)
    text = registry.render_prometheus()
    assert "pyzdns_engine_lookups 7" in text, text
    assert "# TYPE pyzdns_engine_latency histogram" in text, text
    assert 'pyzdns_engine_latency_bucket{le="+Inf"} 5' in text, text
    # the rendering must satisfy a strict exposition-format parser
    families = parse_prometheus(text)
    assert families["pyzdns_engine_lookups"]["type"] == "counter", families
    assert families["pyzdns_engine_latency"]["type"] == "histogram", families

    disabled = MetricsRegistry(enabled=False)
    disabled.scope("x").counter("y").inc()
    assert len(disabled) == 0 and disabled.snapshot() == {}


def check_scan() -> None:
    from ..ecosystem import EcosystemParams, build_internet
    from ..framework import ScanConfig, ScanRunner
    from ..workloads import CorpusConfig, DomainCorpus

    import io

    spans: list[dict] = []
    status = io.StringIO()
    internet = build_internet(params=EcosystemParams(seed=7))
    config = ScanConfig(
        threads=20, seed=7, metrics=True, status_interval=1.0, collect_spans=True
    )
    names = DomainCorpus(CorpusConfig(seed=7)).fqdns(200)
    report = ScanRunner(
        internet,
        config,
        span_sink=spans.append,
        status_stream=status,
    ).run(names)
    assert report.stats.total == 200, report.stats.total
    status_lines = status.getvalue().splitlines()
    assert status_lines, "status emitter produced no lines"
    assert all("/s avg" in line for line in status_lines), status_lines
    metrics = report.metrics
    for key in ("engine.lookups", "scheduler.events_executed", "cache.hit_rate"):
        assert key in metrics, sorted(metrics)
    assert metrics["engine.lookups"] == 200, metrics["engine.lookups"]
    assert metrics["engine.inflight"] == 0, metrics["engine.inflight"]
    # the loop makes no reference cycles, so the young-heap backstop of
    # the paused collector never has to step in
    for key in ("scheduler.gc_backstop_collections", "scheduler.gc_backstop_freed"):
        assert metrics.get(key) == 0, (key, metrics.get(key))

    assert spans, "span sink received nothing"
    by_id = {row["id"]: row for row in spans}
    roots = [row for row in spans if row["parent"] is None]
    children = [row for row in spans if row["parent"] is not None]
    assert roots and children, (len(roots), len(children))
    for row in children:
        assert row["parent"] in by_id, row
    for row in spans:
        assert row["end"] >= row["start"], row
    lookups = [row for row in spans if row["span"] == "lookup"]
    assert len(lookups) == 200, len(lookups)

    line = format_status_line(
        elapsed=2.0,
        total=100,
        interval_rate=50.0,
        average_rate=50.0,
        success_rate=0.97,
        in_flight=20,
        timeouts=1,
        retries=2,
        cache_hit_rate=0.991,
    )
    assert line.startswith("t=2.0s; 100 done; 50.0/s now"), line
    line = format_status_line(
        elapsed=2.0,
        total=100,
        interval_rate=50.0,
        average_rate=50.0,
        success_rate=0.97,
        in_flight=20,
        timeouts=1,
        retries=2,
        cache_hit_rate=None,
        target=500,
        eta=estimate_eta(100, 500, 50.0),
    )
    assert line.startswith("t=2.0s; 100/500 done; eta 8s"), line

    metadata = build_run_metadata(
        report.stats.to_json(),
        args={"module": "A", "threads": 20},
        wall_seconds=0.5,
        virtual_seconds=report.stats.duration,
        metrics=metrics,
    )
    assert metadata["total"] == 200, metadata
    assert metadata["durations"]["wall_s"] == 0.5, metadata
    assert metadata["args"]["threads"] == 20, metadata


def check_control_plane() -> None:
    """A scan with the HTTP control plane attached: both endpoints must
    serve valid documents and the final snapshot must agree with the
    scan report."""
    import json
    import urllib.request

    from ..ecosystem import EcosystemParams, build_internet
    from ..framework import ScanConfig, ScanRunner, ScanView
    from ..workloads import CorpusConfig, DomainCorpus
    from .server import TelemetryServer

    internet = build_internet(params=EcosystemParams(seed=7))
    config = ScanConfig(threads=20, seed=7, metrics=True)
    names = list(DomainCorpus(CorpusConfig(seed=7)).fqdns(200))
    view = ScanView(run_info={"module": "A", "mode": "iterative"})
    server = TelemetryServer(status=view.status_snapshot, metrics=view.prometheus).start()
    try:
        report = ScanRunner(
            internet, config, view=view, target=len(names)
        ).run(names)
        with urllib.request.urlopen(f"{server.url}/status.json", timeout=5) as response:
            snapshot = json.loads(response.read())
        assert snapshot["fleet"]["done"] == 200, snapshot["fleet"]
        assert snapshot["fleet"]["complete"] is True, snapshot["fleet"]
        assert snapshot["run"]["module"] == "A", snapshot["run"]
        assert len(snapshot["shards"]) == 1, snapshot["shards"]
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as response:
            families = parse_prometheus(response.read().decode("utf-8"))
        assert families["pyzdns_engine_lookups"]["samples"][0][2] == 200.0, (
            families["pyzdns_engine_lookups"]
        )
        assert any(name.startswith("pyzdns_codec_") for name in families), sorted(families)
        with urllib.request.urlopen(f"{server.url}/", timeout=5) as response:
            dashboard = response.read().decode("utf-8")
        assert "status.json" in dashboard and "<svg" in dashboard
        assert report.stats.total == 200
    finally:
        server.stop()


def main() -> int:
    checks = [check_registry, check_scan, check_control_plane]
    for check in checks:
        check()
        print(f"obs selfcheck: {check.__name__} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
