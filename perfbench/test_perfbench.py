"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark's rounds, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(HERE, "interactions.json")) as _handle:
    INTERACTIONS = json.load(_handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# -- the tracer ----------------------------------------------------------------


def test_self_time_subtracts_children():
    recorder = tracer.Recorder()
    outer, inner = recorder.name_id("outer"), recorder.name_id("inner")
    a = recorder.open(outer)
    b = recorder.open(inner)
    recorder.close(b)
    recorder.close(a)
    self_s, calls = recorder.layer_times()
    assert calls == {"outer": 1, "inner": 1}
    assert self_s["outer"] + self_s["inner"] == pytest.approx(recorder.end[a] - recorder.start[a])
    assert self_s["inner"] == pytest.approx(recorder.end[b] - recorder.start[b])


def test_traced_steps_is_transparent():
    def inner():
        got = yield 1
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    recorder = tracer.Recorder()
    wrapped = tracer.traced_steps(recorder, inner(), recorder.name_id("g"))
    assert next(wrapped) == 1
    assert wrapped.send(5) == 10
    assert wrapped.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        wrapped.send(None)
    assert stop.value.value == "done"
    _, calls = recorder.layer_times()
    assert calls == {"g": 4}


# -- BENCHMARK.json and the interaction map ----------------------------------------


def test_benchmark_json_lists_what_the_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_METRICS
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    mapped = set(INTERACTIONS["layers"])
    assert mapped == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, entry in INTERACTIONS["layers"].items():
        for claim in entry["moves"] + entry["flat"]:
            assert claim["workload"] in workloads.WORKLOADS, name
            assert claim["metric"] in run.E2E_METRICS, name


def test_trace_run_reports_every_layer_metric_and_no_codec_without_wire():
    proc = _run("--workload", "scan-dnssec-nowire", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["dnslib.encode_calls"]["value"] == 0
    assert metrics["dnslib.decode_calls"]["value"] == 0
    assert metrics["core.dnssec.verify_calls"]["value"] > 0
    assert abs(metrics["trace.unattributed_frac"]["value"]) < run.UNATTRIBUTED_TOLERANCE


# -- correctness checks --------------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_holdout_seed_gives_other_rows_and_passes_the_checks(workload):
    digests = []
    for seed in (1, INTERACTIONS["holdout_seed"]):
        # a traced run checks traced against untraced rounds of the seed
        proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
        fingerprints = json.loads(proc.stdout.splitlines()[0])["fingerprints"]
        digests.append({f.get("rows_sha256", f.get("report_sha256")) for f in fingerprints})
    assert not digests[0] & digests[1]


def test_parallel_scan_bytes_do_not_depend_on_process_count(tmp_path):
    fingerprints = []
    for processes in (1, 2):
        work = workloads.ParallelWork(7, str(tmp_path), processes=processes)
        fingerprints.append(work.outcome(work.run()).fingerprint)
    assert fingerprints[0] == fingerprints[1]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan-wire", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
