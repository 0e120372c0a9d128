"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

They cover the tiny-length mode of every workload (every metric name
and unit is printed), the correctness gate tripping on corrupted
outputs, the self-time arithmetic on a synthetic span tree, the exit
status without the program's source, and the shape of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPECS = workloads.metric_specs()


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_tiny_run_prints_every_metric(name, trace, capsys):
    result = workloads.run(name, seed=3, seconds=0.4, trace=trace, tiny=True)
    out = capsys.readouterr().out
    kind = "per_layer" if trace else "end_to_end"
    assert result["correct"], out
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(SPECS[kind])
    for metric, spec in SPECS[kind].items():
        entry = result["metrics"][metric]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], (int, float)) and np.isfinite(entry["value"])
        assert any(
            line.split()[:1] == [metric] and spec["unit"] in line.split()
            for line in out.splitlines()
        ), f"{metric} not printed with its unit"
    json.dumps(result, allow_nan=False)
    if trace:
        assert "per-layer self time" in out


def test_same_seed_same_inputs():
    first = workloads.serve_small(np.random.default_rng(5), 1.0, tiny=True)
    again = workloads.serve_small(np.random.default_rng(5), 1.0, tiny=True)
    assert [i.label for i in first.pool] == [i.label for i in again.pool]
    assert all(
        np.array_equal(a.arrays[k], b.arrays[k])
        for a, b in zip(first.pool, again.pool)
        for k in a.arrays
    )
    assert np.array_equal(first.stream, again.stream)


def test_gate_trips_on_corrupted_output():
    expected = np.arange(12.0).reshape(3, 4)
    assert gate.compare(expected.astype(np.float32), expected)[1] is None
    corrupted = expected.copy()
    corrupted[1, 2] += 0.01
    assert gate.compare(corrupted, expected)[1] is not None
    assert gate.compare(None, expected)[1] == "no output"
    assert "shape" in gate.compare(expected[:2], expected)[1]
    assert "non-finite" in gate.compare(expected * np.nan, expected)[1]
    checks = gate.Gate()
    checks.check("ok", expected, expected)
    checks.check("bad", corrupted, expected)
    checks.check("error", None, expected, "ServeError: boom")
    assert (checks.attempted, checks.failed) == (3, 2)


def test_corrupted_kernel_output_fails_the_run(monkeypatch, capsys):
    from repro.tuner.library import TunedRoutine

    real = TunedRoutine._execute

    def corrupted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        return out + np.float32(0.5)

    monkeypatch.setattr(TunedRoutine, "_execute", corrupted)
    result = workloads.run("serve_small", seed=3, seconds=0.3, tiny=True)
    out = capsys.readouterr().out
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert "FAILED" in out


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent)


def test_self_time_arithmetic():
    # request [0,10]: kernel [1,4] holding fingerprint [1,2];
    # profile [5,7]; a second thread's root [3,6] is its own tree
    spans = [
        _span("serve.request", 0.0, 10.0),
        _span("jit.kernel", 1.0, 4.0, parent=0),
        _span("jit.fingerprint", 1.0, 2.0, parent=1),
        _span("gpu.profile", 5.0, 7.0, parent=0),
        _span("serve.dispatch", 3.0, 6.0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 3.0]
    assert tracing.root_of(spans) == [0, 0, 0, 0, 4]
    assert tracing.covered([(1.0, 4.0), (3.0, 5.0), (7.0, 8.0)]) == 5.0
    rows = {row["name"]: row for row in tracing.layer_table(
        spans, tracing.self_times(spans), lambda s: s.parent is not None or s.name == "serve.request"
    )}
    assert rows["serve.request"]["total_s"] == 10.0
    assert sum(row["self_s"] for row in rows.values()) == 10.0


def test_recorder_nests_and_restores_entry_points():
    from repro.serve import dispatch

    original = dispatch.DispatchTable.lookup
    recorder = tracing.Recorder()
    with tracing.instrumented(recorder):
        assert dispatch.DispatchTable.lookup is not original
        table = dispatch.DispatchTable()
        with recorder.span("serve.request", rid=7):
            table.lookup(("GEMM-NN", "x", 16))
    assert dispatch.DispatchTable.lookup is original
    names = [(s.name, s.parent, s.rid) for s in recorder.spans]
    assert names == [("serve.request", None, 7), ("serve.lookup", 0, 7)]


def test_host_speed_scales_each_lap(monkeypatch):
    import signal
    import time

    import speed

    # a host twice as slow as the reference: every time is halved
    monkeypatch.setattr(speed, "calibrate", lambda: 2 * speed.REFERENCE_S)
    host = speed.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    result, seconds = host.time(lambda: time.sleep(1.2) or "done")
    assert result == "done"
    assert 0.6 <= seconds < 0.7
    # a sample at the start and one per lap: two timer laps and the last
    assert len(host.samples) == 4
    assert signal.getsignal(signal.SIGALRM) is before
    host.mark()
    assert host.factor() == 0.5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "serve_small", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BUILDERS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
