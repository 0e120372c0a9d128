"""Counter registry + worker-snapshot merge (telemetry/metrics.py)."""

from repro.telemetry import (
    NULL_TELEMETRY,
    Metrics,
    NullTelemetry,
    Telemetry,
    ensure_telemetry,
)


class TestCounters:
    def test_incr_and_get(self):
        m = Metrics()
        assert m.get("cache.routine.hit") == 0
        m.incr("cache.routine.hit")
        m.incr("cache.routine.hit", 2)
        assert m.get("cache.routine.hit") == 3

    def test_snapshot_is_sorted_and_detached(self):
        m = Metrics()
        m.incr("b")
        m.incr("a")
        snap = m.snapshot()
        assert list(snap) == ["a", "b"]
        snap["a"] = 99
        assert m.get("a") == 1


class TestWorkerMerge:
    def test_merge_accumulates_worker_snapshots(self):
        """The parent folds per-task worker snapshots into its registry —
        the cross-process path of the parallel search."""
        parent = Metrics()
        workers = []
        for _ in range(3):
            w = Metrics()
            w.incr("search.units")
            w.incr("translate.components_omitted", 2)
            workers.append(w.snapshot())
        for snap in workers:
            parent.merge(snap)
        assert parent.get("search.units") == 3
        assert parent.get("translate.components_omitted") == 6

    def test_merge_order_does_not_matter(self):
        a, b = Metrics(), Metrics()
        snaps = [{"x": 1, "y": 5}, {"x": 2}, {"y": 1, "z": 3}]
        for s in snaps:
            a.merge(s)
        for s in reversed(snaps):
            b.merge(s)
        assert a.snapshot() == b.snapshot() == {"x": 3, "y": 6, "z": 3}


class TestTelemetryFacade:
    def test_document_shape(self):
        t = Telemetry()
        with t.span("generate", routine="GEMM-NN"):
            t.incr("cache.routine.miss")
        doc = t.document()
        assert doc["format"] == 1
        assert doc["counters"] == {"cache.routine.miss": 1}
        assert [s["name"] for s in doc["spans"]] == ["generate"]

    def test_write_json(self, tmp_path):
        import json

        t = Telemetry()
        with t.span("a"):
            pass
        path = tmp_path / "trace.json"
        t.write_json(path)
        assert json.loads(path.read_text())["spans"][0]["name"] == "a"

    def test_ensure_telemetry(self):
        assert ensure_telemetry(None) is NULL_TELEMETRY
        t = Telemetry()
        assert ensure_telemetry(t) is t


class TestNullTelemetry:
    def test_discards_everything_but_supports_the_api(self):
        t = NullTelemetry()
        with t.span("generate") as sp:
            sp.tags["x"] = 1  # detached span: writable, never recorded
            t.incr("cache.routine.hit", 5)
            t.merge_counters({"search.units": 9})
        assert not t.enabled
        assert t.count("cache.routine.hit") == 0
        assert t.document()["spans"] == []
        assert t.document()["counters"] == {}
