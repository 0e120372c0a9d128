"""Tests for the persistent on-disk tuning cache (tuner/cache.py)."""

import json
import multiprocessing

import numpy as np

from repro.blas3 import random_inputs, reference
from repro.gpu import FERMI_C2050, GTX_285
from repro.telemetry import Telemetry
from repro.tuner import LibraryGenerator, TuningCache, TuningOptions, space_fingerprint

SMALL_SPACE = [
    {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
]


class CountingSearch:
    """Stub standing in for VariantSearch.search: counts invocations and
    delegates to the real implementation."""

    def __init__(self, searcher):
        self.searcher = searcher
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.searcher(*args, **kwargs)


def make_gen(cache_dir, **tuning_kwargs):
    return LibraryGenerator(
        GTX_285,
        options=TuningOptions(
            space=SMALL_SPACE, cache_dir=cache_dir, **tuning_kwargs
        ),
    )


class TestWarmCache:
    def test_warm_hit_skips_search_entirely(self, tmp_path):
        cold = make_gen(tmp_path)
        tuned_cold = cold.generate("GEMM-NN")

        warm = make_gen(tmp_path)
        counter = CountingSearch(warm.searcher.search)
        warm.searcher.search = counter
        tuned_warm = warm.generate("GEMM-NN")

        assert counter.calls == 0  # zero search evaluations on a warm cache
        assert warm.disk_cache.hits == 1
        assert tuned_warm.config == tuned_cold.config
        assert tuned_warm.tuned_gflops == tuned_cold.tuned_gflops
        assert (
            tuned_warm.script.script.render() == tuned_cold.script.script.render()
        )

    def test_warm_library_does_no_search(self, tmp_path):
        names = ["GEMM-NN", "TRMM-LL-N"]
        make_gen(tmp_path).library(names)

        warm = make_gen(tmp_path)
        warm.searcher.search = CountingSearch(warm.searcher.search)
        lib = warm.library(names)
        assert warm.searcher.search.calls == 0
        assert set(lib.names()) == set(names)

    def test_warm_routine_functional(self, tmp_path):
        make_gen(tmp_path).generate("TRMM-LL-N")
        warm = make_gen(tmp_path).generate("TRMM-LL-N")
        sizes = {"M": 32, "N": 32}
        inputs = random_inputs("TRMM-LL-N", sizes, seed=9)
        np.testing.assert_allclose(
            warm.run(**inputs), reference("TRMM-LL-N", inputs), rtol=3e-3, atol=3e-3
        )

    def test_fallback_survives_the_cache(self, tmp_path):
        cold = make_gen(tmp_path).generate("TRMM-LL-N")
        warm = make_gen(tmp_path).generate("TRMM-LL-N")
        assert (warm.fallback is None) == (cold.fallback is None)
        if cold.conditions:
            assert [c.text for c in warm.conditions] == [
                c.text for c in cold.conditions
            ]


class TestInvalidation:
    def test_corrupted_cache_file_is_rebuilt(self, tmp_path):
        make_gen(tmp_path).generate("GEMM-NN")
        for path in tmp_path.glob("routine-*.json"):
            path.write_text("{definitely not json")

        gen = make_gen(tmp_path)
        counter = CountingSearch(gen.searcher.search)
        gen.searcher.search = counter
        tuned = gen.generate("GEMM-NN")  # must not raise
        assert counter.calls == 1  # cache ignored, search re-ran
        assert tuned.tuned_gflops > 0
        # and the cache file was rewritten with a valid document
        docs = [json.loads(p.read_text()) for p in tmp_path.glob("routine-*.json")]
        assert docs and all("record" in d for d in docs)

    def test_truncated_verdicts_ignored(self, tmp_path):
        make_gen(tmp_path).generate("GEMM-NN")
        for path in tmp_path.glob("verdicts-*.json"):
            path.write_text(path.read_text()[:10])
        tuned = make_gen(tmp_path).generate("TRSM-LL-N")  # must not raise
        assert tuned.tuned_gflops > 0

    def test_different_space_misses(self, tmp_path):
        make_gen(tmp_path).generate("GEMM-NN")
        other = LibraryGenerator(
            GTX_285, options=TuningOptions(space=SMALL_SPACE[:1], cache_dir=tmp_path)
        )
        counter = CountingSearch(other.searcher.search)
        other.searcher.search = counter
        other.generate("GEMM-NN")
        assert counter.calls == 1  # space fingerprint differs → cold

    def test_different_arch_misses(self, tmp_path):
        make_gen(tmp_path).generate("GEMM-NN")
        other = LibraryGenerator(
            FERMI_C2050, options=TuningOptions(space=SMALL_SPACE, cache_dir=tmp_path)
        )
        counter = CountingSearch(other.searcher.search)
        other.searcher.search = counter
        other.generate("GEMM-NN")
        assert counter.calls == 1

    def test_different_tune_size_misses(self, tmp_path):
        make_gen(tmp_path).generate("GEMM-NN")
        other = make_gen(tmp_path, tune_size=2048)
        counter = CountingSearch(other.searcher.search)
        other.searcher.search = counter
        other.generate("GEMM-NN")
        assert counter.calls == 1


class TestCachePrimitives:
    def test_space_fingerprint_is_order_sensitive(self):
        a = space_fingerprint(SMALL_SPACE)
        b = space_fingerprint(list(reversed(SMALL_SPACE)))
        assert a != b  # order breaks search ties, so it must key the cache

    def test_default_keys_are_stable(self, tmp_path):
        # Pinned digests: a refactor of LibraryGenerator's knobs must not
        # move the keys, or every existing tuning cache stops hitting.
        gen = LibraryGenerator(GTX_285, options=TuningOptions(cache_dir=tmp_path))
        assert gen._routine_cache_key("GEMM-NN") == "247216555c67426e2e87f701"
        assert gen._scores_cache_key("GEMM-NN") == "247216555c67426e2e87f701"
        assert gen._verdict_key == "ac8edb4fee8cdadbaf1e2d62"
        budgeted = LibraryGenerator(
            GTX_285, options=TuningOptions(cache_dir=tmp_path, topk=4)
        )
        assert budgeted._routine_cache_key("TRSM-LL-N") == "7a30747066d67a7abd07e267"

    def test_load_missing_is_miss_not_crash(self, tmp_path):
        cache = TuningCache(tmp_path / "nonexistent")
        assert cache.load_routine("deadbeef", "GEMM-NN", GTX_285) is None
        assert cache.load_verdicts("deadbeef") == {}
        assert cache.misses == 1

    def test_readonly_dir_degrades_gracefully(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o500)
        try:
            gen = LibraryGenerator(GTX_285, options=TuningOptions(space=SMALL_SPACE, cache_dir=ro))
            tuned = gen.generate("GEMM-NN")  # store fails silently
            assert tuned.tuned_gflops > 0
        finally:
            ro.chmod(0o700)

    def test_no_cache_dir_means_no_disk_io(self, tmp_path):
        gen = LibraryGenerator(GTX_285, options=TuningOptions(space=SMALL_SPACE))
        assert gen.disk_cache is None
        gen.generate("GEMM-NN")
        assert list(tmp_path.iterdir()) == []


def _hammer_verdicts(cache_dir, key, worker_id, rounds):
    """Store this worker's disjoint verdict set ``rounds`` times."""
    cache = TuningCache(cache_dir)
    for r in range(rounds):
        cache.store_verdicts(
            key, {f"w{worker_id}-r{r}": (r % 2 == 0)}
        )


class TestConcurrentVerdicts:
    """Regression: the verdict read-merge-write cycle used to be unlocked,
    so two concurrent writers could both read the same base document and
    the slower one would clobber the faster one's verdicts.  Under the
    exclusive lock every store lands and the file converges to the union.
    """

    def test_two_processes_converge_to_the_union(self, tmp_path):
        key, rounds, n_workers = "deadbeefcafe", 25, 2
        procs = [
            multiprocessing.Process(
                target=_hammer_verdicts, args=(tmp_path, key, w, rounds)
            )
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        final = TuningCache(tmp_path).load_verdicts(key)
        want = {
            f"w{w}-r{r}": (r % 2 == 0)
            for w in range(n_workers)
            for r in range(rounds)
        }
        assert final == want  # nothing lost, nothing flipped

    def test_single_process_merge_is_additive(self, tmp_path):
        cache = TuningCache(tmp_path)
        cache.store_verdicts("k1", {"a": True})
        cache.store_verdicts("k1", {"b": False})
        cache.store_verdicts("k1", {"a": True, "c": True})
        assert cache.load_verdicts("k1") == {"a": True, "b": False, "c": True}

class TestFailureCounters:
    """Regression: _read/_write failures used to be fully silent — a
    corrupted cache or a read-only directory degraded correctly but
    invisibly.  They now count as ``cache.corrupt`` / ``cache.write_error``
    without changing the degradation behaviour."""

    def test_corrupt_document_counts(self, tmp_path):
        telemetry = Telemetry()
        (tmp_path / "routine-GEMM-NN-deadbeef.json").write_text("{broken")
        cache = TuningCache(tmp_path, telemetry=telemetry)
        assert cache.load_routine("deadbeef", "GEMM-NN", GTX_285) is None
        assert telemetry.count("cache.corrupt") == 1

    def test_non_object_document_counts(self, tmp_path):
        telemetry = Telemetry()
        (tmp_path / "routine-GEMM-NN-deadbeef.json").write_text("[1, 2, 3]")
        cache = TuningCache(tmp_path, telemetry=telemetry)
        assert cache.load_routine("deadbeef", "GEMM-NN", GTX_285) is None
        assert telemetry.count("cache.corrupt") == 1

    def test_missing_file_is_a_plain_miss_not_corruption(self, tmp_path):
        telemetry = Telemetry()
        cache = TuningCache(tmp_path, telemetry=telemetry)
        assert cache.load_routine("deadbeef", "GEMM-NN", GTX_285) is None
        assert telemetry.count("cache.corrupt") == 0

    def test_write_error_counts(self, tmp_path):
        # a cache dir whose parent is a regular file cannot be created,
        # no matter the uid (chmod-based setups are invisible to root)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        telemetry = Telemetry()
        cache = TuningCache(blocker / "cache", telemetry=telemetry)
        cache.store_verdicts("k1", {"a": True})  # must not raise
        assert telemetry.count("cache.write_error") == 1


class TestPlanSnapshots:
    """The serving tier's dispatch-table snapshot document."""

    def _records(self, tmp_path):
        tuned = make_gen(tmp_path).generate("GEMM-NN")
        from repro.tuner.persist import routine_record

        return [{"routine": "GEMM-NN", "bucket": 32, "record": routine_record(tuned)}]

    def test_roundtrip(self, tmp_path):
        telemetry = Telemetry()
        cache = TuningCache(tmp_path, telemetry=telemetry)
        cache.store_plan_snapshot(GTX_285, "tier", self._records(tmp_path))
        doc = cache.load_plan_snapshot(GTX_285, "tier")
        assert doc is not None
        assert doc["tag"] == "tier"
        assert [p["bucket"] for p in doc["plans"]] == [32]
        assert telemetry.count("cache.snapshot.store") == 1
        assert telemetry.count("cache.snapshot.hit") == 1

    def test_keyed_by_arch_and_tag(self, tmp_path):
        cache = TuningCache(tmp_path)
        cache.store_plan_snapshot(GTX_285, "tier", [])
        assert cache.load_plan_snapshot(GTX_285, "other-tier") is None
        assert cache.load_plan_snapshot(FERMI_C2050, "tier") is None
        assert cache.snapshot_key(GTX_285, "tier") != cache.snapshot_key(
            FERMI_C2050, "tier"
        )

    def test_last_full_writer_wins(self, tmp_path):
        cache = TuningCache(tmp_path)
        records = self._records(tmp_path)
        cache.store_plan_snapshot(GTX_285, "tier", records)
        cache.store_plan_snapshot(GTX_285, "tier", records * 2)
        assert len(cache.load_plan_snapshot(GTX_285, "tier")["plans"]) == 2

    def test_corrupt_snapshot_is_a_miss(self, tmp_path):
        telemetry = Telemetry()
        cache = TuningCache(tmp_path, telemetry=telemetry)
        cache.store_plan_snapshot(GTX_285, "tier", [])
        for path in tmp_path.glob("snapshot-*.json"):
            path.write_text("{broken")
        assert cache.load_plan_snapshot(GTX_285, "tier") is None
        assert telemetry.count("cache.snapshot.miss") == 1

    def test_snapshot_rebuilds_into_a_runnable_routine(self, tmp_path):
        from repro.tuner.persist import rebuild_routine

        cache = TuningCache(tmp_path)
        cache.store_plan_snapshot(GTX_285, "tier", self._records(tmp_path))
        doc = cache.load_plan_snapshot(GTX_285, "tier")
        tuned = rebuild_routine(doc["plans"][0]["record"], GTX_285)
        sizes = {"M": 32, "N": 32, "K": 32}
        inputs = random_inputs("GEMM-NN", sizes, seed=12)
        np.testing.assert_allclose(
            tuned.run(**inputs), reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )


class TestConcurrentVerdictsLockDegradation:
    def test_lock_degrades_in_readonly_dir(self, tmp_path):
        # chmod can't stop root, so only the no-raise degradation is
        # portable here; the no-caching outcome is covered by
        # TestCachePrimitives.test_readonly_dir_degrades_gracefully.
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o500)
        try:
            cache = TuningCache(ro)
            cache.store_verdicts("k1", {"a": True})  # must not raise
            assert isinstance(cache.load_verdicts("k1"), dict)
        finally:
            ro.chmod(0o700)
