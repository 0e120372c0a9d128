"""Tests for the BlasService serving runtime.

Small single-config tuning spaces keep the lazy searches fast; the
full-size serving runs live in ``benchmarks/test_bench_serve.py``.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.gpu import GTX_285
from repro.serve import BlasService, ServeOptions, ServeError
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

SMALL_SPACE = ({"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},)

GEMM_SIZES = {"M": 32, "N": 32, "K": 32}


def make_service(tmp_path=None, clock=None, **serve_kwargs):
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    return BlasService(
        GTX_285,
        options=ServeOptions(**serve_kwargs),
        tuning=TuningOptions(
            space=SMALL_SPACE,
            cache_dir=None if tmp_path is None else tmp_path,
        ),
        telemetry=Telemetry(),
        **kwargs,
    )


class TestSingleCall:
    def test_tuned_result_matches_reference(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=3)
        got = service.run("GEMM-NN", alpha=2.0, beta=0.5, **inputs)
        want = reference("GEMM-NN", inputs, alpha=2.0, beta=0.5)
        np.testing.assert_allclose(got, want, rtol=3e-3, atol=3e-3)

    @pytest.mark.parametrize("n", [8, 12, 24])
    def test_padded_answer_owns_its_buffer(self, n):
        # N is off the 16 tile: a view of the padded result would keep
        # the whole tile-multiple buffer alive with the answer
        service = make_service()
        sizes = {"M": n, "N": n, "K": n}
        inputs = random_inputs("GEMM-NN", sizes, seed=n)
        got = service.run("GEMM-NN", **inputs)
        assert got.shape == (n, n)
        assert got.base is None
        np.testing.assert_allclose(got, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3)

    def test_trsm_without_c(self):
        service = make_service()
        inputs = random_inputs("TRSM-LL-N", {"M": 32, "N": 32}, seed=4)
        got = service.run("TRSM-LL-N", alpha=1.5, **inputs)
        want = reference("TRSM-LL-N", inputs, alpha=1.5)
        np.testing.assert_allclose(got, want, rtol=3e-3, atol=3e-3)

    def test_unknown_routine_raises_at_submit(self):
        with pytest.raises(Exception):
            make_service().submit("GEMM-XX", A=np.zeros((4, 4)))

    def test_response_records_source_and_batch(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=5)
        pending = service.submit("GEMM-NN", **inputs)
        service.flush()
        response = pending.result()
        assert response.ok
        assert response.source == "tuned"
        assert response.batch_size == 1
        assert response.total_s >= response.wait_s >= 0.0


class TestDispatch:
    def test_second_call_hits_hot_plan(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=6)
        service.run("GEMM-NN", **inputs)
        service.run("GEMM-NN", **inputs)
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.plan.miss"] == 1
        assert counters["serve.plan.hit"] == 1
        assert counters["serve.tuned"] == 1  # tuned once, served twice

    def test_size_buckets_get_their_own_plans(self):
        service = make_service()
        small = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=7)
        large = random_inputs("GEMM-NN", {"M": 48, "N": 48, "K": 48}, seed=8)
        service.run("GEMM-NN", **small)
        service.run("GEMM-NN", **large)
        assert len(service.table) == 2
        buckets = sorted(k[2] for k in service.table.keys())
        assert buckets == [16, 64]

    def test_lru_eviction_in_service(self):
        service = make_service(hot_plans=1)
        small = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=9)
        large = random_inputs("GEMM-NN", {"M": 48, "N": 48, "K": 48}, seed=10)
        service.run("GEMM-NN", **small)
        service.run("GEMM-NN", **large)
        assert len(service.table) == 1
        assert service.telemetry.count("serve.plan.evict") == 1

    def test_warm_preloads_plan(self):
        service = make_service()
        service.warm("GEMM-NN", 32)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=11)
        service.run("GEMM-NN", **inputs)
        assert service.telemetry.count("serve.plan.hit") == 1


class TestBatching:
    def test_same_shape_requests_coalesce_into_one_launch(self):
        service = make_service(max_batch=8)
        inputs = random_inputs("SYMM-LL", {"M": 32, "N": 32}, seed=12)
        pendings = [service.submit("SYMM-LL", **inputs) for _ in range(4)]
        other = random_inputs("GEMM-NN", GEMM_SIZES, seed=13)
        pendings.append(service.submit("GEMM-NN", **other))
        launches = service.flush()
        assert launches == 2  # 4 SYMM coalesced + 1 GEMM
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.launches"] == 2
        assert counters["serve.coalesced"] == 3
        sizes = [p.result().batch_size for p in pendings]
        assert sizes == [4, 4, 4, 4, 1]
        want = reference("SYMM-LL", inputs)
        for pending in pendings[:4]:
            np.testing.assert_allclose(
                pending.result().output, want, rtol=3e-3, atol=3e-3
            )

    def test_max_batch_splits_launches(self):
        service = make_service(max_batch=2)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=14)
        for _ in range(5):
            service.submit("GEMM-NN", **inputs)
        assert service.flush() == 3  # 2 + 2 + 1
        assert service.telemetry.count("serve.queue.peak_depth") == 5


class TestConcurrency:
    def test_thread_pool_submits_converge_deterministically(self):
        workload = {
            "GEMM-NN": random_inputs("GEMM-NN", GEMM_SIZES, seed=15),
            "SYMM-LL": random_inputs("SYMM-LL", {"M": 32, "N": 32}, seed=16),
        }
        expected = {name: reference(name, inp) for name, inp in workload.items()}

        with make_service(max_batch=4, batch_window_s=0.01) as service:
            names = [("GEMM-NN" if i % 2 else "SYMM-LL") for i in range(12)]
            with ThreadPoolExecutor(max_workers=6) as pool:
                pendings = list(
                    pool.map(
                        lambda name: (name, service.submit(name, **workload[name])),
                        names,
                    )
                )
            for name, pending in pendings:
                response = pending.result(timeout=120)
                assert response.ok and response.source == "tuned"
                np.testing.assert_allclose(
                    response.output, expected[name], rtol=3e-3, atol=3e-3
                )
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.requests"] == 12
        assert counters["serve.batched_requests"] == 12
        # single dispatcher thread: every request went through exactly once
        assert counters["serve.launches"] <= 12

    def test_close_drains_queue(self):
        service = make_service().start()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=17)
        pendings = [service.submit("GEMM-NN", **inputs) for _ in range(3)]
        service.close()
        assert all(p.done() or p.result(timeout=1).ok for p in pendings)


class TestDeadlines:
    def test_deadline_expiry_falls_back_to_baseline(self):
        ticks = [0.0]
        service = make_service(clock=lambda: ticks[0])
        service.warm("GEMM-NN", 32)  # plan is hot: only the deadline bites
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=18)
        pending = service.submit("GEMM-NN", deadline_s=1.0, **inputs)
        ticks[0] = 5.0  # the budget expires while queued
        service.flush()
        response = pending.result()
        assert response.source == "fallback"
        assert response.fallback_reason == "deadline"
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.fallbacks"] == 1
        assert counters["serve.deadline_misses"] == 1
        # degraded, not wrong: the baseline still answers correctly
        np.testing.assert_allclose(
            response.output, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )

    def test_cold_plan_with_deadline_skips_tuning(self):
        service = make_service()
        inputs = random_inputs("TRMM-LL-N", {"M": 32, "N": 32}, seed=19)
        pending = service.submit("TRMM-LL-N", deadline_s=0.5, **inputs)
        service.flush()
        response = pending.result()
        assert response.source == "fallback"
        assert response.fallback_reason == "no-plan"
        assert service.telemetry.count("serve.tuned") == 0
        np.testing.assert_allclose(
            response.output, reference("TRMM-LL-N", inputs), rtol=3e-3, atol=3e-3
        )

    def test_deadline_with_disk_cached_plan_serves_tuned(self, tmp_path):
        # first service populates the PR 2 cache...
        make_service(tmp_path).warm("GEMM-NN", 32)
        # ...so a deadline-bound request on a fresh service can afford the
        # plan load (cache rebuild, no search) and still serve tuned.
        service = make_service(tmp_path)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=20)
        pending = service.submit("GEMM-NN", deadline_s=30.0, **inputs)
        service.flush()
        assert pending.result().source == "tuned"
        assert service.telemetry.count("search.units") == 0  # no search ran


class TestColdStart:
    def test_lazy_tuning_goes_through_disk_cache(self, tmp_path):
        first = make_service(tmp_path)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=21)
        first.run("GEMM-NN", **inputs)
        counters = first.telemetry.metrics.snapshot()
        assert counters["serve.tuned"] == 1
        assert counters["cache.routine.miss"] == 1
        assert counters["cache.routine.store"] == 1
        assert counters["search.units"] > 0

        second = make_service(tmp_path)
        got = second.run("GEMM-NN", **inputs)
        counters = second.telemetry.metrics.snapshot()
        assert counters["cache.routine.hit"] == 1
        assert counters.get("search.units", 0) == 0  # rebuilt, not re-searched
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )


class TestTelemetry:
    def test_spans_per_launch_and_request(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=22)
        for _ in range(2):
            service.submit("GEMM-NN", **inputs)
        service.flush()
        launches = service.telemetry.find("serve.launch")
        assert len(launches) == 1 and launches[0].tags["batch"] == 2
        requests = service.telemetry.find("serve.request")
        assert len(requests) == 2
        assert all(sp.tags["source"] == "tuned" for sp in requests)
        assert len(service.telemetry.find("serve.tune")) == 1

    def test_one_request_span_per_answer_on_every_path(self):
        # tuned, no-plan fallback and error answers all come from one
        # answer site: one serve.request span each, tagged with its source
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=24)
        service.submit("GEMM-NN", **inputs)
        symm = random_inputs("SYMM-LL", {"M": 32, "N": 32}, seed=25)
        service.submit("SYMM-LL", deadline_s=1e-6, **symm)  # cold: no-plan
        service.submit("GEMM-NN", A=inputs["A"])  # under-bound
        service.flush()
        requests = service.telemetry.find("serve.request")
        assert sorted(sp.tags["source"] for sp in requests) == [
            "error", "fallback", "tuned"
        ]
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.errors"] == counters["serve.fallbacks"] == 1

    def test_stats_snapshot(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=23)
        service.run("GEMM-NN", **inputs)
        stats = service.stats()
        assert stats["plans"] == 1
        assert stats["queue_depth"] == 0
        assert stats["peak_queue_depth"] == 1
        assert stats["counters"]["serve.requests"] == 1


#: calls whose operand shapes disagree on a dimension (K; M)
INCONSISTENT_CALLS = [
    ("GEMM-NN", {"A": (8, 16), "B": (20, 8)}),
    ("SYMM-LL", {"A": (12, 12), "B": (8, 8)}),
]


class TestErrors:
    @pytest.mark.parametrize("routine, shapes", INCONSISTENT_CALLS)
    def test_inconsistent_shapes_answer_error(self, routine, shapes):
        # Regression: the call was served "tuned" from operands cut to
        # the sizes one operand implied.
        service = make_service()
        arrays = {name: np.ones(shape, np.float32) for name, shape in shapes.items()}
        pending = service.submit(routine, **arrays)
        service.flush()
        response = pending.response()
        assert response.source == "error"
        assert "dimension" in response.error
        assert service.telemetry.count("serve.errors") == 1

    def test_bad_shapes_error_cleanly(self):
        service = make_service()
        service.warm("GEMM-NN", 32)
        pending = service.submit(
            "GEMM-NN",
            A=np.zeros((32, 32), np.float32),
            B=np.zeros((7, 5), np.float32),  # inconsistent with A
            C=np.zeros((32, 32), np.float32),
        )
        service.flush()
        assert service.telemetry.count("serve.errors") == 1
        with pytest.raises(ServeError):
            pending.result()
