"""Tests for cross-request packing and sub-16 dispatch buckets.

The second coalescing tier of PR 8: small same-routine GEMM calls with
*different* shapes ride one strided-batched (BGEMM) launch, and
services configured with ``min_bucket < 16`` give N ≤ 8 calls their own
plan instead of sharing the 16-class one.
"""

import dataclasses

import numpy as np

from repro.blas3 import random_inputs, reference
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.serve import BlasService, ServeOptions
from repro.serve.batching import MicroBatcher
from repro.serve.dispatch import MIN_BUCKET, size_bucket
from repro.serve.request import Request
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

SMALL_SPACE = ({"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},)


def _gemm(rid, m, n, k, routine="GEMM-NN", deadline=None):
    arrays = {
        "A": np.zeros((m, k), np.float32),
        "B": np.zeros((k, n), np.float32),
        "C": np.zeros((m, n), np.float32),
    }
    return dataclasses.replace(
        Request.call(routine, arrays, deadline_s=deadline), id=rid
    )


def make_service(**serve_kwargs):
    return BlasService(
        GTX_285,
        options=ServeOptions(**serve_kwargs),
        tuning=TuningOptions(space=SMALL_SPACE),
        telemetry=Telemetry(),
    )


class TestPackKey:
    def test_same_class_different_shapes_match(self):
        assert _gemm(1, 8, 12, 10).pack_key == _gemm(2, 12, 8, 8).pack_key

    def test_class_is_pow2_ceiling_of_largest_dim(self):
        assert _gemm(1, 5, 6, 7).pack_key[1] == 8
        assert _gemm(2, 9, 4, 4).pack_key[1] == 16

    def test_large_calls_do_not_pack(self):
        assert _gemm(1, 65, 8, 8).pack_key is None

    def test_non_gemm_does_not_pack(self):
        request = Request.call(
            "SYMM-LL",
            {
                "A": np.zeros((8, 8), np.float32),
                "B": np.zeros((8, 8), np.float32),
                "C": np.zeros((8, 8), np.float32),
            },
        )
        assert request.pack_key is None

    def test_deadline_presence_splits_classes(self):
        free = _gemm(1, 8, 8, 8)
        bound = _gemm(2, 8, 8, 8, deadline=1.0)
        assert free.pack_key != bound.pack_key


class TestPackTier:
    def test_riders_top_up_underfull_batch(self):
        batcher = MicroBatcher(max_batch=4, pack=True)
        batcher.append(_gemm(0, 8, 8, 8))
        batcher.append(_gemm(1, 8, 8, 8))
        batcher.append(_gemm(2, 6, 7, 8))  # same class, different shape
        batcher.append(_gemm(3, 32, 32, 32))  # different class stays queued
        assert [r.id for r in batcher.next_batch()] == [0, 1, 2]
        assert [r.id for r in batcher.next_batch()] == [3]

    def test_exact_group_outranks_riders(self):
        batcher = MicroBatcher(max_batch=2, pack=True)
        batcher.append(_gemm(0, 8, 8, 8))
        batcher.append(_gemm(1, 6, 6, 6))  # rider candidate
        batcher.append(_gemm(2, 8, 8, 8))  # exact-group member
        assert [r.id for r in batcher.next_batch()] == [0, 2]
        assert [r.id for r in batcher.next_batch()] == [1]

    def test_pack_off_keeps_exact_grouping(self):
        batcher = MicroBatcher(max_batch=4)
        batcher.append(_gemm(0, 8, 8, 8))
        batcher.append(_gemm(1, 6, 6, 6))
        assert [r.id for r in batcher.next_batch()] == [0]

    def test_matching_head_counts_riders(self):
        batcher = MicroBatcher(max_batch=8, pack=True)
        batcher.append(_gemm(0, 8, 8, 8))
        batcher.append(_gemm(1, 7, 7, 7))
        assert batcher.matching_head() == 2


class TestSizeBucket:
    def test_default_floor_unchanged(self):
        assert size_bucket({"M": 1, "N": 3}) == MIN_BUCKET

    def test_lower_floor_gives_sub16_buckets(self):
        assert size_bucket({"M": 3, "N": 2}, floor=4) == 4
        assert size_bucket({"M": 7, "N": 2}, floor=4) == 8
        assert size_bucket({"M": 9, "N": 2}, floor=4) == 16

    def test_batch_dim_excluded(self):
        assert size_bucket({"P": 512, "M": 8, "N": 8, "K": 8}, floor=8) == 8


class TestPackedService:
    def test_mixed_shapes_serve_from_one_batched_launch(self):
        service = make_service(pack_requests=True, batch_window_s=0.0)
        # all four shapes share the 16 pack class (largest dim in 9..16)
        shapes = [(9, 12, 10), (12, 9, 9), (16, 9, 9), (10, 16, 12)]
        pendings, wants = [], []
        for i, (m, n, k) in enumerate(shapes):
            inputs = random_inputs("GEMM-NN", {"M": m, "N": n, "K": k}, seed=i)
            wants.append(reference("GEMM-NN", inputs, alpha=2.0, beta=0.5))
            pendings.append(
                service.submit("GEMM-NN", alpha=2.0, beta=0.5, **inputs)
            )
        service.flush()
        for pending, want in zip(pendings, wants):
            response = pending.result()
            assert response.ok and response.batch_size == len(shapes)
            np.testing.assert_allclose(response.output, want, rtol=3e-3, atol=3e-3)
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.packed_launches"] == 1
        assert counters["serve.packed"] == len(shapes)
        assert counters["serve.pack_waste"] > 0

    def test_packing_off_by_default(self):
        service = make_service()
        assert service._batcher.pack is False

    def test_expired_member_falls_back_and_the_rest_pack(self):
        ticks = [0.0]
        service = BlasService(
            GTX_285,
            options=ServeOptions(pack_requests=True),
            tuning=TuningOptions(space=SMALL_SPACE),
            telemetry=Telemetry(),
            clock=lambda: ticks[0],
        )
        service.warm("BGEMM-NN", 16)  # deadline-bound probes hit the table
        shapes = [(9, 12, 10), (12, 9, 9), (16, 9, 9), (10, 16, 12)]
        cases = []
        for i, (m, n, k) in enumerate(shapes):
            ticks[0] = 0.0 if i == 0 else 10.0  # only the head's budget runs out
            inputs = random_inputs("GEMM-NN", {"M": m, "N": n, "K": k}, seed=i)
            want = reference("GEMM-NN", inputs, alpha=2.0, beta=0.5)
            pending = service.submit(
                "GEMM-NN", alpha=2.0, beta=0.5, deadline_s=1.0, **inputs
            )
            cases.append((pending, want))
        ticks[0] = 10.5
        service.flush()
        responses = [pending.result() for pending, _want in cases]
        assert responses[0].source == "fallback"
        assert responses[0].fallback_reason == "deadline"
        assert [r.source for r in responses[1:]] == ["tuned"] * 3
        assert all(r.batch_size == len(shapes) for r in responses)
        for response, (_pending, want) in zip(responses, cases):
            np.testing.assert_allclose(response.output, want, rtol=3e-3, atol=3e-3)
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.packed"] == len(shapes) - 1
        assert counters["serve.deadline_misses"] == 1
        assert counters["serve.fallbacks"] == 1

    def test_failing_packed_launch_answers_every_member_once(self, monkeypatch):
        service = make_service(pack_requests=True)
        plan = service.warm("BGEMM-NN", 16)

        def fault(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(plan.tuned, "_execute", fault)
        answered = []
        fulfill = service._fulfill

        def counting(response):
            answered.append(response.request_id)
            fulfill(response)

        monkeypatch.setattr(service, "_fulfill", counting)
        shapes = [(9, 12, 10), (12, 9, 9), (16, 9, 9), (10, 16, 12)]
        pendings = [
            service.submit(
                "GEMM-NN",
                **random_inputs("GEMM-NN", {"M": m, "N": n, "K": k}, seed=i),
            )
            for i, (m, n, k) in enumerate(shapes)
        ]
        with service:  # queued before start: one batch, one packed launch
            for pending in pendings:
                response = pending.response(timeout=60)
                assert response.source == "error"
                assert "injected kernel fault" in response.error
            # the dispatcher survived the fault: a lone call still serves
            inputs = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=9)
            lone = service.submit("GEMM-NN", **inputs)
            assert lone.result(timeout=60).source == "tuned"
        assert sorted(answered) == sorted(p.request_id for p in pendings + [lone])
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.errors"] == len(shapes)
        assert counters.get("serve.packed") is None

    def test_pack_decline_splits_heterogeneous_batch(self, monkeypatch):
        # If the packed attempt declines (e.g. no BGEMM plan resolves),
        # a batch holding pack-tier riders must split back into exact
        # shape groups — a rider must never be served against the
        # head's differently-shaped plan.
        service = make_service(pack_requests=True)
        monkeypatch.setattr(service, "_try_packed", lambda *a, **k: False)
        cases = []
        for i, (m, n, k) in enumerate([(9, 12, 10), (12, 9, 9)]):
            inputs = random_inputs("GEMM-NN", {"M": m, "N": n, "K": k}, seed=i)
            want = reference("GEMM-NN", inputs)
            cases.append((service.submit("GEMM-NN", **inputs), want))
        service.flush()
        for pending, want in cases:
            response = pending.result()
            assert response.ok and response.batch_size == 1
            np.testing.assert_allclose(response.output, want, rtol=3e-3, atol=3e-3)
        assert service.telemetry.metrics.snapshot().get("serve.packed") is None


class TestPackedCallContract:
    """The packed launch answers exactly what the inline path answers."""

    @staticmethod
    def _serve(calls, inline, **serve_kwargs):
        """Submit every ``(routine, alpha, beta, inputs)`` call, one flush
        per call when ``inline`` (no coalescing), else one flush for all."""
        service = make_service(**serve_kwargs)
        pendings = []
        for routine, alpha, beta, inputs in calls:
            pendings.append(service.submit(routine, alpha=alpha, beta=beta, **inputs))
            if inline:
                service.flush()
        service.flush()
        return service, [pending.result() for pending in pendings]

    def test_beta_zero_never_reads_c(self):
        # Regression: with beta=0 the inline path computed beta * C and
        # answered NaN for an all-NaN C, while the packed burst skipped
        # C and answered finite values.  Reference BLAS does not read C
        # when beta is 0.
        calls = []
        for i, n in enumerate((12, 12, 10, 14)):
            inputs = random_inputs("GEMM-NN", {"M": n, "N": n, "K": n}, seed=60 + i)
            inputs["C"] = np.full((n, n), np.nan, np.float32)
            calls.append(("GEMM-NN", 1.5, 0.0, inputs))
        _service, inline = self._serve(calls, inline=True)
        service, packed = self._serve(calls, inline=False, pack_requests=True, max_batch=8)
        assert service.telemetry.count("serve.packed") == len(calls)
        for (routine, alpha, beta, inputs), one, burst in zip(calls, inline, packed):
            assert one.source == burst.source == "tuned"
            assert np.array_equal(one.output, burst.output)
            assert np.all(np.isfinite(burst.output))
            want = reference(routine, inputs, alpha=alpha, beta=beta)
            np.testing.assert_allclose(burst.output, want, rtol=3e-3, atol=3e-3)

    def test_packed_burst_is_bit_identical_to_inline(self):
        # every (alpha, beta) pair of {0.5, 1, 2} x {0, 1, -0.5}, over all
        # four transposes and mixed shapes in the 16 pack class
        rng = np.random.default_rng(7)
        calls = []
        for i in range(12):
            routine = "GEMM-" + ("NN", "NT", "TN", "TT")[i % 4]
            m, n, k = (int(d) for d in rng.integers(9, 17, size=3))
            inputs = random_inputs(routine, {"M": m, "N": n, "K": k}, seed=70 + i)
            calls.append((routine, (0.5, 1.0, 2.0)[i % 3], (0.0, 1.0, -0.5)[i // 4 % 3], inputs))
        _service, inline = self._serve(calls, inline=True)
        service, packed = self._serve(calls, inline=False, pack_requests=True, max_batch=8)
        assert service.telemetry.count("serve.packed") > 0
        for one, burst in zip(inline, packed):
            assert one.ok and burst.ok
            assert np.array_equal(one.output, burst.output)


    def test_identical_dags_decline_packing(self):
        # Regression: two identical multi-node DAG requests share a group
        # key, so the packed attempt sees a batch whose routine is
        # "dag:<fingerprint>".  It must decline, not raise: a raise
        # escaped flush() and left both requests unanswered.
        dag = Dag(chain(("GEMM-NN", {"A": "A", "B": "B"}), ("TRSM-LL-N", {"A": "L"})))
        rng = np.random.default_rng(3)
        n = 16
        arrays = {
            "A": rng.standard_normal((n, n)).astype(np.float32),
            "B": rng.standard_normal((n, n)).astype(np.float32),
            "L": (np.tril(rng.standard_normal((n, n))) + n * np.eye(n)).astype(
                np.float32
            ),
        }
        service = make_service(pack_requests=True, max_batch=8)
        pendings = [service.submit_dag(dag, **arrays) for _ in range(2)]
        service.flush()
        want = dag.reference(arrays)
        for pending in pendings:
            response = pending.result(timeout=60)
            assert response.ok and response.batch_size == 2
            np.testing.assert_allclose(response.output, want, rtol=1e-4, atol=1e-4)
        assert service.telemetry.count("serve.packed") == 0


class TestSub16Buckets:
    def test_sub16_call_gets_its_own_plan(self):
        service = make_service(min_bucket=4)
        inputs = random_inputs("GEMM-NN", {"M": 8, "N": 8, "K": 8}, seed=11)
        got = service.run("GEMM-NN", alpha=1.5, beta=0.5, **inputs)
        want = reference("GEMM-NN", inputs, alpha=1.5, beta=0.5)
        np.testing.assert_allclose(got, want, rtol=3e-3, atol=3e-3)
        plan = service.table.peek(("GEMM-NN", GTX_285.name, 8))
        assert plan is not None
        config = plan.tuned.config
        assert config["BM"] <= 8 or config["BN"] <= 8 or config["KT"] <= 8

    def test_default_floor_shares_the_16_class(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", {"M": 8, "N": 8, "K": 8}, seed=12)
        service.run("GEMM-NN", **inputs)
        assert service.table.peek(("GEMM-NN", GTX_285.name, 16)) is not None
        assert service.table.peek(("GEMM-NN", GTX_285.name, 8)) is None
