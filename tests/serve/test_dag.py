"""Tests for expression-DAG serving (``submit_dag`` on both tiers).

Small two-config spaces keep the chain tuning fast; the full-size fused
runs live in ``benchmarks/test_bench_fusion.py``.
"""

import numpy as np
import pytest

from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.serve import BlasService, ServeOptions, ShardedBlasService
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

SPACE = (
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
)
N = 32


def make_service(fuse=True, **serve_kwargs):
    return BlasService(
        GTX_285,
        options=ServeOptions(fuse_dags=fuse, **serve_kwargs),
        tuning=TuningOptions(tune_size=64, space=SPACE, jobs=1),
        telemetry=Telemetry(),
    )


def gemm_trsm_dag():
    return Dag(
        chain(
            ("GEMM-NN", {"A": "A", "B": "B"}),
            ("TRSM-LL-N", {"A": "L"}),
        )
    )


def make_inputs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((N, N)).astype(np.float32)
    b = rng.standard_normal((N, N)).astype(np.float32)
    low = (
        np.tril(rng.standard_normal((N, N))) + N * np.eye(N)
    ).astype(np.float32)
    return {"A": a, "B": b, "L": low}


class TestSubmitDag:
    def test_two_node_dag_served_tuned(self):
        service = make_service()
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        pending = service.submit_dag(dag, **arrays)
        service.flush()
        response = pending.result()
        assert response.source == "tuned"
        assert response.routine == dag.routine_key
        np.testing.assert_allclose(
            response.output, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )
        counters = service.stats()["counters"]
        assert counters["serve.dag.requests"] == 1
        assert counters["serve.dag.nodes"] == 2
        assert counters["serve.dag.tuned"] == 1
        assert counters["serve.dag.fused"] == 1

    def test_fuse_dags_off_serves_unfused(self):
        service = make_service(fuse=False)
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        out = service.run_dag(dag, **arrays)
        np.testing.assert_allclose(
            out, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )
        counters = service.stats()["counters"]
        assert counters["serve.dag.unfused"] == 1
        assert counters.get("serve.dag.fused", 0) == 0

    def test_fused_and_unfused_bit_identical(self):
        dag = gemm_trsm_dag()
        arrays = make_inputs(seed=5)
        fused = make_service(fuse=True).run_dag(dag, **arrays)
        unfused = make_service(fuse=False).run_dag(dag, **arrays)
        assert np.array_equal(fused, unfused)

    def test_expr_accepted_directly(self):
        service = make_service()
        arrays = make_inputs()
        out = service.run_dag(
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}),
                ("TRSM-LL-N", {"A": "L"}),
            ),
            **arrays,
        )
        np.testing.assert_allclose(
            out, gemm_trsm_dag().reference(arrays), rtol=1e-4, atol=1e-4
        )

    def test_identical_dag_shapes_microbatch(self):
        service = make_service()
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        first = service.submit_dag(dag, **arrays)
        second = service.submit_dag(dag, **arrays)
        launches = service.flush()
        assert launches == 1  # one coalesced launch, one chain tune
        assert first.result().batch_size == 2
        assert second.result().batch_size == 2
        counters = service.stats()["counters"]
        assert counters["serve.dag.tuned"] == 1
        assert counters["serve.launches"] == 1

    def test_plan_reused_across_requests(self):
        service = make_service()
        dag = gemm_trsm_dag()
        service.run_dag(dag, **make_inputs())
        service.run_dag(dag, **make_inputs(seed=3))
        counters = service.stats()["counters"]
        assert counters["serve.dag.tuned"] == 1  # second hit the table
        assert counters["serve.dag.fused"] == 2


class TestOneNodeDag:
    def test_delegates_to_submit(self):
        service = make_service()
        rng = np.random.default_rng(1)
        a = rng.standard_normal((N, N)).astype(np.float32)
        b = rng.standard_normal((N, N)).astype(np.float32)
        c = np.zeros((N, N), np.float32)
        via_dag = service.run_dag(
            Dag.single("GEMM-NN", beta=0.0), A=a, B=b, C=c
        )
        legacy = service.run("GEMM-NN", A=a, B=b, C=c, beta=0.0)
        assert np.array_equal(via_dag, legacy)
        counters = service.stats()["counters"]
        assert counters["serve.dag.single"] == 1
        assert counters["serve.requests"] == 2
        assert counters.get("serve.dag.requests", 0) == 0

    def test_legacy_submit_carries_no_dag(self):
        """A single call is sized from its arrays and carries no DAG."""
        service = make_service()
        pending = service.submit(
            "GEMM-NN",
            A=np.zeros((N, N), np.float32),
            B=np.zeros((N, N), np.float32),
            C=np.zeros((N, N), np.float32),
        )
        with service._lock:
            request = service._batcher.next_batch()[0]
        assert request.dag is None
        assert not request.chained
        assert request.sizes == {"M": N, "N": N, "K": N}
        service._execute_batch([request])
        assert pending.result().source == "tuned"


class TestDeadlines:
    def test_cold_deadline_dag_falls_back_to_reference(self):
        service = make_service()
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        pending = service.submit_dag(dag, deadline_s=1e-6, **arrays)
        service.flush()
        response = pending.response()
        assert response.source == "fallback"
        np.testing.assert_allclose(
            response.output, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )
        counters = service.stats()["counters"]
        assert counters["serve.fallbacks"] == 1
        assert counters.get("serve.dag.tuned", 0) == 0


class TestShardedDag:
    def test_dag_routes_and_serves(self):
        tier = ShardedBlasService(
            GTX_285,
            2,
            options=ServeOptions(fuse_dags=True),
            tuning=TuningOptions(tune_size=64, space=SPACE, jobs=1),
            telemetry=Telemetry(),
        )
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        out = tier.run_dag(dag, **arrays)
        np.testing.assert_allclose(
            out, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )
        counters = tier.stats()["counters"]
        assert counters["serve.shard.routed"] == 1
        assert counters["serve.dag.requests"] == 1

    def test_same_dag_shape_lands_on_one_shard(self):
        tier = ShardedBlasService(
            GTX_285,
            4,
            options=ServeOptions(fuse_dags=True),
            tuning=TuningOptions(tune_size=64, space=SPACE, jobs=1),
            telemetry=Telemetry(),
        )
        dag = gemm_trsm_dag()
        pendings = [
            tier.submit_dag(dag, **make_inputs(seed=s)) for s in range(4)
        ]
        tier.flush()
        for pending in pendings:
            assert pending.result().source == "tuned"
        counters = tier.stats()["counters"]
        assert counters["serve.dag.tuned"] == 1  # plan affinity: one tune
        owners = [
            shard
            for shard in range(4)
            if counters.get(f"serve.shard.{shard}.routed", 0)
        ]
        assert len(owners) == 1

    def test_dag_requests_shed_at_high_water(self):
        tier = ShardedBlasService(
            GTX_285,
            1,
            options=ServeOptions(fuse_dags=True, shed_high_water=1),
            tuning=TuningOptions(tune_size=64, space=SPACE, jobs=1),
            telemetry=Telemetry(),
        )
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        admitted = tier.submit_dag(dag, **arrays)
        shed = tier.submit_dag(dag, **arrays)
        assert shed.response().source == "shed"
        tier.flush()
        assert admitted.result().source == "tuned"


class TestOptionsFromArgs:
    def test_round_trip(self):
        import argparse

        namespace = argparse.Namespace(
            max_batch=4,
            window_ms=5.0,
            devices=2,
            deadline_ms=3.0,
            high_water=7,
            pack=True,
            min_bucket=8,
            fuse=True,
            shards=3,  # routed to ShardedBlasService, never an option
        )
        options = ServeOptions.from_args(namespace)
        assert options.max_batch == 4
        assert options.batch_window_s == pytest.approx(0.005)
        assert options.devices == 2
        assert options.default_deadline_s == pytest.approx(0.003)
        assert options.shed_high_water == 7
        assert options.pack_requests is True
        assert options.min_bucket == 8
        assert options.fuse_dags is True
        assert not hasattr(options, "shards")

    def test_missing_attributes_keep_defaults(self):
        import argparse

        assert ServeOptions.from_args(argparse.Namespace()) == ServeOptions()

    def test_none_valued_flags_keep_defaults(self):
        import argparse

        namespace = argparse.Namespace(
            window_ms=None, deadline_ms=None, min_bucket=None, high_water=None
        )
        options = ServeOptions.from_args(namespace)
        defaults = ServeOptions()
        assert options.batch_window_s == defaults.batch_window_s
        assert options.default_deadline_s is None
        assert options.min_bucket == defaults.min_bucket
