"""The sharded serving tier: routing, admission, snapshots, rehydration."""

import threading

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.gpu import GTX_285
from repro.serve import (
    AdmissionController,
    ServeError,
    ServeOptions,
    ShardedBlasService,
    ShardRouter,
    as_completed,
)
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

from .test_service import GEMM_SIZES, INCONSISTENT_CALLS, SMALL_SPACE


def make_tier(shards, tmp_path=None, clock=None, **serve_kwargs):
    kwargs = {} if clock is None else {"clock": clock}
    return ShardedBlasService(
        GTX_285,
        shards,
        options=ServeOptions(**serve_kwargs),
        tuning=TuningOptions(
            space=SMALL_SPACE,
            cache_dir=None if tmp_path is None else tmp_path,
        ),
        telemetry=Telemetry(),
        **kwargs,
    )


ALL_KEYS = [
    (routine, 1 << b)
    for routine in ("GEMM-NN", "SYMM-LL", "TRSM-LL-N", "TRMM-LL-N")
    for b in range(4, 12)
]


class TestShardRouter:
    def test_route_is_deterministic_and_in_range(self):
        router = ShardRouter(4)
        for routine, bucket in ALL_KEYS:
            shard = router.route(routine, bucket)
            assert 0 <= shard < 4
            assert ShardRouter(4).route(routine, bucket) == shard

    def test_every_shard_owns_some_keys(self):
        owned = ShardRouter(4).ownership(ALL_KEYS)
        assert all(owned[shard] for shard in range(4))

    def test_growing_the_ring_moves_few_keys(self):
        """The consistent-hashing property: N -> N+1 shards remaps
        roughly 1/(N+1) of the key space, not all of it."""
        before = ShardRouter(4)
        after = ShardRouter(5)
        moved = sum(
            before.route(r, b) != after.route(r, b) for r, b in ALL_KEYS
        )
        assert 0 < moved < len(ALL_KEYS) // 2

    def test_moved_keys_only_move_to_the_new_shard(self):
        before = ShardRouter(4)
        after = ShardRouter(5)
        for routine, bucket in ALL_KEYS:
            if before.route(routine, bucket) != after.route(routine, bucket):
                assert after.route(routine, bucket) == 4

    def test_owner_predicate_partitions_the_key_space(self):
        router = ShardRouter(3)
        for routine, bucket in ALL_KEYS:
            key = (routine, "arch", bucket)
            owners = [s for s in range(3) if router.owner_predicate(s)(key)]
            assert len(owners) == 1
            assert owners[0] == router.route(routine, bucket)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, replicas=0)


class TestAdmissionController:
    def test_none_high_water_admits_everything(self):
        controller = AdmissionController(None, telemetry=Telemetry())
        assert all(controller.admit(depth) for depth in (0, 10, 10_000))
        assert controller.shed == 0
        assert controller.peak_depth == 10_000

    def test_sheds_at_and_above_high_water(self):
        telemetry = Telemetry()
        controller = AdmissionController(4, telemetry=telemetry)
        controller.counters += ("serve.shard.1.shed",)
        assert controller.admit(3)
        assert not controller.admit(4)
        assert not controller.admit(5)
        assert controller.shed == 2
        assert telemetry.count("serve.shed") == 2
        assert telemetry.count("serve.shard.1.shed") == 2

    def test_rejects_bad_high_water(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


class TestShardedService:
    def test_run_matches_reference_and_routes_to_owner(self):
        tier = make_tier(3)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=41)
        got = tier.run("GEMM-NN", alpha=2.0, beta=0.5, **inputs)
        want = reference("GEMM-NN", inputs, alpha=2.0, beta=0.5)
        np.testing.assert_allclose(got, want, rtol=3e-3, atol=3e-3)
        owner = tier.route("GEMM-NN", GEMM_SIZES)
        stats = tier.stats()
        assert stats["per_shard"][owner]["plans"] == 1
        assert sum(s["plans"] for s in stats["per_shard"]) == 1
        assert tier.telemetry.count(f"serve.shard.{owner}.routed") == 1

    def test_same_key_always_lands_on_one_shard(self):
        tier = make_tier(4)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=42)
        for _ in range(5):
            tier.run("GEMM-NN", **inputs)
        plans = [s["plans"] for s in tier.stats()["per_shard"]]
        assert sorted(plans) == [0, 0, 0, 1]  # tuned once, one owner
        assert tier.telemetry.count("serve.tuned") == 1

    def test_warm_targets_the_owner_shard(self):
        tier = make_tier(4)
        plan = tier.warm("GEMM-NN", 32)
        owner = tier.route("GEMM-NN", GEMM_SIZES)
        assert plan.key in tier.workers[owner].table

    def test_as_completed_across_started_shards(self):
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=43)
        small = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=44)
        with make_tier(2) as tier:
            pendings = [
                tier.submit("GEMM-NN", **(inputs if i % 2 else small))
                for i in range(8)
            ]
            done = list(as_completed(pendings, timeout=60))
        assert {p.request_id for p in done} == {p.request_id for p in pendings}
        assert all(p.result().source == "tuned" for p in done)

    def test_shedding_under_synthetic_overload(self):
        """A tier whose dispatchers never drain sheds at the high-water
        mark instead of queueing without bound."""
        tier = make_tier(1, shed_high_water=3)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=45)
        pendings = [tier.submit("GEMM-NN", **inputs) for _ in range(8)]
        shed = [p for p in pendings if p.done()]
        assert len(shed) == 5  # 3 admitted, the rest rejected at the door
        for pending in shed:
            with pytest.raises(ServeError, match="shed"):
                pending.result()
            assert pending.request_id < 0
        assert tier.telemetry.count("serve.shed") == 5
        assert tier.telemetry.count("serve.shard.0.shed") == 5
        assert tier.stats()["shed"] == 5
        tier.flush()
        assert all(p.result().ok for p in pendings if p not in shed)
        assert tier.queue_depths() == [0]

    def test_shed_response_carries_the_reason(self):
        tier = make_tier(1, shed_high_water=1)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=46)
        tier.submit("GEMM-NN", **inputs)
        shed = tier.submit("GEMM-NN", **inputs)
        assert shed.done()
        with pytest.raises(ServeError, match="queue depth 1 >= high-water 1"):
            shed.result()
        tier.flush()


    def test_unsizable_call_is_answered_by_its_owner(self):
        """An under-bound call (no ``B``) cannot be sized at the door.
        Like ``BlasService.submit``, the tier queues it — routed at the
        floor bucket — and the owner answers ``source="error"``."""
        tier = make_tier(2)
        a = np.zeros((8, 8), np.float32)
        pending = tier.submit("GEMM-NN", A=a)
        tier.flush()
        response = pending.response()
        assert response.source == "error"
        assert response.request_id > 0  # a worker's request, not a shed
        owner = tier.router.route("GEMM-NN", tier.options.min_bucket)
        assert tier.telemetry.count(f"serve.shard.{owner}.routed") == 1
        assert tier.telemetry.count("serve.errors") == 1


    @pytest.mark.parametrize("routine, shapes", INCONSISTENT_CALLS)
    def test_inconsistent_shapes_are_answered_by_their_owner(self, routine, shapes):
        """Operands that disagree on a dimension cannot be sized at the
        door either: routed at the floor bucket, answered ``error``."""
        tier = make_tier(2)
        arrays = {name: np.ones(shape, np.float32) for name, shape in shapes.items()}
        pending = tier.submit(routine, **arrays)
        tier.flush()
        response = pending.response()
        assert response.source == "error"
        assert response.request_id > 0
        owner = tier.router.route(routine, tier.options.min_bucket)
        assert tier.telemetry.count(f"serve.shard.{owner}.routed") == 1
        assert tier.telemetry.count("serve.errors") == 1


class TestSnapshotRehydration:
    def test_rehydrated_sub16_plan_lands_where_traffic_routes(self, tmp_path):
        """With ``min_bucket=4`` an N=8 call keys bucket 8.  Routing
        must bucket with the same floor as the workers, or the plan is
        rehydrated onto bucket 8's owner while traffic goes to bucket
        16's — and the restarted tier re-tunes."""
        sizes = {"M": 8, "N": 8, "K": 8}
        inputs = random_inputs("GEMM-NN", sizes, seed=50)
        tier = make_tier(2, tmp_path, min_bucket=4)
        tier.run("GEMM-NN", **inputs)
        assert tier.snapshot_plans("sub16") == 1

        fresh = make_tier(2, tmp_path, min_bucket=4)
        assert fresh.rehydrate_plans("sub16") == 1
        got = fresh.run("GEMM-NN", **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )
        owner = fresh.route("GEMM-NN", sizes)
        assert ("GEMM-NN", GTX_285.name, 8) in fresh.workers[owner].table
        assert fresh.telemetry.count("serve.tuned") == 0
        assert fresh.telemetry.count("serve.plan.hit") == 1
        assert fresh.telemetry.count("serve.plan.miss") == 0

    def test_roundtrip_into_a_resized_tier(self, tmp_path):
        tier = make_tier(2, tmp_path)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=47)
        small = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=48)
        tier.run("GEMM-NN", **inputs)
        tier.run("GEMM-NN", **small)
        assert tier.snapshot_plans("tier") == 2

        grown = make_tier(4, tmp_path)
        assert grown.rehydrate_plans("tier") == 2
        # every plan sits on its new owner shard, nowhere else
        for routine, n in (("GEMM-NN", 32), ("GEMM-NN", 16)):
            sizes = {"M": n, "N": n, "K": n}
            owner = grown.route(routine, sizes)
            key = (routine, GTX_285.name, n)
            assert key in grown.workers[owner].table
            for shard, worker in enumerate(grown.workers):
                if shard != owner:
                    assert key not in worker.table
        # serving from the rehydrated tier never re-tunes
        got = grown.run("GEMM-NN", **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )
        assert grown.telemetry.count("serve.tuned") == 0
        assert grown.telemetry.count("serve.rehydrated") == 2

    def test_rehydration_skips_predicted_and_resident_plans(self, tmp_path):
        service = make_tier(1, tmp_path).workers[0]
        service.warm("GEMM-NN", 32)
        predicted_key = ("GEMM-NN", GTX_285.name, 64)
        from repro.serve import Plan

        service.table.insert(Plan(predicted_key, object(), predicted=True))
        assert service.snapshot_plans("mix") == 1  # predicted excluded

        fresh = make_tier(1, tmp_path).workers[0]
        fresh.warm("GEMM-NN", 32)  # already resident (cache rebuild)
        hits_before = fresh.table.lookup(("GEMM-NN", GTX_285.name, 32)).hits
        assert fresh.rehydrate_plans("mix") == 0  # nothing new to load
        assert fresh.table.lookup(("GEMM-NN", GTX_285.name, 32)).hits == hits_before + 1

    def test_no_cache_dir_is_a_noop(self):
        tier = make_tier(2)
        tier.warm("GEMM-NN", 32)
        assert tier.snapshot_plans() == 0
        assert tier.rehydrate_plans() == 0

    def test_missing_snapshot_is_a_noop(self, tmp_path):
        tier = make_tier(2, tmp_path)
        assert tier.rehydrate_plans("never-stored") == 0

    def test_corrupt_entry_is_skipped_not_fatal(self, tmp_path):
        tier = make_tier(1, tmp_path)
        tier.warm("GEMM-NN", 32)
        cache = tier.workers[0]._snapshot_cache()
        records = tier.workers[0].plan_records()
        records.append({"routine": "GEMM-NN", "bucket": 64, "record": {}})
        cache.store_plan_snapshot(GTX_285, "dirty", records)

        fresh = make_tier(1, tmp_path)
        assert fresh.rehydrate_plans("dirty") == 1
        assert fresh.telemetry.count("serve.rehydrate_errors") == 1

    def test_concurrent_rehydrate_against_live_traffic(self, tmp_path):
        """Rehydration inserts race dispatcher lookups on the same
        table — the DispatchTable lock keeps both sides consistent."""
        seeded = make_tier(2, tmp_path)
        for n in (16, 32):
            seeded.warm("GEMM-NN", n)
        seeded.snapshot_plans("live")

        tier = make_tier(2, tmp_path)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=49)
        errors = []

        def rehydrate():
            try:
                for _ in range(20):
                    tier.rehydrate_plans("live")
            except Exception as exc:
                errors.append(exc)

        with tier:
            thread = threading.Thread(target=rehydrate)
            thread.start()
            pendings = [tier.submit("GEMM-NN", **inputs) for _ in range(20)]
            thread.join()
            for pending in pendings:
                assert pending.result(timeout=60).ok
        assert not errors, errors
