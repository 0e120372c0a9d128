"""Traffic synthesis and virtual-time replay (the scaling benchmark's engine)."""

from collections import Counter

import pytest

from repro.blas3.routines import get_spec
from repro.serve import ShardedBlasService
from repro.serve.traffic import (
    ReplayReport,
    ServiceModel,
    TrafficEvent,
    TrafficProfile,
    replay,
    synthesize_trace,
)
from repro.telemetry import Telemetry

PROFILE = TrafficProfile(rate_qps=1500.0, duration_s=0.5, seed=3)


class TestSynthesize:
    def test_trace_is_seeded_and_ordered(self):
        trace = synthesize_trace(PROFILE)
        again = synthesize_trace(PROFILE)
        assert trace == again
        assert trace != synthesize_trace(TrafficProfile(seed=4))
        assert all(a.at < b.at for a, b in zip(trace, trace[1:]))
        assert trace[-1].at < PROFILE.duration_s

    def test_arrival_rate_matches_the_profile(self):
        trace = synthesize_trace(PROFILE)
        offered = len(trace) / PROFILE.duration_s
        assert offered == pytest.approx(PROFILE.rate_qps, rel=0.15)

    def test_size_mix_is_heavy_tailed(self):
        trace = synthesize_trace(PROFILE)
        sizes = [event.n for event in trace]
        smallest, largest = min(PROFILE.size_classes), max(PROFILE.size_classes)
        assert sizes.count(smallest) > 5 * sizes.count(largest)
        assert sizes.count(largest) > 0  # but the tail does occur
        assert set(sizes) <= set(PROFILE.size_classes)

    def test_routine_and_deadline_mix(self):
        trace = synthesize_trace(PROFILE)
        assert {event.routine for event in trace} == set(PROFILE.routines)
        with_deadline = sum(event.deadline_s is not None for event in trace)
        assert with_deadline / len(trace) == pytest.approx(
            PROFILE.deadline_fraction, abs=0.1
        )


class TestReplay:
    def test_deterministic(self):
        trace = synthesize_trace(PROFILE)
        first = replay(trace, shards=2, shed_high_water=8)
        second = replay(trace, shards=2, shed_high_water=8)
        assert first.to_record() == second.to_record()

    def test_every_admitted_request_completes(self):
        trace = synthesize_trace(PROFILE)
        report = replay(trace, shards=2)
        assert report.shed == 0
        assert report.completed == report.offered == len(trace)
        assert sum(report.per_shard_completed) == report.completed

    def test_each_key_tunes_once_on_its_owner(self):
        trace = synthesize_trace(PROFILE)
        telemetry = Telemetry()
        report = replay(trace, shards=4, telemetry=telemetry)
        deadline_free_keys = {
            (e.routine, e.n) for e in trace if e.deadline_s is None
        }
        # one tune per distinct deadline-free key, independent of volume
        assert report.tunes <= len(deadline_free_keys)
        assert telemetry.count("serve.tuned") == report.tunes
        assert telemetry.count("serve.plan.miss") >= report.tunes

    def test_prewarmed_tier_never_tunes_or_degrades(self):
        trace = synthesize_trace(PROFILE)
        report = replay(trace, shards=2, prewarmed=True)
        assert report.tunes == 0
        assert report.fallbacks == 0

    def test_cold_deadline_arrivals_degrade_instead_of_tuning(self):
        trace = synthesize_trace(PROFILE)
        telemetry = Telemetry()
        report = replay(trace, shards=2, telemetry=telemetry)
        assert report.fallbacks > 0
        assert telemetry.count("serve.fallbacks") == report.fallbacks

    def test_more_shards_sustain_more_qps(self):
        trace = synthesize_trace(
            TrafficProfile(rate_qps=6000.0, duration_s=0.5, seed=5)
        )
        one = replay(trace, shards=1, prewarmed=True)
        four = replay(trace, shards=4, prewarmed=True)
        assert four.sustained_qps >= 2.0 * one.sustained_qps
        assert four.p99_ms < one.p99_ms

    def test_shedding_bounds_depth_and_tail_under_overload(self):
        trace = synthesize_trace(
            TrafficProfile(rate_qps=6000.0, duration_s=0.5, seed=5)
        )
        telemetry = Telemetry()
        open_door = replay(trace, shards=1, prewarmed=True)
        shedding = replay(
            trace, shards=1, prewarmed=True, shed_high_water=8,
            telemetry=telemetry,
        )
        assert open_door.shed == 0
        assert shedding.shed > 0
        assert telemetry.count("serve.shed") == shedding.shed
        assert shedding.max_queue_depth <= 8
        assert shedding.p99_ms < open_door.p99_ms / 5.0
        assert shedding.completed + shedding.shed == len(trace)

    def test_lru_pressure_causes_retunes(self):
        """A hot-plan table smaller than the working set evicts, and the
        evicted key pays the tune again on its next deadline-free hit."""
        trace = synthesize_trace(PROFILE)
        roomy = replay(trace, shards=1, hot_plans=64)
        tiny_t = Telemetry()
        tiny = replay(trace, shards=1, hot_plans=1, telemetry=tiny_t)
        assert tiny.tunes > roomy.tunes
        assert tiny_t.count("serve.plan.evict") > 0

    def test_service_model_durations(self):
        model = ServiceModel(tuned_gflops=100.0, fallback_gflops=50.0)
        assert model.kernel_time(512) == pytest.approx(2 * 512**3 / 100e9)
        assert model.kernel_time(512, fallback=True) == pytest.approx(
            2 * 512**3 / 50e9
        )

    def test_empty_trace(self):
        report = replay([], shards=2)
        assert isinstance(report, ReplayReport)
        assert report.completed == report.offered == 0
        assert report.p99_ms == 0.0

    def test_deadline_expired_in_the_queue_degrades_to_fallback(self):
        """A warm request whose budget runs out behind another is answered
        from the baseline, as the live tier answers it."""
        trace = [
            TrafficEvent(at=0.0, routine="GEMM-NN", n=512),
            TrafficEvent(at=0.0001, routine="GEMM-NN", n=512, deadline_s=0.001),
        ]
        model = ServiceModel()
        # the second waits ~1.1 ms behind the first's ~1.2 ms service time
        assert model.overhead_s + model.kernel_time(512) - 0.0001 > 0.001
        telemetry = Telemetry()
        report = replay(trace, shards=1, prewarmed=True, telemetry=telemetry)
        assert report.completed == 2
        assert report.tunes == 0
        assert report.fallbacks == 1
        assert telemetry.count("serve.deadline_misses") == 1
        assert telemetry.count("serve.fallbacks") == 1

    @pytest.mark.parametrize("prewarmed", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_requests_complete_on_the_shard_the_tier_routes_them_to(
        self, shards, prewarmed
    ):
        trace = synthesize_trace(PROFILE)
        report = replay(trace, shards=shards, prewarmed=prewarmed)
        tier = ShardedBlasService(shards=shards)
        routed = Counter(
            tier.route(e.routine, get_spec(e.routine).make_sizes(e.n))
            for e in trace
        )
        assert report.per_shard_completed == [routed[s] for s in range(shards)]

    def test_only_durations_are_modeled(self, monkeypatch):
        """No generator is built and no kernel runs: the tune and compute
        steps are the only substitutions."""
        import repro.composer.oracle
        import repro.gpu.simulator
        import repro.jit
        import repro.jit.registry
        import repro.tuner.chain
        from repro.tuner.library import LibraryGenerator

        def forbidden(*args, **kwargs):
            raise AssertionError("the replay must not tune or execute")

        monkeypatch.setattr(LibraryGenerator, "__init__", forbidden)
        for module in (repro.jit, repro.jit.registry):
            monkeypatch.setattr(module, "execute", forbidden)
        for module in (repro.gpu.simulator, repro.tuner.chain, repro.composer.oracle):
            monkeypatch.setattr(module, "jit_execute", forbidden)
        report = replay(synthesize_trace(PROFILE), shards=2)
        assert report.tunes > 0
        assert report.completed == report.offered
