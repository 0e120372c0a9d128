"""Regression tests for the serve-layer batch/concurrency bug class.

Each test here pins one of the PR 7 bugfixes — written to fail on the
pre-fix code:

* batch members inheriting the head's deadline decision (group_key
  excluded deadline presence; expiry checked on the pre-tune clock);
* ``DispatchTable`` LRU mutated without a lock (dispatcher thread vs
  ``warm()`` callers);
* the micro-batch window re-arming a full ``batch_window_s`` after a
  late wakeup (~2× overshoot);
* the multi-device path dropping explicit ``sizes``.

And the PR 8 batch (same discipline — each fails pre-fix):

* ``as_completed`` raising ``TimeoutError`` on expiry without draining
  results that already landed;
* a raising ``add_done_callback`` callback propagating out of
  ``PendingResult.fulfill`` on the dispatcher thread (and swallowing
  its sibling callbacks);
* the per-bucket generator/backend maps mutated without a lock
  (dispatcher vs ``flush()``/``warm()`` callers double-constructing);
* background-promoted plans parked until a hit of the *predicted*
  resident — leaked forever if that plan was LRU-evicted first.

And two multi-device bugs (each fails pre-fix):

* the multi-device backend re-tuning the routine instead of running
  the resolved plan's (a predicted plan ran a full search on the
  dispatcher thread and was then bypassed);
* ``devices`` below 1 silently served as one GPU.
"""

import sys
import threading

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.serve import DispatchTable, Plan, ServeOptions, as_completed
from repro.serve.request import PendingResult, Request, Response
from repro.telemetry import Telemetry

from .test_predicted_plans import make_service as make_predicted_service
from .test_predicted_plans import model_dir
from .test_service import GEMM_SIZES, make_service


class TestDeadlineBatchIsolation:
    """Bug 1: ``group_key`` excluded ``deadline_s`` presence, so one
    head's servability decision applied to every batch member."""

    def test_deadline_head_does_not_degrade_deadline_free_mates(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=31)
        # Cold plan, no disk cache: the deadline-bound request cannot
        # afford the tune, but its deadline-free mate explicitly can.
        bound = service.submit("GEMM-NN", deadline_s=60.0, **inputs)
        free = service.submit("GEMM-NN", **inputs)
        service.flush()
        assert bound.result().source == "fallback"
        assert bound.result().fallback_reason == "no-plan"
        # Pre-fix: coalesced behind the deadline-bound head -> "fallback".
        assert free.result().source == "tuned"

    def test_deadline_free_head_does_not_force_mates_through_cold_tune(self):
        # Real clock: the head's cold tune takes orders of magnitude
        # longer than the mate's 1 ms budget.
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=32)
        free = service.submit("GEMM-NN", **inputs)
        bound = service.submit("GEMM-NN", deadline_s=0.001, **inputs)
        service.flush()
        assert free.result().source == "tuned"
        # Pre-fix: the mate rode the head's batch and expiry was judged
        # on the pre-tune clock reading, so it was answered "tuned"
        # long after its budget was spent.
        response = bound.result()
        assert response.source == "fallback"
        assert response.fallback_reason in ("deadline", "no-plan")

    def test_expiry_rechecked_after_plan_resolution(self, tmp_path):
        # Populate the disk cache so a deadline-bound request takes the
        # plan-rebuild path (has_cached -> generate()).
        make_service(tmp_path).warm("GEMM-NN", 32)
        ticks = [0.0]
        service = make_service(tmp_path, clock=lambda: ticks[0])
        resolve = service._resolve_plan

        def slow_resolve(request):
            plan, reason = resolve(request)
            ticks[0] += 10.0  # the rebuild consumed the whole budget
            return plan, reason

        service._resolve_plan = slow_resolve
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=33)
        pending = service.submit("GEMM-NN", deadline_s=1.0, **inputs)
        service.flush()
        response = pending.result()
        # Pre-fix: expired() used the pre-resolution clock reading, so
        # the request was served "tuned" 9 seconds past its deadline.
        assert response.source == "fallback"
        assert response.fallback_reason == "deadline"
        assert service.telemetry.count("serve.deadline_misses") == 1
        np.testing.assert_allclose(
            response.output, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )


class _DummyTuned:
    """Stands in for a TunedRoutine in pure table-structure tests."""


class TestDispatchTableLocking:
    """Bug 2: lookup's get+move_to_end and insert's put+evict raced."""

    def test_lookup_is_atomic_against_an_evicting_insert(self):
        """Deterministic interleave: another thread's insert evicts the
        key between lookup's ``get`` and its ``move_to_end``.  With the
        table lock the insert must wait; without it (pre-fix) the
        lookup dies with a KeyError."""
        from collections import OrderedDict

        table = DispatchTable(capacity=1, telemetry=Telemetry())
        key_a = ("GEMM-NN", "arch", 16)
        plan_a = Plan(key_a, _DummyTuned())
        table.insert(plan_a)
        evictor = threading.Thread(
            target=lambda: table.insert(Plan(("GEMM-NN", "arch", 32), _DummyTuned()))
        )

        class InterleavedDict(OrderedDict):
            fired = False

            def get(self, key, default=None):
                value = super().get(key, default)
                if value is not None and not InterleavedDict.fired:
                    InterleavedDict.fired = True
                    evictor.start()
                    evictor.join(timeout=0.25)  # blocks on the table lock
                return value

        table._plans = InterleavedDict(table._plans)
        got = table.lookup(key_a)  # pre-fix: KeyError in move_to_end
        assert got is plan_a
        evictor.join()
        assert len(table) == 1

    def test_concurrent_lookup_insert_churn(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            table = DispatchTable(capacity=1, telemetry=Telemetry())
            errors = []

            def churn(key):
                plan = Plan(key, _DummyTuned())
                try:
                    for _ in range(3000):
                        table.insert(plan)
                        table.lookup(plan.key)
                except Exception as exc:  # pre-fix: KeyError in move_to_end
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(("GEMM-NN", "arch", 1 << b),))
                for b in range(4, 8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            assert len(table) <= table.capacity
        finally:
            sys.setswitchinterval(interval)

    def test_warm_hammering_a_running_dispatcher(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # capacity 1 forces constant evict/insert churn between the
            # dispatcher thread and the warm() callers; the per-bucket
            # generators memoize, so re-tunes are instant.
            service = make_service(hot_plans=1, batch_window_s=0.0)
            small = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=34)
            large = random_inputs("GEMM-NN", {"M": 32, "N": 32, "K": 32}, seed=35)
            service.warm("GEMM-NN", 16)
            service.warm("GEMM-NN", 32)
            errors = []

            def hammer(n):
                try:
                    for _ in range(200):
                        service.warm("GEMM-NN", n)
                except Exception as exc:
                    errors.append(exc)

            with service:
                threads = [
                    threading.Thread(target=hammer, args=(n,)) for n in (16, 32)
                ]
                for t in threads:
                    t.start()
                pendings = [
                    service.submit("GEMM-NN", **(small if i % 2 else large))
                    for i in range(40)
                ]
                for t in threads:
                    t.join()
                for pending in pendings:
                    assert pending.result(timeout=60).ok
            assert not errors, errors
        finally:
            sys.setswitchinterval(interval)


class _LateWakeupCond:
    """Condition stub: the first wait is a late (mid-window) wakeup, every
    later wait runs its full timeout — all in fake-clock time."""

    def __init__(self, ticks):
        self.ticks = ticks
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append(timeout)
        self.ticks[0] += timeout / 2 if len(self.waits) == 1 else timeout

    def notify_all(self):
        pass


class TestBatchWindow:
    """Bug 3: a wakeup inside the window re-armed a *full* window."""

    def test_window_never_overshoots(self):
        ticks = [0.0]
        window = 0.010
        service = make_service(
            clock=lambda: ticks[0], batch_window_s=window, max_batch=4
        )
        cond = _LateWakeupCond(ticks)
        service._cond = cond
        service._running = True
        service._batcher.append(
            Request(id=1, routine="GEMM-NN", arrays={}, sizes=GEMM_SIZES)
        )
        service._await_company(ticks[0] + window)
        # Pre-fix: the late wakeup at window/2 re-armed a full window,
        # holding the head for 1.5x batch_window_s.
        assert ticks[0] <= window * 1.001
        assert len(cond.waits) == 2
        assert abs(cond.waits[1] - window / 2) < 1e-9  # remaining, not full


class TestMultiDeviceSizes:
    """Bug 4: ``_run_tuned`` dropped explicit ``sizes`` on the
    multi-device path, re-inferring the problem from padded buffers."""

    @staticmethod
    def _padded(inputs, logical, buffer_n=32):
        out = {}
        for name, arr in inputs.items():
            buf = np.zeros((buffer_n, buffer_n), np.float32)
            buf[:logical, :logical] = arr
            out[name] = buf
        return out

    def test_explicit_sizes_agree_across_device_counts(self):
        logical = 24
        sizes = {"M": logical, "N": logical, "K": logical}
        inputs = random_inputs("GEMM-NN", sizes, seed=36)
        single = make_service(devices=1)
        multi = make_service(devices=2)
        got1 = single.run("GEMM-NN", sizes=sizes, **self._padded(inputs, logical))
        got2 = multi.run("GEMM-NN", sizes=sizes, **self._padded(inputs, logical))
        # Pre-fix: devices=2 ignored sizes and computed the padded 32x32
        # problem while devices=1 answered the logical 24x24 one.
        assert got2.shape == got1.shape == (logical, logical)
        np.testing.assert_allclose(got2, got1, rtol=3e-3, atol=3e-3)
        np.testing.assert_allclose(
            got1, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )


class TestMultiDeviceServesResolvedPlan:
    """The multi-device backend executed ``generator.generate(name)``,
    ignoring ``plan.tuned``: a predicted plan triggered a full search on
    the dispatcher thread and was then served by the fresh winner."""

    def test_predicted_plan_runs_on_each_panel(self, tmp_path):
        service = make_predicted_service(
            model_dir(tmp_path), background_promotion=False, devices=2
        )
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=37)
        pending = service.submit("GEMM-NN", deadline_s=30.0, alpha=1.5, **inputs)
        service.flush()
        response = pending.result()
        assert response.source == "tuned"
        assert service.telemetry.count("serve.predicted_plans") == 1
        # Pre-fix: one search span, run on the dispatcher thread.
        assert service.telemetry.find("search") == []
        assert service.telemetry.count("serve.tuned") == 0
        (plan,) = service.table._plans.values()
        assert plan.predicted
        # the predicted routine on each column panel of the 1D split
        half = GEMM_SIZES["N"] // 2
        panels = [
            plan.tuned._execute(
                {
                    "A": inputs["A"],
                    "B": np.ascontiguousarray(inputs["B"][:, lo:lo + half]),
                    "C": np.ascontiguousarray(inputs["C"][:, lo:lo + half]),
                },
                sizes={**GEMM_SIZES, "N": half},
                alpha=1.5,
                beta=1.0,
            )
            for lo in (0, half)
        ]
        assert np.array_equal(response.output, np.concatenate(panels, axis=1))


class TestDeviceCountValidated:
    """``devices`` below 1 was served as one GPU instead of rejected."""

    @pytest.mark.parametrize("devices", [0, -2])
    def test_direct_construction_rejects(self, devices):
        with pytest.raises(ValueError, match=str(devices)):
            ServeOptions(devices=devices)

    @pytest.mark.parametrize("devices", [0, -2])
    def test_from_args_rejects(self, devices):
        import argparse

        with pytest.raises(ValueError, match=str(devices)):
            ServeOptions.from_args(argparse.Namespace(devices=devices))

    def test_one_device_and_more_accepted(self):
        assert ServeOptions(devices=1).devices == 1
        assert ServeOptions(devices=4).devices == 4


class TestAsCompletedDrain:
    """PR 8 bug 1: ``as_completed`` raised ``TimeoutError`` the moment the
    budget read non-positive, abandoning responses that had already
    landed in the ready queue."""

    def _done(self, request_id):
        pending = PendingResult(request_id)
        pending.fulfill(Response(request_id=request_id, routine="GEMM-NN"))
        return pending

    def test_landed_results_drain_after_expiry(self):
        pendings = [self._done(i) for i in range(3)]
        # timeout=0: the budget is spent before the first wait, but all
        # three responses are already sitting in the ready queue.
        got = list(as_completed(pendings, timeout=0))
        # Pre-fix: TimeoutError("3 result(s) still pending") despite
        # nothing being pending at all.
        assert {p.request_id for p in got} == {0, 1, 2}

    def test_expiry_with_genuinely_pending_results_still_raises(self):
        results = iter(as_completed([self._done(1), PendingResult(2)], timeout=0.02))
        assert next(results).request_id == 1
        with pytest.raises(TimeoutError, match="1 result"):
            next(results)


class TestCallbackIsolation:
    """PR 8 bug 2: one raising done-callback propagated out of
    ``fulfill`` on the dispatcher thread and starved its siblings."""

    def test_raising_callback_does_not_escape_or_starve_siblings(self):
        telemetry = Telemetry()
        pending = PendingResult(7, telemetry=telemetry)
        seen = []

        def bad(_pending):
            raise RuntimeError("subscriber bug")

        pending.add_done_callback(bad)
        pending.add_done_callback(lambda p: seen.append(p.request_id))
        # Pre-fix: fulfill re-raises the subscriber's RuntimeError (on
        # the real service this runs on — and kills — the dispatcher
        # thread) and the second callback never fires.
        pending.fulfill(Response(request_id=7, routine="GEMM-NN"))
        assert seen == [7]
        assert telemetry.count("serve.callback_errors") == 1

    def test_dispatcher_survives_a_raising_callback(self):
        service = make_service()
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=37)
        with service:
            first = service.submit("GEMM-NN", **inputs)
            first.add_done_callback(lambda p: (_ for _ in ()).throw(ValueError))
            first.result(timeout=60)
            # the dispatcher thread must still be alive to serve this
            second = service.submit("GEMM-NN", **inputs)
            assert second.result(timeout=60).ok
        assert service.telemetry.count("serve.callback_errors") == 1


class TestGeneratorMapLocking:
    """PR 8 bug 3: ``_generator_for``/``_backend_for`` mutated their
    get-or-create maps unlocked across dispatcher/flush()/warm()."""

    def test_generator_get_or_create_is_atomic(self):
        """Deterministic interleave: another thread races the map probe.
        With the lock it must receive the SAME generator instance; the
        pre-fix code double-constructs (losing one generator's memoized
        tuning state) and the two callers disagree."""
        service = make_service()
        racing = []
        racer = threading.Thread(
            target=lambda: racing.append(service._generator_for(32))
        )

        class InterleavedDict(dict):
            fired = False

            def get(self, key, default=None):
                value = super().get(key, default)
                if value is None and not InterleavedDict.fired:
                    InterleavedDict.fired = True
                    racer.start()
                    racer.join(timeout=0.25)  # with the fix: blocks on _gen_lock
                return value

        service._generators = InterleavedDict()
        mine = service._generator_for(32)
        racer.join()
        assert racing[0] is mine

    def test_concurrent_warm_and_flush_share_generators(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service = make_service()
            errors = []

            def hammer(n):
                try:
                    for _ in range(50):
                        service._generator_for(n)
                        service._backend_for(n)
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(n,))
                for n in (16, 32, 64, 16, 32, 64)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            # one generator per probed bucket, never a double-construct
            assert sorted(service._generators) == [16, 32, 64]
        finally:
            sys.setswitchinterval(interval)


class TestPromotionLeak:
    """PR 8 bug 4: the background-tuned plan was parked until a later
    hit of the *predicted* resident consumed it — if the predicted plan
    was LRU-evicted first, the tuned plan leaked and never served."""

    def test_background_tune_lands_even_if_prediction_evicted(self, tmp_path):
        # capacity-1 table: the next tuned routine evicts the prediction
        service = make_predicted_service(model_dir(tmp_path), hot_plans=1)
        inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=41)
        first = service.submit("GEMM-NN", deadline_s=30.0, **inputs)
        service.flush()
        assert first.result().source == "tuned"
        assert service.telemetry.count("serve.predicted_plans") == 1
        # evict the predicted GEMM plan out of the capacity-1 LRU
        service.run("SYMM-LL", **random_inputs("SYMM-LL", GEMM_SIZES, seed=42))
        service.join_background(timeout=120)
        counters = service.telemetry.metrics.snapshot()
        assert counters["serve.background_tuned"] == 1
        # Pre-fix: the tuned plan sat in the promotion side-table keyed
        # to a plan that no longer exists — promoted stayed 0 forever.
        assert counters["serve.plan.promoted"] == 1
