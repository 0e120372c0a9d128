"""The serve hot path: a warm plan runs its bound kernel and nothing else.

Once a plan has answered its first request, serving the same plan again
must not build an analytic profile (``SimulatedGPU.profile``), run the
static kernel analysis (``analyze_computation``) or re-fingerprint IR
(``computation_fingerprint``).  Every output must also be bit-identical
to the same request served with the JIT off (``jit.disabled()``), which
runs the interpreter instead of the bound kernel.
"""

import numpy as np
import pytest

from repro import jit
from repro.blas3 import random_inputs
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.gpu import simulator
from repro.gpu.simulator import SimulatedGPU
from repro.jit import registry
from repro.serve import BlasService, ServeOptions
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

# Two configurations: TRMM-LU-N's winner over them is the conditioned
# (padded) variant, so the fallback case below has a fallback to run.
SPACE = (
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
)


@pytest.fixture
def calls(monkeypatch):
    """Per-name call counts of the three layers the hot path must skip."""
    counts = {"profile": 0, "analyze": 0, "fingerprint": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SimulatedGPU, "profile", counting("profile", SimulatedGPU.profile)
    )
    monkeypatch.setattr(
        simulator,
        "analyze_computation",
        counting("analyze", simulator.analyze_computation),
    )
    monkeypatch.setattr(
        registry,
        "computation_fingerprint",
        counting("fingerprint", registry.computation_fingerprint),
    )
    return counts


def make_service(**serve_kwargs):
    return BlasService(
        GTX_285,
        options=ServeOptions(**serve_kwargs),
        tuning=TuningOptions(tune_size=64, space=SPACE, jobs=1),
        telemetry=Telemetry(),
    )


def serve_twice(service, calls, serve):
    """Warm with ``serve(seed=0)``, then count a hot ``serve(seed=1)``
    and return its output with the JIT-off output of the same call."""
    serve(0)
    for name in calls:
        calls[name] = 0
    hot = serve(1)
    assert calls == {"profile": 0, "analyze": 0, "fingerprint": 0}
    with jit.disabled():
        interpreted = serve(1)
    return hot, interpreted


def plan_of(service, routine):
    (plan,) = [p for p in service.table.plans() if p.key[0] == routine]
    return plan.tuned


class TestSingleRoutine:
    @pytest.mark.parametrize(
        "routine, n, exact",
        [
            ("GEMM-NN", 32, True),
            ("SYMM-LL", 20, False),
            ("TRMM-LL-N", 20, False),
            ("TRSM-LL-N", 32, True),
            ("TRSM-LL-N", 20, False),
        ],
    )
    def test_hot_request_runs_bound_kernel(self, calls, routine, n, exact):
        service = make_service()
        sizes = {"M": n, "N": n, "K": n}

        def serve(seed):
            inputs = random_inputs(routine, sizes, seed=seed)
            return service.run(routine, alpha=1.5, beta=0.5, **inputs)

        hot, interpreted = serve_twice(service, calls, serve)
        tuned = plan_of(service, routine)
        logical = {sym: n for sym in tuned.spec.dim_symbols}
        assert tuned._tile_divisible(logical) == exact
        assert np.array_equal(hot, interpreted)

    def test_conditioned_variant_fallback(self, calls):
        service = make_service()
        routine, n = "TRMM-LU-N", 16

        def serve(seed):
            inputs = random_inputs(routine, {"M": n, "N": n}, seed=seed)
            # a non-zero blank area (strictly below an upper triangle)
            dirt = np.random.default_rng(seed).standard_normal((n, n))
            inputs["A"] = inputs["A"] + np.tril(dirt, -1).astype(np.float32)
            return service.run(routine, **inputs)

        hot, interpreted = serve_twice(service, calls, serve)
        tuned = plan_of(service, routine)
        assert tuned.conditions and tuned.fallback is not None
        assert np.array_equal(hot, interpreted)


class TestPackedBurst:
    SHAPES = [(9, 12, 10), (12, 9, 9), (16, 9, 9), (10, 16, 12)]

    def burst(self, service, seed):
        pendings = []
        for i, (m, n, k) in enumerate(self.SHAPES):
            inputs = random_inputs(
                "GEMM-NN", {"M": m, "N": n, "K": k}, seed=seed * 10 + i
            )
            pendings.append(service.submit("GEMM-NN", alpha=2.0, beta=0.5, **inputs))
        return pendings

    def test_dispatcher_thread_burst(self, calls):
        # The dispatcher leaves its window as soon as the batch is full,
        # so each burst of four is one packed launch.
        service = make_service(
            pack_requests=True, max_batch=len(self.SHAPES), batch_window_s=5.0
        ).start()
        try:

            def serve(seed):
                pendings = self.burst(service, seed)
                return [p.output(timeout=120) for p in pendings]

            serve(0)
            for name in calls:
                calls[name] = 0
            hot = serve(1)
            assert calls == {"profile": 0, "analyze": 0, "fingerprint": 0}
        finally:
            service.close()
        # jit.disabled() is per thread: replay the burst inline instead
        with jit.disabled():
            pendings = self.burst(service, 1)
            service.flush()
            interpreted = [p.output() for p in pendings]
        assert service.stats()["counters"]["serve.packed_launches"] == 3
        for got, want in zip(hot, interpreted):
            assert np.array_equal(got, want)


class TestFusedDag:
    def test_gemm_trsm_chain(self, calls):
        service = make_service(fuse_dags=True)
        dag = Dag(chain(("GEMM-NN", {"A": "A", "B": "B"}), ("TRSM-LL-N", {"A": "L"})))
        n = 32

        def serve(seed):
            rng = np.random.default_rng(seed)
            arrays = {
                "A": rng.standard_normal((n, n)).astype(np.float32),
                "B": rng.standard_normal((n, n)).astype(np.float32),
                "L": (np.tril(rng.standard_normal((n, n))) + n * np.eye(n)).astype(
                    np.float32
                ),
            }
            return service.run_dag(dag, **arrays)

        hot, interpreted = serve_twice(service, calls, serve)
        assert service.stats()["counters"]["serve.dag.fused"] == 3
        assert np.array_equal(hot, interpreted)


class TestMultiDevice:
    @pytest.mark.parametrize("routine, n", [("GEMM-NN", 32), ("TRSM-LL-N", 20)])
    def test_devices_two(self, calls, routine, n):
        service = make_service(devices=2)
        sizes = {"M": n, "N": n, "K": n}

        def serve(seed):
            inputs = random_inputs(routine, sizes, seed=seed)
            return service.run(routine, alpha=1.5, beta=0.5, **inputs)

        hot, interpreted = serve_twice(service, calls, serve)
        assert service.stats()["counters"]["dist.runs"] == 3
        assert np.array_equal(hot, interpreted)
