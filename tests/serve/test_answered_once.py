"""Every request is answered exactly once, whatever the mix.

A seeded random mix of single calls, two-node DAGs, calls whose operand
shapes disagree, deadline-bound calls that must degrade, and pack-mode
bursts deep enough to be shed, driven through ``BlasService`` and a
2-shard ``ShardedBlasService``, drained inline, and by the dispatcher
threads with two concurrent submitters.  Every ``PendingResult`` must
be fulfilled exactly once, the ``serve.*`` counters must add up to the
answers (none counts twice), and every served output must match the
NumPy reference.
"""

import collections
import sys
import threading

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.serve import BlasService, ServeOptions, ShardedBlasService
from repro.serve.request import PendingResult
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

from .test_service import SMALL_SPACE

KINDS = ("single", "dag", "disagree", "deadline", "burst")
ROUNDS = 6
HIGH_WATER = 6
BURST = 8

DAG = Dag(chain(("GEMM-NN", {"A": "A", "B": "B"}), ("TRSM-LL-N", {"A": "L"})))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One tuning cache for every surface, so each plan is searched once."""
    return tmp_path_factory.mktemp("answered-once")


def make(kind, cache_dir):
    options = ServeOptions(pack_requests=True, max_batch=8, shed_high_water=HIGH_WATER)
    tuning = TuningOptions(space=SMALL_SPACE, jobs=1, cache_dir=cache_dir)
    if kind == "service":
        return BlasService(GTX_285, options=options, tuning=tuning, telemetry=Telemetry())
    return ShardedBlasService(GTX_285, 2, options=options, tuning=tuning, telemetry=Telemetry())


def dag_inputs(rng, n=16, l_rows=16):
    low = np.tril(rng.standard_normal((l_rows, l_rows))) + l_rows * np.eye(l_rows)
    return {
        "A": rng.standard_normal((n, n)).astype(np.float32),
        "B": rng.standard_normal((n, n)).astype(np.float32),
        "L": low.astype(np.float32),
    }


def submit_round(service, rng):
    """Submit one round of the mix: ``(pending, expected, check)`` each,
    ``expected`` the answer sources a non-shed request may get."""
    out = []
    for kind in rng.choice(KINDS, size=3):
        seed = int(rng.integers(1 << 30))
        if kind == "single":
            routine = str(rng.choice(["GEMM-NN", "TRSM-LL-N"]))
            n = int(rng.choice([8, 12, 16]))
            sizes = {"M": n, "N": n, "K": n} if routine == "GEMM-NN" else {"M": n, "N": n}
            x = random_inputs(routine, sizes, seed=seed)
            alpha, beta = float(rng.choice([1.0, 0.5])), float(rng.choice([0.0, 2.0]))
            want = reference(routine, x, alpha=alpha, beta=beta)
            pending = service.submit(routine, alpha=alpha, beta=beta, **x)
            out.append((pending, {"tuned"}, want))
        elif kind == "dag":
            x = dag_inputs(np.random.default_rng(seed))
            out.append((service.submit_dag(DAG, **x), {"tuned"}, DAG.reference(x)))
        elif kind == "disagree":
            if rng.random() < 0.5:
                pending = service.submit(
                    "GEMM-NN", A=np.ones((8, 16), np.float32), B=np.ones((20, 8), np.float32)
                )
            else:
                pending = service.submit_dag(DAG, **dag_inputs(np.random.default_rng(seed), l_rows=12))
            out.append((pending, {"error"}, None))
        elif kind == "deadline":
            x = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 16}, seed=seed)
            pending = service.submit("GEMM-NN", deadline_s=1e-9, **x)
            out.append((pending, {"fallback"}, reference("GEMM-NN", x)))
        else:
            for i in range(BURST):
                m, n, k = (int(v) for v in rng.integers(5, 17, size=3))
                x = random_inputs("GEMM-NN", {"M": m, "N": n, "K": k}, seed=seed + i)
                out.append((service.submit("GEMM-NN", **x), {"tuned"}, reference("GEMM-NN", x)))
    return out


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
@pytest.mark.parametrize("kind", ["service", "tier"])
def test_every_request_is_answered_exactly_once(kind, threaded, seed, cache_dir, monkeypatch):
    fulfilled = collections.Counter()
    lock = threading.Lock()
    original = PendingResult.fulfill

    def counting_fulfill(pending, response):
        with lock:
            fulfilled[id(pending)] += 1
        original(pending, response)

    monkeypatch.setattr(PendingResult, "fulfill", counting_fulfill)
    service = make(kind, cache_dir)
    calls = []
    if threaded:
        # two submitters against the dispatcher threads, switching often
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service.start()
        try:
            per_thread = [[], []]

            def submitter(index):
                rng = np.random.default_rng((seed, index))
                for _ in range(ROUNDS // 2):
                    per_thread[index] += submit_round(service, rng)

            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
            calls = per_thread[0] + per_thread[1]
            responses = [pending.response(timeout=120) for pending, _, _ in calls]
        finally:
            sys.setswitchinterval(switch)
            service.close()
    else:
        rng = np.random.default_rng(seed)
        for _ in range(ROUNDS):
            calls += submit_round(service, rng)
            service.flush()
        responses = [pending.response() for pending, _, _ in calls]

    assert all(fulfilled[id(pending)] == 1 for pending, _, _ in calls)
    assert sum(fulfilled.values()) == len(calls)

    sources = collections.Counter(r.source for r in responses)
    for (pending, expected, want), response in zip(calls, responses):
        if response.source == "shed":
            assert pending.request_id < 0 and "high-water" in response.error
            continue
        assert response.source in expected, (response.source, response.error)
        if response.source == "error":
            assert "dimension" in response.error
        else:
            np.testing.assert_allclose(response.output, want, rtol=3e-3, atol=3e-3)

    count = service.telemetry.count
    admitted = len(calls) - sources["shed"]
    assert count("serve.requests") == admitted
    assert count("serve.queue.enqueued") == admitted
    assert count("serve.batched_requests") == admitted
    assert count("serve.shed") == sources["shed"] == service.stats()["shed"]
    assert count("serve.errors") == sources["error"]
    assert count("serve.fallbacks") == sources["fallback"]
    assert count("serve.packed") <= sources["tuned"]
    if kind == "tier":
        assert count("serve.shard.routed") == len(calls)
        assert sum(count(f"serve.shard.{i}.routed") for i in range(2)) == len(calls)
        assert sum(count(f"serve.shard.{i}.shed") for i in range(2)) == sources["shed"]
    if not threaded:
        assert sources["shed"] > 0  # each burst of 8 overflows the high water
