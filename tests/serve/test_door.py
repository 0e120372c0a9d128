"""Each serve request is sized, keyed and admitted once, at the door.

The counts below are count-clock facts, named before the runs: how many
``RoutineSpec.sizes_from_shapes`` calls, ``Dag`` objects and key
computations one request costs on a warm plan, on ``BlasService`` and
on a 2-shard ``ShardedBlasService``, drained inline and by the
dispatcher threads.  The regression tests pin the three faults that
re-deriving these facts in several places caused: a plain service never
shed, the tier's admission was a check-then-act race, and a DAG whose
operand shapes disagree raised out of ``submit_dag`` instead of being
answered ``source="error"``.
"""

import collections
import functools
import threading

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.blas3.routines import RoutineSpec
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.serve import BlasService, Request, ServeOptions, ShardedBlasService
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions

from .test_service import SMALL_SPACE

#: ``sizes_from_shapes`` calls per ``run()`` of a single call
SIZINGS_PER_CALL = 1
#: ... and per ``run()`` that passes ``sizes=``
SIZINGS_PER_SIZED_CALL = 0
#: ... and per ``run_dag()`` of a two-node DAG (one per node)
SIZINGS_PER_TWO_NODE_DAG = 2
#: ``Dag`` objects built per single call
DAGS_PER_CALL = 0
#: ``group_key`` and ``pack_key`` computations per request in pack mode
KEYS_PER_PACKED_REQUEST = 1

REQUESTS = 4
N = 16


def make(kind, **serve_kwargs):
    options = ServeOptions(**serve_kwargs)
    tuning = TuningOptions(space=SMALL_SPACE, jobs=1)
    if kind == "service":
        return BlasService(GTX_285, options=options, tuning=tuning, telemetry=Telemetry())
    return ShardedBlasService(
        GTX_285, 2, options=options, tuning=tuning, telemetry=Telemetry()
    )


def gemm_trsm():
    return Dag(chain(("GEMM-NN", {"A": "A", "B": "B"}), ("TRSM-LL-N", {"A": "L"})))


def dag_inputs(n=N, seed=0, l_rows=None):
    rng = np.random.default_rng(seed)
    rows = n if l_rows is None else l_rows
    return {
        "A": rng.standard_normal((n, n)).astype(np.float32),
        "B": rng.standard_normal((n, n)).astype(np.float32),
        "L": (np.tril(rng.standard_normal((rows, rows))) + rows * np.eye(rows)).astype(np.float32),
    }


@pytest.fixture
def counts(monkeypatch):
    """Counts of each derivation, from every thread."""
    tally = collections.Counter()
    lock = threading.Lock()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        RoutineSpec, "sizes_from_shapes", counted("sizes", RoutineSpec.sizes_from_shapes)
    )
    monkeypatch.setattr(Dag, "__init__", counted("dags", Dag.__init__))
    for key in ("group_key", "pack_key"):
        prop = functools.cached_property(counted(key, Request.__dict__[key].func))
        prop.__set_name__(Request, key)
        monkeypatch.setattr(Request, key, prop)
    return tally


def drive(service, threaded, submit_all):
    """Run ``submit_all(service)`` and wait for every answer."""
    if threaded:
        with service:
            pendings = submit_all(service)
            return [p.result(timeout=60) for p in pendings]
    pendings = submit_all(service)
    service.flush()
    return [p.result() for p in pendings]


SURFACES = [(kind, threaded) for kind in ("service", "tier") for threaded in (False, True)]


@pytest.mark.parametrize("kind, threaded", SURFACES)
class TestCountsPerRequest:
    def test_single_call_is_sized_once_and_builds_no_dag(self, counts, kind, threaded):
        service = make(kind)
        calls = [random_inputs("GEMM-NN", {"M": N, "N": N, "K": N}, seed=s) for s in range(REQUESTS)]
        service.run("GEMM-NN", **calls[0])  # warm the plan
        counts.clear()
        answers = drive(service, threaded, lambda s: [s.submit("GEMM-NN", **x) for x in calls])
        assert counts["sizes"] == SIZINGS_PER_CALL * REQUESTS
        assert counts["dags"] == DAGS_PER_CALL * REQUESTS
        assert counts["group_key"] == REQUESTS
        for answer, x in zip(answers, calls):
            np.testing.assert_allclose(answer.output, reference("GEMM-NN", x), rtol=3e-3, atol=3e-3)

    def test_explicit_sizes_are_never_inferred(self, counts, kind, threaded):
        service = make(kind)
        sizes = {"M": N, "N": N, "K": N}
        x = random_inputs("GEMM-NN", sizes, seed=1)
        service.run("GEMM-NN", sizes=sizes, **x)
        counts.clear()
        drive(service, threaded, lambda s: [s.submit("GEMM-NN", sizes=sizes, **x) for _ in range(REQUESTS)])
        assert counts["sizes"] == SIZINGS_PER_SIZED_CALL * REQUESTS

    def test_two_node_dag_is_sized_once_per_node(self, counts, kind, threaded):
        service = make(kind)
        dag = gemm_trsm()
        service.run_dag(dag, **dag_inputs())
        counts.clear()
        inputs = [dag_inputs(seed=s) for s in range(REQUESTS)]
        answers = drive(service, threaded, lambda s: [s.submit_dag(dag, **x) for x in inputs])
        assert counts["sizes"] == SIZINGS_PER_TWO_NODE_DAG * REQUESTS
        assert counts["dags"] == 0
        for answer, x in zip(answers, inputs):
            np.testing.assert_allclose(answer.output, dag.reference(x), rtol=1e-3, atol=1e-3)

    def test_pack_mode_keys_each_request_once(self, counts, kind, threaded):
        service = make(kind, pack_requests=True, max_batch=8, min_bucket=8)
        shapes = [(8 - s % 3, 8, 7 + s % 2) for s in range(16)]
        calls = [random_inputs("GEMM-NN", {"M": m, "N": n, "K": k}, seed=s) for s, (m, n, k) in enumerate(shapes)]
        drive(service, False, lambda s: [s.submit("GEMM-NN", **x) for x in calls])  # warm
        counts.clear()
        answers = drive(service, threaded, lambda s: [s.submit("GEMM-NN", **x) for x in calls])
        assert counts["pack_key"] == KEYS_PER_PACKED_REQUEST * len(calls)
        assert counts["group_key"] == KEYS_PER_PACKED_REQUEST * len(calls)
        for answer, x in zip(answers, calls):
            np.testing.assert_allclose(answer.output, reference("GEMM-NN", x), rtol=3e-3, atol=3e-3)


class TestAdmission:
    def test_blas_service_sheds_at_high_water(self):
        service = make("service", shed_high_water=2)
        x = random_inputs("GEMM-NN", {"M": N, "N": N, "K": N}, seed=2)
        pendings = [service.submit("GEMM-NN", **x) for _ in range(5)]
        shed = [p for p in pendings if p.done()]
        assert len(shed) == 3
        assert all(p.response().source == "shed" and p.request_id < 0 for p in shed)
        assert service.queue_depth() == 2
        assert service.stats()["shed"] == 3
        assert service.telemetry.count("serve.shed") == 3
        assert service.telemetry.count("serve.requests") == 2
        service.flush()
        assert all(p.result().ok for p in pendings if p not in shed)

    @pytest.mark.parametrize("kind", ["service", "tier"])
    def test_concurrent_submitters_never_pass_high_water(self, kind):
        """The first submitter is held inside ``submit`` (at the clock
        reading that stamps its request) until a second one has queued.
        Admission must judge the depth under the lock that enqueues, or
        both pass at depth 0 and the queue ends past its high water."""
        held, release = threading.Event(), threading.Event()
        first = []

        def clock():
            if not first:
                first.append(threading.current_thread())
                held.set()
                assert release.wait(30)
            return 0.0

        options = ServeOptions(shed_high_water=1)
        tuning = TuningOptions(space=SMALL_SPACE)
        if kind == "service":
            service = BlasService(GTX_285, options=options, tuning=tuning, telemetry=Telemetry(), clock=clock)
        else:
            service = ShardedBlasService(
                GTX_285, 1, options=options, tuning=tuning, telemetry=Telemetry(), clock=clock
            )
        x = random_inputs("GEMM-NN", {"M": N, "N": N, "K": N}, seed=3)
        results = []
        submitter = threading.Thread(target=lambda: results.append(service.submit("GEMM-NN", **x)))
        submitter.start()
        assert held.wait(30)
        results.append(service.submit("GEMM-NN", **x))
        release.set()
        submitter.join(30)
        assert not submitter.is_alive()
        sources = sorted(
            "queued" if not p.done() else p.response().source for p in results
        )
        assert sources == ["queued", "shed"]
        assert service.stats()["shed"] == 1
        depths = service.queue_depths() if kind == "tier" else [service.queue_depth()]
        assert depths == [1]
        service.flush()


@pytest.mark.parametrize("kind", ["service", "tier"])
def test_dag_with_disagreeing_shapes_answers_error(kind):
    service = make(kind)
    pending = service.submit_dag(gemm_trsm(), **dag_inputs(l_rows=N + 4))
    service.flush()
    response = pending.response()
    assert response.source == "error"
    assert "dimension" in response.error
    assert service.telemetry.count("serve.errors") == 1


@pytest.mark.parametrize("kind", ["service", "tier"])
def test_chained_fallback_answers_from_the_door_sizes(counts, kind):
    """A DAG request past its deadline is answered by the chained
    reference, which reuses the sizes taken at the door."""
    ticks = [0.0]
    kwargs = dict(
        options=ServeOptions(),
        tuning=TuningOptions(space=SMALL_SPACE, jobs=1),
        telemetry=Telemetry(),
        clock=lambda: ticks[0],
    )
    service = BlasService(GTX_285, **kwargs) if kind == "service" else ShardedBlasService(GTX_285, 2, **kwargs)
    dag, x = gemm_trsm(), dag_inputs()
    service.run_dag(dag, **x)  # warm the plan
    counts.clear()
    pending = service.submit_dag(dag, deadline_s=1.0, **x)
    ticks[0] = 5.0
    service.flush()
    response = pending.response()
    assert (response.source, response.fallback_reason) == ("fallback", "deadline")
    assert counts["sizes"] == SIZINGS_PER_TWO_NODE_DAG
    np.testing.assert_allclose(response.output, dag.reference(x), rtol=1e-6, atol=1e-6)
