"""BlasService: the BLAS3 serving runtime.

The paper generates a tuned library once; this module *serves* it.  A
:class:`BlasService` answers a stream of BLAS3 calls through four
cooperating mechanisms:

* **the door** — every request is sized once when it is built
  (:meth:`Request.call` / :meth:`Request.graph`), and admitted or shed
  at ``ServeOptions.shed_high_water`` under the lock that enqueues it
  (:mod:`repro.serve.admission`).  Routing, plan resolution, packing,
  fallback and the kernels all read the stored sizes.
* **dispatch** — every request is bucketed and routed through a
  ``(routine, arch, size-bucket)`` plan table with an LRU hot-plan cache
  (:mod:`repro.serve.dispatch`).  A plan miss tunes lazily through the
  PR 2 on-disk cache, so the *second* process start never searches.
* **micro-batching** — concurrent same-shape requests coalesce into one
  simulated-GPU launch (:mod:`repro.serve.batching`); the dispatcher
  waits up to ``batch_window_s`` for company before launching.  With
  ``pack_requests=True`` a second tier coalesces *across* requests:
  small same-routine GEMM calls — different data, even different
  shapes — are zero-padded into one strided-batched (BGEMM) launch,
  so a burst of tiny problems pays one launch instead of N (counters
  ``serve.packed`` / ``serve.pack_waste``).
* **deadlines + graceful degradation** — a request carrying a relative
  ``deadline_s`` never waits for a cold search: if its budget expires in
  the queue, or its plan is missing and not reconstructable from the
  on-disk cache in time, the CUBLAS/reference baseline answers instead
  (counter ``serve.fallbacks``) — degraded performance, never an error.
* **telemetry** — a span per launch and per request, plus counters for
  queue depth, batch size, plan hit/miss/evict, fallbacks and errors
  (glossary in the README's Serving section).

Launch execution flows through the compiled-kernel path: each tuned
plan's :class:`~repro.tuner.library.TunedRoutine` binds its compiled
kernel on first use and runs it through
:meth:`~repro.gpu.simulator.SimulatedGPU.execute` with the service
telemetry — no analytic profile and no IR fingerprint per request; only
uncompilable IR pays the interpreter (``jit.fallback``).

One execution path serves every request.  A launch first tries to
pack (pack mode only), and otherwise serves exact-shape groups; an
unpacked batch is simply one group.  Single calls and DAGs resolve their
plans through one resolver, ``_resolve_plan``, and every response —
tuned, packed, fallback, deadline-expired or error — is built and
fulfilled at one answer site, ``_answer``, inside that request's
``serve.request`` span; a request that could not be sized is answered
``source="error"`` there too.  Only a shed request is answered at the
door, before it is queued.  So each submitted request is answered
exactly once, whichever path it took.

Two execution modes share that path:

* **threaded** (``service.start()`` or the context manager): a single
  dispatcher thread drains the queue — submitters block on
  :meth:`PendingResult.result`;
* **inline** (no thread): :meth:`BlasService.flush` drains the queue on
  the caller's thread — what the deterministic tests and the latency
  benchmark use.

Quickstart::

    from repro import BlasService, GTX_285

    with BlasService(GTX_285) as service:
        c = service.run("GEMM-NN", A=a, B=b, C=c, alpha=1.0, beta=0.0)
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..baselines.cublas import cublas_kernel
from ..blas3.reference import reference
from ..blas3.routines import epilogue, get_spec
from ..dag import Dag, Expr
from ..dist import DistLibrary, single_node
from ..gpu.arch import GPUArch, GTX_285
from ..telemetry import Telemetry, ensure_telemetry
from ..tuner.chain import build_chain_plan
from ..tuner.library import LibraryGenerator, TunedRoutine
from ..tuner.options import TuningOptions
from ..tuner.space import small_space
from .admission import AdmissionController
from .batching import MicroBatcher
from .dispatch import MIN_BUCKET, DispatchTable, Plan, PlanKey, size_bucket
from .request import PendingResult, Request, Response

__all__ = ["ServeOptions", "BlasService", "PlanUnavailableError"]


class PlanUnavailableError(RuntimeError):
    """No tuned plan could be resolved for a request.

    Carries the request context (routine, bucket, reason) so callers —
    and their logs — see *what* failed to resolve, not a bare assertion
    (which would vanish entirely under ``python -O``).
    """

    def __init__(self, routine: str, bucket: int, reason: str):
        self.routine = routine
        self.bucket = bucket
        self.reason = reason
        super().__init__(
            f"no plan for {routine} (bucket {bucket}): {reason}"
        )


@dataclass(frozen=True)
class ServeOptions:
    """Runtime knobs of one :class:`BlasService` (tuning knobs live in
    :class:`~repro.tuner.options.TuningOptions`)."""

    #: largest coalesced launch
    max_batch: int = 8
    #: how long the dispatcher waits for same-shape company (seconds)
    batch_window_s: float = 0.002
    #: LRU capacity of the hot-plan table
    hot_plans: int = 64
    #: simulated devices the backend spreads each launch across
    devices: int = 1
    #: deadline applied to requests that do not carry their own
    default_deadline_s: Optional[float] = None
    #: answer deadline-bound cold requests with the cost model's instant
    #: predicted plan (needs a trained model in the tuning cache dir)
    predicted_plans: bool = True
    #: tune predicted plans for real on a background thread and insert
    #: the verified winner into the table as soon as it lands
    background_promotion: bool = True
    #: coalesce small same-routine GEMM requests (different data, even
    #: different shapes) into one strided-batched BGEMM launch
    pack_requests: bool = False
    #: smallest dispatch bucket.  Below the default 16 the service tunes
    #: dedicated sub-16 plans over the small-tile space
    #: (:func:`repro.tuner.space.small_space`), so an N=8 call stops
    #: paying for the padded 16-class plan.
    min_bucket: int = MIN_BUCKET
    #: queue-depth high-water mark of every service's admission control
    #: (each shard of a sharded tier judges its own queue): at or beyond
    #: this depth new requests are shed (answered instantly with
    #: ``source="shed"``) instead of queued.  None = admit everything.
    shed_high_water: Optional[int] = None
    #: let the chain tuner fuse adjacent DAG nodes into single kernels
    #: where legal and modeled profitable (False: DAG requests still
    #: dispatch as one unit, but every node launches separately)
    fuse_dags: bool = False

    def __post_init__(self):
        if self.devices < 1:
            raise ValueError(f"devices must be at least 1, got {self.devices}")

    @classmethod
    def from_args(cls, args) -> "ServeOptions":
        """One :class:`ServeOptions` from a parsed ``argparse`` namespace.

        The single round-trip point for the serve CLI's flags
        (``--max-batch --window-ms --devices --deadline-ms --high-water
        --pack --min-bucket --fuse``); attributes missing from the
        namespace keep their dataclass defaults, so partial namespaces
        (tests, embedding tools) work.  ``--shards`` is intentionally
        *not* here — shard count is the sharded tier's constructor
        argument, not a per-service knob.
        """
        defaults = cls()
        window_ms = getattr(args, "window_ms", None)
        deadline_ms = getattr(args, "deadline_ms", None)
        min_bucket = getattr(args, "min_bucket", None)
        return cls(
            max_batch=getattr(args, "max_batch", defaults.max_batch),
            batch_window_s=(
                window_ms / 1e3
                if window_ms is not None
                else defaults.batch_window_s
            ),
            devices=getattr(args, "devices", defaults.devices),
            default_deadline_s=(
                deadline_ms / 1e3 if deadline_ms is not None else None
            ),
            pack_requests=bool(getattr(args, "pack", defaults.pack_requests)),
            min_bucket=(
                min_bucket if min_bucket is not None else defaults.min_bucket
            ),
            shed_high_water=getattr(args, "high_water", None),
            fuse_dags=bool(getattr(args, "fuse", defaults.fuse_dags)),
        )


class BlasService:
    """Serves BLAS3 calls from tuned plans with batching and fallback."""

    def __init__(
        self,
        arch: GPUArch = GTX_285,
        *,
        options: Optional[ServeOptions] = None,
        tuning: Optional[TuningOptions] = None,
        telemetry: Optional[Telemetry] = None,
        clock=time.monotonic,
    ):
        self.arch = arch
        self.options = options or ServeOptions()
        self.tuning = tuning or TuningOptions()
        self.telemetry = ensure_telemetry(telemetry)
        self.clock = clock
        self.table = DispatchTable(self.options.hot_plans, telemetry=self.telemetry)
        self._generators: Dict[int, LibraryGenerator] = {}
        self._dist: Dict[int, DistLibrary] = {}
        # Guards the generator/backend get-or-create maps, which are
        # probed from the dispatcher thread, flush() callers and warm()
        # callers concurrently.  A dedicated RLock (re-entrant because
        # _backend_for nests _generator_for), NOT self._lock: generator
        # construction is slow and must not stall submitters holding
        # the queue's condition variable.
        self._gen_lock = threading.RLock()
        self._batcher = MicroBatcher(
            self.options.max_batch, pack=self.options.pack_requests
        )
        self.admission = AdmissionController(
            self.options.shed_high_water, telemetry=self.telemetry
        )
        self._pending: Dict[int, PendingResult] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._peak_reported = 0
        self._background: Dict[PlanKey, threading.Thread] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "BlasService":
        """Spawn the dispatcher thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return self
            self._running = True
            self._thread = threading.Thread(
                target=self._loop, name="blas-serve-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the dispatcher after draining everything queued."""
        thread = None
        with self._lock:
            self._running = False
            thread = self._thread
            self._thread = None
            self._cond.notify_all()
        if thread is not None:
            thread.join()
        self.flush()  # anything left (or a never-started service)

    def __enter__(self) -> "BlasService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the public call surface ---------------------------------------
    def submit(
        self,
        routine: str,
        *,
        alpha: float = 1.0,
        beta: float = 1.0,
        sizes: Optional[Mapping[str, int]] = None,
        deadline_s: Optional[float] = None,
        **arrays: np.ndarray,
    ) -> PendingResult:
        """Enqueue one call (unified convention: keyword arrays).

        Returns a :class:`PendingResult`; block on ``.result()`` /
        ``.output()``.  Without a running dispatcher thread, call
        :meth:`flush` (or use :meth:`run`) to process the queue.
        """
        return self._enqueue(Request.call(
            routine, arrays, alpha=alpha, beta=beta, sizes=sizes, deadline_s=deadline_s
        ))

    def submit_dag(
        self,
        dag: "Dag | Expr",
        *,
        deadline_s: Optional[float] = None,
        **arrays: np.ndarray,
    ) -> PendingResult:
        """Enqueue one expression-DAG request (keyword arrays bind the
        DAG's named inputs).

        A one-node DAG is served as the plain call it wraps — same plan
        table, same counters, bit-identical result.  Multi-node DAGs
        dispatch as ONE unit keyed on the graph's canonical fingerprint
        (:attr:`repro.dag.Dag.routine_key`), so identical DAG shapes
        share a plan and micro-batch together; the resolved
        :class:`~repro.tuner.chain.ChainPlan` fuses adjacent nodes when
        ``ServeOptions.fuse_dags`` is set and the tuner finds fusion
        both legal and modeled profitable.  Operands whose shapes
        disagree are answered ``source="error"``, like a single call's.

        Counters: ``serve.dag.requests`` / ``serve.dag.nodes`` /
        ``serve.dag.single``.
        """
        dag = dag if isinstance(dag, Dag) else Dag(dag)
        if len(dag) == 1:
            self.telemetry.incr("serve.dag.single")
        return self._enqueue(Request.graph(dag, arrays, deadline_s=deadline_s))

    def _enqueue(self, request: Request) -> PendingResult:
        """Number, stamp, admit and queue one sized request (every
        submit surface, the sharded tier's included).

        Admission judges the queue depth under the lock that appends,
        so concurrent submitters never push the queue past
        ``shed_high_water``.
        """
        request.id = next(self._ids)
        request.submitted_at = self.clock()
        if request.deadline_s is None:
            request.deadline_s = self.options.default_deadline_s
        with self._lock:
            depth = len(self._batcher)
            if not self.admission.admit(depth):
                return self._shed(request, depth)
            pending = PendingResult(request.id, telemetry=self.telemetry)
            self._pending[request.id] = pending
            self._batcher.append(request)
            self.telemetry.incr("serve.requests")
            if request.chained:
                self.telemetry.incr("serve.dag.requests")
                self.telemetry.incr("serve.dag.nodes", len(request.dag))
            self.telemetry.incr("serve.queue.enqueued")
            depth = self._batcher.peak_depth
            if depth > self._peak_reported:
                self.telemetry.incr("serve.queue.peak_depth", depth - self._peak_reported)
                self._peak_reported = depth
            self._cond.notify_all()
        return pending

    def _shed(self, request: Request, depth: int) -> PendingResult:
        """Instant rejection: a pre-fulfilled future with a negative id,
        never queued."""
        pending = PendingResult(-request.id)
        pending.fulfill(Response(
            request_id=-request.id, routine=request.routine, source="shed",
            error=f"shed: queue depth {depth} >= high-water {self.admission.high_water}",
        ))
        return pending

    def run(self, routine: str, **kwargs) -> np.ndarray:
        """Submit one call (keywords as :meth:`submit`) and block for its
        result array."""
        return self._wait(self.submit(routine, **kwargs))

    def run_dag(self, dag: "Dag | Expr", **kwargs) -> np.ndarray:
        """Submit one DAG request (keywords as :meth:`submit_dag`) and
        block for its result array."""
        return self._wait(self.submit_dag(dag, **kwargs))

    def _wait(self, pending: PendingResult) -> np.ndarray:
        if self._thread is None:
            self.flush()  # no dispatcher: drain inline
        return pending.output()

    def flush(self) -> int:
        """Drain the queue on the caller's thread; returns launches run."""
        launches = 0
        while self._launch_next():
            launches += 1
        return launches

    def _launch_next(self) -> bool:
        """Run the queue head's batch on the caller's thread; False when
        the queue is empty."""
        with self._lock:
            batch = self._batcher.next_batch()
        if batch:
            self._execute_batch(batch)
        return bool(batch)

    def stats(self) -> Dict:
        """Service-level snapshot: counters + table/queue state."""
        with self._lock:
            queue_depth = len(self._batcher)
            peak = self._batcher.peak_depth
        return {
            "counters": self.telemetry.metrics.snapshot(),
            "plans": len(self.table),
            "queue_depth": queue_depth,
            "peak_queue_depth": peak,
            "shed": self.admission.shed,
        }

    def queue_depth(self) -> int:
        """Requests queued right now."""
        with self._lock:
            return len(self._batcher)

    def warm(self, routine: str, n: int) -> Plan:
        """Pre-tune (or cache-load) the plan a size-``n`` call will use.

        Raises :class:`PlanUnavailableError` if no plan can be resolved
        (warm requests carry no deadline, so this only happens when the
        tuner itself cannot produce one).
        """
        spec = get_spec(routine)
        sizes = spec.make_sizes(n)
        plan, reason = self._resolve_plan(
            Request(
                id=0,
                routine=spec.name,
                arrays={},
                sizes=sizes,
                submitted_at=self.clock(),
            )
        )
        if plan is None:
            raise PlanUnavailableError(
                spec.name, self._bucket(sizes), reason or "unknown"
            )
        return plan

    # -- plan snapshots (restart/rescale without re-tuning) ------------
    def _snapshot_cache(self):
        if self.tuning.cache_dir is None:
            return None
        from ..tuner.cache import TuningCache

        return TuningCache(self.tuning.cache_dir, telemetry=self.telemetry)

    def plan_records(self) -> List[Dict]:
        """Serialized snapshot entries for every resident *verified* plan.

        Predicted plans are provisional (no search ran) and are excluded
        — a rehydrating worker should re-predict or tune, not trust a
        stale instant plan.
        """
        from ..tuner.persist import routine_record

        records = []
        for plan in self.table.plans():
            if plan.predicted:
                continue
            if plan.routine.startswith("dag:"):
                # chain plans hold a ChainPlan, not a TunedRoutine — no
                # snapshot format yet; re-tuned from per-node caches
                continue
            records.append(
                {
                    "routine": plan.routine,
                    "bucket": plan.bucket,
                    "record": routine_record(plan.tuned),
                }
            )
        return records

    def snapshot_plans(self, tag: str = "serve") -> int:
        """Persist the dispatch table through the tuning cache.

        Returns the number of plans stored (0 without a ``cache_dir``).
        Counter: ``serve.snapshot.stored``.
        """
        return self._store_snapshot(tag, self.plan_records())

    def _store_snapshot(self, tag: str, records: List[Dict]) -> int:
        """Store ``records`` as the ``tag`` snapshot (the sharded tier
        stores its combined document through here too)."""
        cache = self._snapshot_cache()
        if cache is None:
            return 0
        cache.store_plan_snapshot(self.arch, tag, records)
        self.telemetry.incr("serve.snapshot.stored", len(records))
        return len(records)

    def rehydrate_plans(self, tag: str = "serve", only=None) -> int:
        """Load a persisted snapshot into the dispatch table.

        ``only`` filters by :data:`PlanKey` (the sharded tier passes its
        ownership predicate so each worker rehydrates just the keys that
        route to it).  Resident keys are never overwritten — live plans
        carry fresher hit statistics than any snapshot.  Unreadable
        entries are skipped and counted, not fatal.  Counters:
        ``serve.rehydrated`` / ``serve.rehydrate_errors``.
        """
        cache = self._snapshot_cache()
        if cache is None:
            return 0
        doc = cache.load_plan_snapshot(self.arch, tag)
        if doc is None:
            return 0
        from ..tuner.persist import rebuild_routine

        loaded = 0
        for entry in doc["plans"]:
            try:
                routine = entry["routine"]
                bucket = int(entry["bucket"])
                key: PlanKey = (routine, self.arch.name, bucket)
                if only is not None and not only(key):
                    continue
                if key in self.table:
                    continue
                tuned = rebuild_routine(entry["record"], self.arch)
            except Exception:
                self.telemetry.incr("serve.rehydrate_errors")
                continue
            tuned.telemetry = self.telemetry
            if tuned.fallback is not None:
                tuned.fallback.telemetry = self.telemetry
            self.table.insert(Plan(key, tuned))
            loaded += 1
        if loaded:
            self.telemetry.incr("serve.rehydrated", loaded)
        return loaded

    # -- dispatcher ----------------------------------------------------
    def _loop(self) -> None:
        """Dispatcher thread: wait → micro-batch window → launch."""
        while True:
            with self._lock:
                while self._running and not self._batcher:
                    self._cond.wait()
                if not self._batcher:
                    if not self._running:
                        return
                    continue
                self._await_company(self.clock() + self.options.batch_window_s)
            self._launch_next()

    def _await_company(self, window_until: float) -> None:
        """Hold the head request until ``window_until`` (or a full batch).

        Runs under ``self._lock``.  Each wakeup — including the spurious
        ones every new submission's ``notify_all`` causes — re-waits only
        the *remaining* window, so one late rider cannot re-arm a full
        window and stretch the head's wait toward 2× ``batch_window_s``.
        """
        while (
            self._running
            and self._batcher.matching_head() < self._batcher.max_batch
        ):
            remaining = window_until - self.clock()
            if remaining <= 0:
                return
            self._cond.wait(timeout=remaining)

    # -- execution -----------------------------------------------------
    def _bucket(self, sizes: Mapping[str, int]) -> int:
        return size_bucket(sizes, floor=self.options.min_bucket)

    def _tuning_for(self, bucket: int) -> TuningOptions:
        """Tuning options for one size bucket: tune *at* the bucket, and
        below the standard 16-class swap in the small-tile space (the
        default space's BM/BN ≥ 16 tiles can only pad a sub-16 call)."""
        tuning = self.tuning
        if bucket:
            tuning = tuning.replace(tune_size=bucket)
            if bucket < MIN_BUCKET:
                tuning = tuning.replace(space=tuple(small_space()))
        return tuning

    def _generator_for(self, bucket: int) -> LibraryGenerator:
        with self._gen_lock:
            gen = self._generators.get(bucket)
            if gen is None:
                gen = LibraryGenerator(
                    self.arch,
                    telemetry=self.telemetry,
                    options=self._tuning_for(bucket),
                )
                self._generators[bucket] = gen
        return gen

    def _backend_for(self, bucket: int) -> Optional[DistLibrary]:
        """The multi-device backend (None for the single-GPU path)."""
        if self.options.devices == 1:
            return None
        with self._gen_lock:
            lib = self._dist.get(bucket)
            if lib is None:
                lib = DistLibrary(
                    self.arch,
                    single_node(self.options.devices),
                    generator=self._generator_for(bucket),
                    telemetry=self.telemetry,
                )
                self._dist[bucket] = lib
        return lib

    def _resolve_plan(self, request: Request) -> Tuple[Optional[Plan], Optional[str]]:
        """Plan for a request, or ``(None, reason)`` when only the
        baseline can answer within the deadline.

        Single calls and multi-node DAGs share one key discipline —
        ``(routine, arch, bucket)``, where a DAG's routine is
        ``dag:<fingerprint>`` — so identical DAG shapes share one
        :class:`~repro.tuner.chain.ChainPlan` and hit the hot table.
        A deadline-bound miss only tunes when every routine it needs
        (the call's own, or each DAG node's) is reconstructable from the
        on-disk cache; a single call first tries the cost model's
        predicted plan, a DAG degrades to the baseline directly.
        """
        bucket = self._bucket(request.sizes)
        key: PlanKey = (request.routine, self.arch.name, bucket)
        plan = self.table.lookup(key)
        if plan is not None:
            return plan, None
        generator = self._generator_for(bucket)
        dag = request.dag
        routines = [request.routine] if dag is None else [n.routine for n in dag.nodes]
        if request.deadline_s is not None and not all(
            generator.has_cached(routine) for routine in routines
        ):
            # A cold search will not fit any deadline budget.  Before
            # degrading to the baseline, try the cost model's instant
            # predicted plan: the model's top config, cheaply verified —
            # answered now, tuned for real in the background.
            if dag is None and self.options.predicted_plans:
                predicted = generator.predict(request.routine)
                if predicted is not None:
                    plan = Plan(key, predicted, predicted=True)
                    self.table.insert(plan)
                    self.telemetry.incr("serve.predicted_plans")
                    self._promote_async(key, bucket, request.routine)
                    return plan, None
            return None, "no-plan"
        if dag is None:
            with self.telemetry.span(
                "serve.tune", routine=request.routine, bucket=bucket
            ):
                tuned = generator.generate(request.routine)
            self.telemetry.incr("serve.tuned")
        else:
            with self.telemetry.span(
                "serve.tune_chain", routine=request.routine, bucket=bucket
            ):
                tuned = build_chain_plan(
                    dag,
                    generator,
                    node_sizes=request.node_sizes,
                    fuse=self.options.fuse_dags,
                    telemetry=self.telemetry,
                )
            self.telemetry.incr("serve.dag.tuned")
        plan = Plan(key, tuned)
        self.table.insert(plan)
        return plan, None

    # -- background promotion ------------------------------------------
    def _promote_async(self, key: PlanKey, bucket: int, routine: str) -> None:
        """Kick off the real tuning run that will replace the predicted
        plan as soon as it completes."""
        if not self.options.background_promotion:
            return
        with self._lock:
            if key in self._background:
                return
            thread = threading.Thread(
                target=self._background_tune,
                args=(key, bucket, routine),
                name=f"blas-serve-promote-{routine}-{bucket}",
                daemon=True,
            )
            self._background[key] = thread
        thread.start()

    def _background_tune(self, key: PlanKey, bucket: int, routine: str) -> None:
        """Full tune on a background thread (fresh generator: the shared
        per-bucket generators are not thread safe).

        The verified winner is inserted *directly* when tuning finishes.
        Parking it for a later hit of the predicted plan would leak the
        work whenever that plan gets LRU-evicted first — the promotion
        entry could then never be consumed, and the next miss would
        re-tune from scratch.  Direct insertion only replaces a
        predicted (or absent) resident: a verified plan that arrived by
        another path is never downgraded.
        """
        try:
            generator = LibraryGenerator(
                self.arch,
                telemetry=self.telemetry,
                options=self._tuning_for(bucket),
            )
            with self.telemetry.span(
                "serve.background_tune", routine=routine, bucket=bucket
            ):
                tuned = generator.generate(routine)
            # Land the tuned plan directly.  Parking it for a later hit
            # on the *predicted* plan leaks the tune whenever the
            # prediction is evicted first: the promotion is keyed to a
            # plan that no longer exists and never fires.
            resident = self.table.peek(key)
            if resident is None or resident.predicted:
                hits = resident.hits if resident is not None else 0
                self.table.insert(Plan(key, tuned, hits=hits))
                self.telemetry.incr("serve.plan.promoted")
            self.telemetry.incr("serve.background_tuned")
        except Exception:
            self.telemetry.incr("serve.background_tune_errors")
        finally:
            with self._lock:
                self._background.pop(key, None)

    def join_background(self, timeout: Optional[float] = None) -> None:
        """Wait for in-flight background tunes (deterministic tests)."""
        with self._lock:
            threads = list(self._background.values())
        for thread in threads:
            thread.join(timeout)

    def _execute_batch(self, batch: List[Request]) -> None:
        first = batch[0]
        started = self.clock()
        with self.telemetry.span(
            "serve.launch", routine=first.routine, batch=len(batch)
        ) as launch:
            self.telemetry.incr("serve.launches")
            self.telemetry.incr("serve.batched_requests", len(batch))
            groups = [batch]
            if len(batch) > 1:
                self.telemetry.incr("serve.coalesced", len(batch) - 1)
                if self.options.pack_requests:
                    if self._try_packed(batch, started, launch):
                        return
                    # Packing declined (no batched plan, non-GEMM, ...).
                    # A pack-tier batch may mix group keys, and a group
                    # resolves ONE plan — split back into exact-shape
                    # groups so no rider is served against the head's
                    # plan and sizes.
                    split: Dict[Tuple, List[Request]] = {}
                    for request in batch:
                        split.setdefault(request.group_key, []).append(request)
                    groups = list(split.values())
            for group in groups:
                self._execute_group(group, started, launch)

    def _execute_group(
        self, batch: List[Request], started: float, launch
    ) -> None:
        """Serve one same-``group_key`` batch through a shared plan."""
        first = batch[0]
        try:
            if first.sizing_error is not None:
                # a group shares its shapes, so every member failed alike
                raise first.sizing_error
            plan, fallback_reason = self._resolve_plan(first)
        except Exception as exc:  # un-servable routine/shape
            for request in batch:
                self._answer(request, len(batch), started, partial(_reraise, exc))
            return
        # Deadlines are judged *after* plan resolution: a cold tune
        # (or cache rebuild) runs on this thread, and a batch member
        # whose budget it consumed must degrade, not be served late
        # as if the tune were free.
        resolved_at = self.clock()
        launch.tags["source"] = "fallback" if plan is None else "tuned"
        backend = None
        if plan is not None and not first.chained:
            # chain plans execute whole DAGs themselves; the multi-GPU
            # backend only understands single-routine calls
            backend = self._backend_for(plan.bucket)
        for request in batch:
            self._serve_one(
                request,
                plan,
                backend,
                fallback_reason,
                len(batch),
                started,
                resolved_at,
            )

    def _try_packed(self, batch: List[Request], started: float, launch) -> bool:
        """Serve a whole batch as ONE strided-batched (BGEMM) launch.

        Requests are stacked along the batch dimension, zero-padded to
        the batch's per-dimension maxima; per-request ``alpha``/``beta``
        scaling is applied host-side afterwards (the kernel computes the
        core update, like every plan — see DESIGN.md).  Returns False
        *without serving anything* when the batch cannot pack (a DAG or
        non-GEMM head, unsizable member, or no batched plan resolvable) — the
        caller then falls back to per-group serving.

        Counters: ``serve.packed_launches``, ``serve.packed`` (requests
        served packed) and ``serve.pack_waste`` (padded-minus-logical
        multiply-accumulate volume — the price of shape-class mixing).
        """
        first = batch[0]
        if first.chained or first.sizing_error is not None:
            return False
        spec = get_spec(first.routine)
        if spec.variant.family != "GEMM":
            return False
        try:
            dims = {sym: max(r.sizes[sym] for r in batch) for sym in spec.dim_symbols}
        except KeyError:  # explicit sizes missing a dimension
            return False
        probe = Request(
            id=first.id,
            routine=f"B{spec.name}",
            arrays={},
            sizes={"P": len(batch), **dims},
            deadline_s=first.deadline_s,
            submitted_at=first.submitted_at,
        )
        try:
            plan, _reason = self._resolve_plan(probe)
        except Exception:
            return False
        if plan is None:
            return False
        # Committed to the packed path from here on: every member is
        # answered below.  Budgets are re-judged on the post-resolution
        # clock, exactly like the per-group path, and expired members
        # fall back before the launch.
        resolved_at = self.clock()
        live = [r for r in batch if not r.expired(resolved_at)]
        for request in batch:
            if request.expired(resolved_at):
                self._serve_one(
                    request, None, None, None, len(batch), started, resolved_at
                )
        if not live:
            return True
        p = len(live)
        # The launch computes each member's raw product: C is read only
        # by the member's own epilogue in _unpack.
        operands = [a.name for a in spec.arrays if a.name != spec.output]
        try:
            members = [
                spec.pad(
                    spec.logical_inputs(
                        {name: request.arrays[name] for name in operands},
                        request.sizes,
                    ),
                    dims,
                )
                for request in live
            ]
            packed = plan.tuned._execute(
                {name: np.stack([m[name] for m in members]) for name in operands},
                sizes={"P": p, **dims},
                alpha=1.0,
                beta=0.0,
            )
        except Exception as exc:
            steps = [partial(_reraise, exc)] * p
        else:
            logical_macs = sum(
                math.prod(r.sizes[sym] for sym in spec.dim_symbols) for r in live
            )
            launch.tags["source"] = "tuned"
            launch.tags["packed"] = p
            self.telemetry.incr("serve.packed_launches")
            self.telemetry.incr("serve.packed", p)
            self.telemetry.incr(
                "serve.pack_waste", p * math.prod(dims.values()) - logical_macs
            )
            steps = [
                partial(_unpack, packed, i, request, spec)
                for i, request in enumerate(live)
            ]
        for request, step in zip(live, steps):
            self._answer(request, len(batch), started, step, packed=True)
        return True

    def _serve_one(
        self,
        request: Request,
        plan: Optional[Plan],
        backend: Optional[DistLibrary],
        fallback_reason: Optional[str],
        batch_size: int,
        started: float,
        resolved_at: float,
    ) -> None:
        """Answer one request from its plan, or from the baseline when
        the plan is missing or the request's budget is spent."""
        if fallback_reason is None and request.expired(resolved_at):
            fallback_reason = "deadline"
            self.telemetry.incr("serve.deadline_misses")
        if fallback_reason is None:  # a resolved plan comes without a reason
            compute = partial(self._run_tuned, request, plan, backend)
        else:
            compute = partial(self._run_fallback, request)
        self._answer(request, batch_size, started, compute, fallback_reason)

    def _answer(
        self,
        request: Request,
        batch_size: int,
        started: float,
        compute: Callable[[], np.ndarray],
        fallback_reason: Optional[str] = None,
        **tags,
    ) -> None:
        """Build and fulfil the one :class:`Response` of ``request``.

        Every serving path answers here: tuned, packed, fallback,
        deadline-expired and error.  ``compute()`` runs inside the
        request's ``serve.request`` span; a ``fallback_reason`` marks a
        baseline answer (``serve.fallbacks``), and a raising
        ``compute`` answers ``source="error"`` (``serve.errors``)
        without stopping the dispatcher.
        """
        wait_s = max(0.0, started - request.submitted_at)
        error = None
        with self.telemetry.span(
            "serve.request", routine=request.routine, id=request.id, **tags
        ) as span:
            try:
                output = compute()
            except Exception as exc:
                self.telemetry.incr("serve.errors")
                output, source, fallback_reason = None, "error", None
                error = f"{type(exc).__name__}: {exc}"
            else:
                source = "tuned" if fallback_reason is None else "fallback"
                if fallback_reason is not None:
                    self.telemetry.incr("serve.fallbacks")
            span.tags["source"] = source
            response = Response(
                request_id=request.id,
                routine=request.routine,
                output=output,
                source=source,
                fallback_reason=fallback_reason,
                batch_size=batch_size,
                wait_s=wait_s,
                total_s=max(0.0, self.clock() - request.submitted_at),
                error=error,
            )
        self._fulfill(response)

    def _run_tuned(
        self,
        request: Request,
        plan: Plan,
        backend: Optional[DistLibrary],
    ) -> np.ndarray:
        if request.chained:
            output = plan.tuned.execute(
                request.dag, request.arrays, request.node_sizes
            )
            self.telemetry.incr(
                "serve.dag.fused" if plan.tuned.fused else "serve.dag.unfused"
            )
            return np.asarray(output, dtype=np.float32)
        if backend is not None:
            # the plan's own routine on the pinned 1D split: a predicted
            # or rehydrated plan is served as resolved, never re-tuned
            return backend.run(
                request.routine,
                plan=backend.default_plan(request.routine),
                tuned=plan.tuned,
                alpha=request.alpha,
                beta=request.beta,
                sizes=request.sizes,
                **request.arrays,
            )
        return plan.tuned._execute(
            request.arrays,
            sizes=request.sizes,
            alpha=request.alpha,
            beta=request.beta,
        )

    def _run_fallback(self, request: Request) -> np.ndarray:
        """Baseline answer: CUBLAS 3.2 behavioural kernel for the modeled
        cost, reference semantics for the functional result."""
        with self.telemetry.span("serve.fallback", routine=request.routine) as span:
            if request.chained:
                # chained baseline: every node through the NumPy
                # reference, back to back — the semantic contract fused
                # plans match
                out = request.dag.reference(request.arrays, request.node_sizes)
            else:
                n = max(request.sizes.values())
                try:
                    run = cublas_kernel(request.routine).profile(self.arch, n)
                    span.tags["model_gflops"] = round(run.gflops, 1)
                except Exception:
                    span.tags["model_gflops"] = None  # baseline model unavailable
                out = reference(
                    request.routine,
                    request.arrays,
                    alpha=request.alpha,
                    beta=request.beta,
                )
            return np.asarray(out, dtype=np.float32)

    # -- fulfilment ----------------------------------------------------
    def _fulfill(self, response: Response) -> None:
        with self._lock:
            pending = self._pending.pop(response.request_id, None)
        if pending is not None:
            pending.fulfill(response)


def _reraise(exc: Exception) -> np.ndarray:
    """Compute step of a batch member whose shared step (plan
    resolution, or the packed launch) failed: answers it with that
    error."""
    raise exc


def _unpack(packed: np.ndarray, i: int, request: Request, spec) -> np.ndarray:
    """Member ``i``'s logical slice of a packed launch, with its own
    ``alpha``/``beta`` epilogue."""
    window = tuple(slice(0, e) for e in spec.extent(spec.output, request.sizes))
    c_in = request.arrays.get(spec.output)
    if c_in is not None:
        c_in = np.asarray(c_in, dtype=np.float32)[window]
    result = epilogue(packed[i][window], request.alpha, request.beta, c_in)
    return np.asarray(result, dtype=np.float32)
