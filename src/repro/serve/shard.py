"""Sharded serving tier: consistent-hash routing over dispatcher shards.

One :class:`~repro.serve.service.BlasService` serializes every launch
through a single dispatcher, so its throughput ceiling is one worker's.
This module scales the serving runtime *out*: a
:class:`ShardedBlasService` runs N independent ``BlasService`` workers
(each with its own dispatcher thread, micro-batcher and hot-plan table)
behind one ingress, and routes every request by consistent hashing on
``(routine, size-bucket)``.

Why consistent hashing rather than round-robin:

* **plan affinity** — all traffic for one ``(routine, bucket)`` lands on
  one shard, so each plan is tuned *once* by exactly one worker and its
  micro-batcher still sees coalescable same-shape company.  Round-robin
  would tune every plan on every shard and split batches N ways.
* **elasticity** — adding a shard remaps only ~1/N of the key space
  (the ring property), so a resize invalidates few warm plans, and the
  newcomers rehydrate those from the persisted plan snapshot
  (:meth:`ShardedBlasService.rehydrate_plans`) instead of re-tuning.

The ingress builds and sizes each request once
(:meth:`~repro.serve.request.Request.call` /
:meth:`~repro.serve.request.Request.graph`), routes it by its stored
sizes and hands it to the owner shard's queue.  Admission happens there,
under the lock that enqueues: when the owner's queue depth is at the
``shed_high_water`` mark, the request is *shed* — answered immediately
with ``Response(source="shed")`` rather than deepening an
already-overloaded queue (see :mod:`repro.serve.admission`).

Counters: ``serve.shard.routed``, ``serve.shard.<i>.routed``,
``serve.shed``, ``serve.shard.<i>.shed``, ``serve.snapshot.stored``,
``serve.rehydrated``.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..blas3.routines import get_spec
from ..dag import Dag, Expr
from ..gpu.arch import GPUArch, GTX_285
from ..telemetry import Telemetry, ensure_telemetry
from ..tuner.options import TuningOptions
from .dispatch import Plan, PlanKey, size_bucket
from .request import PendingResult, Request
from .service import BlasService, ServeOptions

__all__ = ["ShardRouter", "ShardedBlasService"]


def _point(token: str) -> int:
    """Stable 64-bit ring position (process- and run-independent)."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ShardRouter:
    """Consistent-hash ring mapping ``(routine, bucket)`` → shard index.

    Each shard owns ``replicas`` virtual nodes on a 64-bit ring; a key
    routes to the first node clockwise of its hash.  Virtual nodes keep
    ownership balanced, and the ring keeps it *stable*: growing from N
    to N+1 shards reassigns only the slice the newcomer's nodes carve
    out (~1/(N+1) of the key space) — every other key keeps its shard,
    and therefore its warm plan.
    """

    def __init__(self, shards: int, replicas: int = 64):
        if shards < 1:
            raise ValueError("ShardRouter needs shards >= 1")
        if replicas < 1:
            raise ValueError("ShardRouter needs replicas >= 1")
        self.shards = shards
        self.replicas = replicas
        ring = sorted(
            (_point(f"shard-{shard}/{replica}"), shard)
            for shard in range(shards)
            for replica in range(replicas)
        )
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    def route(self, routine: str, bucket: int) -> int:
        """The shard owning ``(routine, bucket)``."""
        point = _point(f"{routine}:{int(bucket)}")
        index = bisect.bisect_right(self._points, point) % len(self._points)
        return self._owners[index]

    def owner_predicate(self, shard: int) -> Callable[[PlanKey], bool]:
        """Filter for :meth:`BlasService.rehydrate_plans`: keys this
        shard owns (the arch component is routing-irrelevant)."""
        return lambda key: self.route(key[0], key[2]) == shard

    def ownership(self, keys) -> Dict[int, List]:
        """Group ``(routine, bucket)`` pairs by owning shard."""
        owned: Dict[int, List] = {shard: [] for shard in range(self.shards)}
        for routine, bucket in keys:
            owned[self.route(routine, bucket)].append((routine, bucket))
        return owned


class ShardedBlasService:
    """N dispatcher shards behind one consistent-hash ingress.

    The submission surface mirrors :class:`BlasService` (``submit`` /
    ``run`` / ``warm`` / ``flush`` / context manager); results are the
    same :class:`PendingResult` futures, so
    :func:`repro.serve.request.as_completed` consumes fan-out traffic
    across shards unchanged.  All shards share one telemetry stream and
    one tuning cache directory, and differ only in which slice of the
    key space they own.
    """

    _worker_type = BlasService  # the traffic replay swaps in a modeled worker

    def __init__(
        self,
        arch: GPUArch = GTX_285,
        shards: int = 2,
        *,
        options: Optional[ServeOptions] = None,
        tuning: Optional[TuningOptions] = None,
        telemetry: Optional[Telemetry] = None,
        clock=time.monotonic,
        replicas: int = 64,
    ):
        self.arch = arch
        self.options = options or ServeOptions()
        self.tuning = tuning or TuningOptions()
        self.telemetry = ensure_telemetry(telemetry)
        self.clock = clock
        self.router = ShardRouter(shards, replicas=replicas)
        self.workers: List[BlasService] = [
            self._worker_type(
                arch,
                options=self.options,
                tuning=self.tuning,
                telemetry=self.telemetry,
                clock=clock,
            )
            for _ in range(shards)
        ]
        for shard, worker in enumerate(self.workers):
            worker.admission.counters += (f"serve.shard.{shard}.shed",)

    @property
    def shards(self) -> int:
        return len(self.workers)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardedBlasService":
        for worker in self.workers:
            worker.start()
        return self

    def close(self) -> None:
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardedBlasService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingress -------------------------------------------------------
    def _owner(self, routine: str, sizes: Optional[Mapping[str, int]]) -> int:
        """The shard owning a call's ``(routine, bucket)``, bucketed with
        the workers' ``min_bucket`` floor so traffic lands where its plan
        is keyed and rehydrated.  An unsizable call routes at the floor."""
        floor = self.options.min_bucket
        bucket = floor if sizes is None else size_bucket(sizes, floor=floor)
        return self.router.route(routine, bucket)

    def _route(self, request: Request) -> PendingResult:
        """Queue a sized request on its owner shard, which admits it or
        sheds it."""
        shard = self._owner(request.routine, request.sizes)
        self.telemetry.incr("serve.shard.routed")
        self.telemetry.incr(f"serve.shard.{shard}.routed")
        return self.workers[shard]._enqueue(request)

    def route(
        self, routine: str, sizes: Mapping[str, int]
    ) -> int:
        """The shard a call with these sizes routes to."""
        return self._owner(get_spec(routine).name, sizes)

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
        """Route one call to its owner shard (which may shed it)."""
        return self._route(Request.call(
            routine, arrays, alpha=alpha, beta=beta, sizes=sizes, deadline_s=deadline_s
        ))

    def submit_dag(
        self,
        dag: "Dag | Expr",
        *,
        deadline_s: Optional[float] = None,
        **arrays: np.ndarray,
    ) -> PendingResult:
        """Route one DAG request to its owner shard (which may shed it).

        Multi-node DAGs route by ``(dag.routine_key, size-bucket)`` —
        the same consistent-hash key discipline as single calls, so all
        traffic for one DAG shape lands on one shard and its chain plan
        is tuned exactly once.  One-node DAGs route like the plain call
        they are.
        """
        dag = dag if isinstance(dag, Dag) else Dag(dag)
        return self._route(Request.graph(dag, arrays, deadline_s=deadline_s))

    def run(self, routine: str, **kwargs) -> np.ndarray:
        """Submit one call (keywords as :meth:`submit`) and block for its
        result array."""
        return self._wait(self.submit(routine, **kwargs))

    def run_dag(self, dag: "Dag | Expr", **kwargs) -> np.ndarray:
        """Submit one DAG request (keywords as :meth:`submit_dag`) and
        block for its result array."""
        return self._wait(self.submit_dag(dag, **kwargs))

    def _wait(self, pending: PendingResult) -> np.ndarray:
        if not pending.done():
            self.flush()  # still queued (inline use): drain every shard
        return pending.output()

    def flush(self) -> int:
        """Drain every shard inline; returns total launches run."""
        return sum(worker.flush() for worker in self.workers)

    def warm(self, routine: str, n: int) -> Plan:
        """Pre-tune on the owner shard (where traffic will route)."""
        spec = get_spec(routine)
        return self.workers[self._owner(spec.name, spec.make_sizes(n))].warm(
            routine, n
        )

    def queue_depths(self) -> List[int]:
        """Current queue depth per shard."""
        return [worker.queue_depth() for worker in self.workers]

    def stats(self) -> Dict:
        """Tier snapshot: shared counters + per-shard table/queue state."""
        per_shard = []
        for worker in self.workers:
            state = worker.stats()
            per_shard.append(
                {key: state[key] for key in ("plans", "queue_depth", "peak_queue_depth")}
            )
        return {
            "shards": self.shards,
            "counters": self.telemetry.metrics.snapshot(),
            "shed": sum(worker.admission.shed for worker in self.workers),
            "per_shard": per_shard,
        }

    # -- snapshot / rehydration ----------------------------------------
    def snapshot_plans(self, tag: str = "serve") -> int:
        """Persist every shard's verified plans as ONE snapshot document.

        A single combined document means a restarted or *re-sized* tier
        rehydrates from one place: each worker filters the document by
        its own ring ownership, so the same snapshot serves 1 shard or
        8.  Returns the number of plans stored.
        """
        records: Dict = {}
        for worker in self.workers:
            for record in worker.plan_records():
                records.setdefault((record["routine"], record["bucket"]), record)
        return self.workers[0]._store_snapshot(tag, list(records.values()))

    def rehydrate_plans(self, tag: str = "serve") -> int:
        """Each shard loads the keys it owns from the shared snapshot.

        The restart/rescale path: a fresh tier (possibly with a
        different shard count) calls this once and every worker's
        dispatch table is hot for its slice of the key space — no
        re-tuning, no cross-shard duplication.  Returns total plans
        loaded.  Counter: ``serve.rehydrated``.
        """
        return sum(
            worker.rehydrate_plans(tag, only=self.router.owner_predicate(shard))
            for shard, worker in enumerate(self.workers)
        )
