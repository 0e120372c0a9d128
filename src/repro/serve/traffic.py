"""Traffic synthesis and virtual-time replay: the live tier on a virtual clock.

Proving "4 shards sustain ≥2× the QPS of 1" with wall-clock threads is
impossible on this substrate: the simulated GPU is pure Python/NumPy, so
every shard's "kernel" contends for one interpreter lock and thread-level
scaling measures the GIL, not the architecture.  This module measures
the architecture instead, the way queueing studies do — discrete-event
simulation in *virtual time* — and :func:`replay` runs the live tier on
a virtual clock.  A real :class:`~repro.serve.shard.ShardedBlasService`
routes, admits or sheds, queues, resolves plans (lookup, tune or
degrade), judges deadlines and answers, so every decision and every
counter is the production one.

Only the *durations* are modeled (:class:`ServiceModel`): kernel time
from the arithmetic intensity of the routine at its size
(``2·n³ / modeled-GFLOP/s``), plus a fixed per-request dispatch overhead
and a fixed cold-tune cost — both defaulted from the measured
``BENCH_serve.json`` orders of magnitude and overridable from
measurements.

Trace shape follows serving reality: Poisson arrivals (exponential
inter-arrival gaps at ``rate_qps``), a heavy-tailed size mix (Zipf over
power-of-two classes — most calls small, the tail huge), mixed routines,
and a deadline-carrying fraction.  Everything is seeded and the replay
never reads a wall clock, so a given (profile, scenario) pair produces
byte-identical reports in CI smoke mode and full runs alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partialmethod
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..blas3.routines import get_spec
from ..gpu.arch import GPUArch, GTX_285
from ..telemetry import Telemetry
from .request import Request
from .service import BlasService, ServeOptions
from .shard import ShardedBlasService

__all__ = [
    "TrafficProfile",
    "TrafficEvent",
    "ServiceModel",
    "ReplayReport",
    "synthesize_trace",
    "replay",
]


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of one synthetic serving workload."""

    #: offered load (Poisson arrival rate)
    rate_qps: float = 500.0
    #: arrival-window length in virtual seconds
    duration_s: float = 2.0
    #: routine mix and weights (GEMM-heavy, like BLAS3 traffic)
    routines: Tuple[str, ...] = ("GEMM-NN", "SYMM-LL", "TRSM-LL-N")
    routine_weights: Tuple[float, ...] = (0.6, 0.25, 0.15)
    #: power-of-two size classes, smallest first
    size_classes: Tuple[int, ...] = (16, 32, 64, 128, 256, 512)
    #: Zipf exponent over size classes — small sizes dominate, the
    #: tail is rare but thousands of times more expensive (n³)
    tail_exponent: float = 1.2
    #: fraction of requests carrying a deadline
    deadline_fraction: float = 0.25
    deadline_s: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class TrafficEvent:
    """One arrival in the synthesized trace."""

    at: float
    routine: str
    n: int
    deadline_s: Optional[float] = None


def synthesize_trace(profile: TrafficProfile) -> List[TrafficEvent]:
    """Seeded Poisson/Zipf trace for :func:`replay`."""
    rng = np.random.default_rng(profile.seed)
    routine_w = np.asarray(profile.routine_weights, dtype=float)
    routine_w = routine_w / routine_w.sum()
    size_w = np.arange(1, len(profile.size_classes) + 1, dtype=float)
    size_w = size_w ** -profile.tail_exponent
    size_w = size_w / size_w.sum()

    events: List[TrafficEvent] = []
    at = 0.0
    while True:
        at += rng.exponential(1.0 / profile.rate_qps)
        if at >= profile.duration_s:
            return events
        routine = profile.routines[rng.choice(len(profile.routines), p=routine_w)]
        n = int(profile.size_classes[rng.choice(len(profile.size_classes), p=size_w)])
        deadline = (
            profile.deadline_s
            if rng.random() < profile.deadline_fraction
            else None
        )
        events.append(TrafficEvent(at=at, routine=routine, n=n, deadline_s=deadline))


@dataclass(frozen=True)
class ServiceModel:
    """Modeled durations of the replay (the only non-real component).

    Defaults follow the measured serving benchmarks: dispatch overhead
    in the hundreds of microseconds (``BENCH_serve.json``
    ``hot_dispatch_s``), cold tunes in the hundreds of milliseconds.
    """

    #: modeled kernel throughput of a tuned plan
    tuned_gflops: float = 300.0
    #: baseline (fallback) throughput — the degraded path
    fallback_gflops: float = 100.0
    #: per-request dispatch cost (probe + queue machinery)
    overhead_s: float = 0.0003
    #: one cold tune (compose → search → verify), paid once per
    #: (routine, bucket) on its owner shard
    tune_cost_s: float = 0.25

    def kernel_time(self, n: int, *, fallback: bool = False) -> float:
        gflops = self.fallback_gflops if fallback else self.tuned_gflops
        return (2.0 * float(n) ** 3) / (gflops * 1e9)


@dataclass
class ReplayReport:
    """What one replay scenario measured."""

    shards: int
    shed_high_water: Optional[int]
    offered: int
    offered_qps: float
    completed: int
    shed: int
    fallbacks: int
    tunes: int
    sustained_qps: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    makespan_s: float
    max_queue_depth: int
    per_shard_completed: List[int] = field(default_factory=list)

    def to_record(self) -> Dict:
        record = asdict(self)
        for name in ("offered_qps", "sustained_qps"):
            record[name] = round(record[name], 1)
        for name in ("p50_ms", "p99_ms", "max_ms"):
            record[name] = round(record[name], 3)
        record["makespan_s"] = round(self.makespan_s, 4)
        return record


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


@dataclass
class _VirtualClock:
    """Virtual time: the current step's origin plus the modeled durations
    charged to it so far."""

    model: ServiceModel
    origin: float = 0.0
    charged: float = 0.0

    def __call__(self) -> float:
        return self.origin + self.charged

    def restart(self, origin: float) -> None:
        self.origin, self.charged = origin, 0.0


class _ModeledWorker(BlasService):
    """A live shard worker, and the stand-in for its buckets' generators,
    whose tune and compute steps take modeled time.  Each is one FIFO
    server: a launch starts once the previous one and its head request
    are both in."""

    busy_until = 0.0
    completed = tunes = 0

    def _execute_batch(self, batch: List[Request]) -> None:
        self.clock.restart(max(self.busy_until, batch[0].submitted_at))
        super()._execute_batch(batch)
        self.busy_until = self.clock()
        self.completed += len(batch)

    def _generator_for(self, bucket: int) -> "_ModeledWorker":
        return self

    def has_cached(self, routine: str) -> bool:
        return False

    def predict(self, routine: str) -> None:
        return None  # no cost model: a cold deadline-bound call degrades

    def generate(self, routine: str) -> str:
        self.clock.charged += self.clock.model.tune_cost_s
        self.tunes += 1
        return routine  # a modeled plan runs no kernel

    def _run_tuned(
        self, request: Request, plan=None, backend=None, fallback: bool = False
    ) -> None:
        model = self.clock.model  # charged as overhead + (tune) + kernel
        kernel_s = model.kernel_time(max(request.sizes.values()), fallback=fallback)
        self.clock.charged = model.overhead_s + self.clock.charged + kernel_s

    _run_fallback = partialmethod(_run_tuned, fallback=True)


class _ModeledTier(ShardedBlasService):
    _worker_type = _ModeledWorker


def replay(
    trace: List[TrafficEvent],
    *,
    shards: int,
    shed_high_water: Optional[int] = None,
    model: Optional[ServiceModel] = None,
    arch: GPUArch = GTX_285,
    hot_plans: int = 64,
    prewarmed: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> ReplayReport:
    """Replay a trace through the live sharded tier in virtual time.

    Before each arrival, every shard launches its queued requests that
    start by then, one per launch.  ``prewarmed=True`` starts every key
    resident on its owner shard (the rehydrated-tier scenario).  A
    deadline-carrying request degrades to the fallback when its plan is
    cold or its budget ran out in the queue, as in the live tier.
    """
    clock = _VirtualClock(model or ServiceModel())
    options = ServeOptions(
        max_batch=1, hot_plans=hot_plans, shed_high_water=shed_high_water
    )
    tier = _ModeledTier(arch, shards, options=options, telemetry=telemetry, clock=clock)
    if prewarmed:  # an uncounted twin warms every key; each shard takes its plans
        twin_clock = _VirtualClock(clock.model)
        twin = _ModeledTier(arch, shards, options=options, clock=twin_clock)
        for routine, n in dict.fromkeys((event.routine, event.n) for event in trace):
            twin.warm(routine, n)
        for source, worker in zip(twin.workers, tier.workers):
            for plan in source.table.plans():
                worker.table.insert(plan)

    pending = []
    for event in trace:
        for worker in tier.workers:
            while worker.busy_until <= event.at and worker._launch_next():
                pass
        clock.restart(event.at)
        sizes = get_spec(event.routine).make_sizes(event.n)
        deadline_s = event.deadline_s
        pending.append(tier.submit(event.routine, sizes=sizes, deadline_s=deadline_s))
    tier.flush()

    # result() raises if the live path answered any request with an error
    served = [p.result() for p in pending if p.response().source != "shed"]
    latencies = sorted(response.total_s for response in served)
    makespan = max(worker.busy_until for worker in tier.workers) or 1e-9
    duration = trace[-1].at if trace else 1e-9
    return ReplayReport(
        shards=shards,
        shed_high_water=shed_high_water,
        offered=len(trace),
        offered_qps=len(trace) / max(duration, 1e-9),
        completed=len(served),
        shed=len(trace) - len(served),
        fallbacks=sum(response.source == "fallback" for response in served),
        tunes=sum(worker.tunes for worker in tier.workers),
        sustained_qps=len(served) / makespan,
        p50_ms=_percentile(latencies, 0.50) * 1e3,
        p99_ms=_percentile(latencies, 0.99) * 1e3,
        max_ms=(latencies[-1] * 1e3) if latencies else 0.0,
        makespan_s=makespan,
        max_queue_depth=max(worker.admission.peak_depth for worker in tier.workers),
        per_shard_completed=[worker.completed for worker in tier.workers],
    )
