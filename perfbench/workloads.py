"""Workloads of the repo benchmark: inputs, measurement and metrics.

Four workloads (``layers.json`` maps every metric to its layer, clock
and the workloads it should move on):

* ``serve_small`` - closed loop, one client calling ``BlasService.run`` /
  ``run_dag`` inline: small mixed calls plus GEMM->TRSM chains, where
  per-request host overhead is a third of each call;
* ``serve_kernel`` - closed loop, one inline client: N=48/64 GEMM and
  TRSM, where the JIT kernel is nearly the whole request;
* ``serve_burst`` - closed loop of bursts: one client submits 8-32
  requests at once to the threaded dispatcher, request packing on, and
  waits for every answer before the next burst;
* ``library_generate`` - cold generation of a fixed list of paper
  variants by a fresh ``LibraryGenerator`` with no disk cache.

Every run draws all of its inputs from the seed before timing, sets up
from an empty tuning cache and a cleared kernel registry, warms up
untimed, measures, and checks every output against the float64
reference (:mod:`gate`).  The times it reports are scaled to a reference
host speed, stretch by stretch (:mod:`speed`).  Timed runs pass no
telemetry (the program's ``NullTelemetry``); the traced run
(``trace=True``) adds the spans of :mod:`tracing`, whose times are not
scaled, and a caller-supplied ``Telemetry`` whose counters it reads.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import jit
from repro.blas3.reference import random_inputs, reference
from repro.blas3.routines import get_spec
from repro.dag import Dag, chain
from repro.gpu import GTX_285
from repro.serve import BlasService, ServeOptions
from repro.serve.dispatch import size_bucket
from repro.telemetry import Telemetry
from repro.tuner import TuningOptions
from repro.tuner.library import LibraryGenerator

import gate
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
perf = time.perf_counter

ARCH = GTX_285
#: set-ups per timed run; ``setup_s`` is their median.  Workloads whose
#: set-up takes under a second set up more often (``QUICK_SETUPS``).
SETUPS = 3
QUICK_SETUPS = 7
#: tuning space of every serve set-up.  It holds the configurations the
#: curated default space picks for these routines at N <= 64, so the
#: served plans are the same, and it lets a run set up three times within
#: its budget.  library_generate searches the default space.
SERVE_SPACE = (
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
)

SMALL_ROUTINES = ("GEMM-NN", "SYMM-LL", "TRMM-LL-N", "TRSM-LL-N")
#: Zipf-weighted (rank 1 = N=8); 24 and 32 are off the 16-tile and pad
SMALL_SIZES = (8, 12, 16, 24, 32)
#: single calls and GEMM->TRSM chains per deck of requests (90% / 10%)
SMALL_DECK = (180, 20)
CHAIN_SIZES = (16, 32)

KERNEL_ROUTINES = ("GEMM-NN", "TRSM-LL-N")
KERNEL_SIZES = (48, 64)

BURST_SIZES = tuple(range(8, 33))
BURST_PLANS = (("GEMM-NN", 16), ("BGEMM-NN", 16), ("TRSM-LL-N", 16), ("SYMM-LL", 16))
#: how long the client waits for the answers to one burst
BURST_TIMEOUT_S = 60.0

#: all four families, both sides, and the transposed TRMM and TRSM
#: forms (the slow ones)
LIBRARY_VARIANTS = ("GEMM-TN", "SYMM-RL", "TRMM-RL-T", "TRSM-LL-T")
#: generated once per set-up so the list never pays first-call costs
LIBRARY_PRIMER = "GEMM-NN"
#: not a multiple of any tile: the check runs the padded path
CHECK_N = 24


def metric_specs() -> Dict[str, Dict[str, Dict]]:
    """Every metric in ``BENCHMARK.json`` order: its name, unit and
    direction from there, its clock and meaning from ``layers.json``."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    return {
        kind: {m["name"]: {**layers[kind][m["name"]], **m} for m in contract[kind]}
        for kind in ("end_to_end", "per_layer")
    }


# -- inputs ---------------------------------------------------------------

@dataclass
class Item:
    """One request: its arrays and the float64 answer it must match."""

    label: str
    arrays: Dict[str, np.ndarray]
    expected: np.ndarray
    routine: Optional[str] = None
    dag: Optional[Dag] = None

    def send(self, service):
        """Closed-loop call: returns the output once it is back."""
        if self.dag is not None:
            return service.run_dag(self.dag, **self.arrays)
        return service.run(self.routine, **self.arrays)

    def submit(self, service):
        return service.submit(self.routine, **self.arrays)


def _call(routine: str, sizes, rng) -> Item:
    if isinstance(sizes, int):
        sizes = get_spec(routine).make_sizes(sizes)
    arrays = random_inputs(routine, sizes, seed=int(rng.integers(2**31)))
    shape = "x".join(str(sizes[k]) for k in sorted(sizes))
    return Item(f"{routine}[{shape}]", arrays, reference(routine, arrays), routine=routine)


def _solve(n: int, rng, dag: Dag) -> Item:
    arrays = {
        "A": rng.standard_normal((n, n)).astype(np.float32),
        "B": rng.standard_normal((n, n)).astype(np.float32),
        "L": (np.tril(rng.standard_normal((n, n))) + n * np.eye(n)).astype(np.float32),
    }
    return Item(f"GEMM-NN>TRSM-LL-N[{n}]", arrays, dag.reference(arrays), dag=dag)


def _split(total: int, weights: Sequence[float]) -> List[int]:
    """``total`` shared out in proportion to ``weights`` (largest
    remainder), so every seed serves exactly the same mix."""
    raw = [w * total / sum(weights) for w in weights]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _stream(rng, size: int, seconds: float) -> np.ndarray:
    """Send order over a pool: one seeded shuffle per pass, enough passes
    for 2000 requests a second."""
    passes = max(1, math.ceil(seconds * 2000 / size))
    return np.concatenate([rng.permutation(size) for _ in range(passes)])


@dataclass
class Case:
    """Everything one workload run needs, drawn from the seed."""

    name: str
    loop: str
    options: Optional[ServeOptions] = None
    #: (routine, n) plans warmed during set-up
    plans: Sequence[Tuple[str, int]] = ()
    #: chain requests sent during set-up (a chain plan builds on first use)
    primers: List[Item] = field(default_factory=list)
    #: distinct requests (or bursts of requests), and the order of the
    #: pool indices they are sent in
    pool: List[Item] = field(default_factory=list)
    bursts: List[List[Item]] = field(default_factory=list)
    stream: Optional[np.ndarray] = None
    #: library_generate: variants in generation order, and their checks
    variants: List[str] = field(default_factory=list)
    checks: Dict[str, Item] = field(default_factory=dict)
    setups: int = SETUPS


def serve_small(rng, seconds: float, tiny: bool = False) -> Case:
    routines = SMALL_ROUTINES[:1] if tiny else SMALL_ROUTINES
    sizes = (12, 16) if tiny else SMALL_SIZES
    chain_sizes = CHAIN_SIZES[:1] if tiny else CHAIN_SIZES
    singles, chains = (4, 2) if tiny else SMALL_DECK
    solve = Dag(chain(("GEMM-NN", {"A": "A", "B": "B"}), ("TRSM-LL-N", {"A": "L"})))
    zipf = [1.0 / rank for rank in range(1, len(sizes) + 1)]
    pool: List[Item] = []
    for routine, count in zip(routines, _split(singles, [1.0] * len(routines))):
        for n, k in zip(sizes, _split(count, zipf)):
            pool += [_call(routine, n, rng) for _ in range(k)]
    for n, k in zip(chain_sizes, _split(chains, [1.0] * len(chain_sizes))):
        pool += [_solve(n, rng, solve) for _ in range(k)]
    buckets = sorted({size_bucket({"N": n}) for n in sizes})
    return Case(
        "serve_small",
        "closed loop, 1 client, inline BlasService.run/run_dag",
        options=ServeOptions(fuse_dags=True),
        plans=[(routine, b) for routine in routines for b in buckets],
        primers=[_solve(n, rng, solve) for n in chain_sizes],
        pool=pool,
        stream=_stream(rng, len(pool), seconds),
    )


def serve_kernel(rng, seconds: float, tiny: bool = False) -> Case:
    routines = KERNEL_ROUTINES[:1] if tiny else KERNEL_ROUTINES
    sizes = (16,) if tiny else KERNEL_SIZES
    pool = [_call(r, n, rng) for r in routines for n in sizes for _ in range(2)]
    buckets = sorted({size_bucket({"N": n}) for n in sizes})
    return Case(
        "serve_kernel",
        "closed loop, 1 client, inline BlasService.run",
        options=ServeOptions(),
        plans=[(routine, b) for routine in routines for b in buckets],
        pool=pool,
        stream=_stream(rng, len(pool), seconds),
        setups=QUICK_SETUPS,
    )


def _burst(size: int, rng) -> List[Item]:
    """Half GEMM-NN with dims in 9..16 (pad-packed into one BGEMM launch),
    a quarter each of 16x16 TRSM-LL-N and SYMM-LL (exact-shape groups)."""
    gemms = size // 2
    trsms = (size - gemms) // 2
    items = [
        _call("GEMM-NN", dict(zip("MNK", map(int, rng.integers(9, 17, 3)))), rng)
        for _ in range(gemms)
    ]
    items += [_call("TRSM-LL-N", 16, rng) for _ in range(trsms)]
    items += [_call("SYMM-LL", 16, rng) for _ in range(size - gemms - trsms)]
    return [items[i] for i in rng.permutation(len(items))]


def serve_burst(rng, seconds: float, tiny: bool = False) -> Case:
    # one burst of every size 8..32, sent in a seeded order per pass
    bursts = [_burst(size, rng) for size in ((8, 12) if tiny else BURST_SIZES)]
    return Case(
        "serve_burst",
        "closed loop of bursts: 1 client submits 8-32 requests at once to the "
        "dispatcher thread and waits for all of them before the next burst",
        options=ServeOptions(pack_requests=True, max_batch=8),
        plans=BURST_PLANS,
        bursts=bursts,
        stream=_stream(rng, len(bursts), seconds),
    )


def library_generate(rng, seconds: float, tiny: bool = False) -> Case:
    # The list is generated in a fixed order (the first routine after a
    # cleared kernel registry compiles the kernels the others share); the
    # seed draws the arrays each generated routine is checked on.
    variants = [LIBRARY_PRIMER] if tiny else list(LIBRARY_VARIANTS)
    return Case(
        "library_generate",
        "fixed work repeated until the run length is reached: a fresh "
        "LibraryGenerator generates the whole list",
        variants=variants,
        checks={name: _call(name, CHECK_N, rng) for name in variants},
        setups=QUICK_SETUPS,
    )


BUILDERS: Dict[str, Callable[..., Case]] = {
    "serve_small": serve_small,
    "serve_kernel": serve_kernel,
    "serve_burst": serve_burst,
    "library_generate": library_generate,
}


# -- isolation ------------------------------------------------------------

class Scratch:
    """Empty tuning-cache directories inside the checkout, removed on close."""

    def __init__(self):
        self.base = ROOT / ".perfbench_tmp"
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.base))

    def fresh(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run still uses it


# -- serving --------------------------------------------------------------

Check = Callable[["Item", object, Optional[str]], None]


def _send(service, item: Item):
    try:
        return item.send(service), None
    except Exception as exc:  # an error response fails the request, not the run
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class Setup:
    service: Optional[BlasService]
    seconds: float
    plan_s: List[float]
    gflops: List[float]


def setup_serve(
    case: Case, cache_dir: Path, check: Check, host: speed.HostSpeed, telemetry=None
) -> Setup:
    """From an empty tuning cache and kernel registry to every plan of
    the case warm; ``seconds`` covers exactly that, each piece scaled to
    the reference host speed."""
    jit.clear_cache()
    gc.collect()  # every set-up starts from the same collector state
    service, built = host.time(lambda: BlasService(
        ARCH,
        options=case.options,
        tuning=TuningOptions(jobs=1, space=SERVE_SPACE, cache_dir=cache_dir),
        telemetry=telemetry,
    ))
    plan_s, gflops, primed = [], [], []
    for routine, n in case.plans:
        plan, seconds = host.time(lambda: service.warm(routine, n))
        plan_s.append(seconds)
        gflops.append(plan.tuned.tuned_gflops)
    for item in case.primers:
        sent, seconds = host.time(lambda: _send(service, item))
        primed.append((item, *sent))
        plan_s.append(seconds)
    for item, output, error in primed:
        check(item, output, error)
    return Setup(service, built + sum(plan_s), plan_s, gflops)


def warm_up(service: BlasService, case: Case, check: Check) -> None:
    """Untimed: every distinct request once, so kernel compiles for
    padded shapes stay out of the latencies.  Starts the dispatcher of
    a burst case."""
    for item in case.pool:
        check(item, *_send(service, item))
    if case.bursts:
        service.start()
        for burst in case.bursts:
            _check_all(check, send_burst(service, burst)[1])


@dataclass
class Phase:
    """One measured stretch: a latency per answered request (seconds)."""

    latencies: List[float]
    elapsed: float
    results: List[Tuple[Item, object, Optional[str]]]
    #: every latency of each pooled request, keyed by (pool index,
    #: position in its burst); the pool is sent over and over, so each
    #: request is timed once per pass
    sends: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)
    #: every send time of each pool index (request, or whole burst)
    durations: Dict[int, List[float]] = field(default_factory=dict)


def send_burst(service: BlasService, burst: Sequence[Item]):
    """Submit every request of ``burst`` at once and wait for all of them.

    Returns a latency per request (submission of the burst to its own
    answer, stamped on the dispatcher thread as it lands; ``None`` if
    unanswered) and a result per request."""
    landed: Dict[int, float] = {}
    all_landed = threading.Event()

    def land(pending) -> None:
        landed[pending.request_id] = perf()
        if len(landed) == len(burst):
            all_landed.set()

    sent = perf()
    pendings = []
    for item in burst:
        pending = item.submit(service)
        pending.add_done_callback(land)
        pendings.append(pending)
    all_landed.wait(BURST_TIMEOUT_S)
    latencies, results = [], []
    for item, pending in zip(burst, pendings):
        if pending.request_id not in landed:
            latencies.append(None)
            results.append((item, None, "unanswered"))
            continue
        response = pending.response(timeout=0)
        latencies.append(landed[pending.request_id] - sent)
        results.append((item, response.output, response.error))
    return latencies, results


def measure(
    service: BlasService, case: Case, seconds: float, host: speed.HostSpeed, recorder=None
) -> Phase:
    """Closed loop for ``seconds``: the next request (or burst) goes out
    when the previous one is answered.  Every ``speed.STRETCH_S`` the
    host speed is sampled, and the times of the stretch since the last
    sample are scaled to the reference speed."""
    phase = Phase([], 0.0, [])
    stretch: List[Tuple[int, List[Optional[float]], float]] = []

    def close_stretch() -> None:
        scale = host.factor()
        for index, latencies, duration in stretch:
            phase.durations.setdefault(index, []).append(duration * scale)
            for member, latency in enumerate(latencies):
                if latency is not None:
                    phase.sends.setdefault((index, member), []).append(latency * scale)
                    phase.latencies.append(latency * scale)
        stretch.clear()

    gc.collect()
    host.mark()
    start = perf()
    stop = start + seconds
    sampled = start
    i = 0
    while perf() < stop:
        index = int(case.stream[i % len(case.stream)])
        began = perf()
        if case.bursts:
            latencies, answered = send_burst(service, case.bursts[index])
        else:
            item = case.pool[index]
            if recorder is None:
                output, error = _send(service, item)
            else:
                with recorder.span("serve.request", rid=i):
                    output, error = _send(service, item)
            latencies, answered = [perf() - began], [(item, output, error)]
        stretch.append((index, latencies, perf() - began))
        phase.results += answered
        i += 1
        if perf() - sampled >= speed.STRETCH_S:
            close_stretch()
            sampled = perf()
    close_stretch()
    phase.elapsed = perf() - start
    return phase


def _percentiles_ms(seconds: Sequence[float]) -> Tuple[float, float, float]:
    if not len(seconds):
        return 0.0, 0.0, 0.0
    p50, p90, p99 = np.percentile(np.asarray(seconds) * 1e3, [50, 90, 99])
    return float(p50), float(p90), float(p99)


def _geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.mean(math.log(v) for v in values))


def _check_all(check: Check, results) -> None:
    for item, output, error in results:
        check(item, output, error)


def time_serve(
    case: Case, seconds: float, check: Check, scratch: Scratch, host: speed.HostSpeed, _dump
) -> Dict[str, float]:
    setups: List[Setup] = []
    for _ in range(case.setups):
        if setups:
            setups[-1].service.close()
            setups[-1].service = None  # let the previous set-up's plans go
        setups.append(setup_serve(case, scratch.fresh(), check, host))
    service = setups[-1].service
    warm_up(service, case, check)
    phase = measure(service, case, seconds, host)
    service.close()
    _check_all(check, phase.results)
    # Every pass over the pool sends each request (or burst) once, so each
    # is timed many times.  Every figure below is taken from each one's
    # mean time, so the tail percentiles are the costliest requests, not
    # the sends that happened to be slow.
    latency = [statistics.fmean(times) for times in phase.sends.values()]
    members = [len(b) for b in case.bursts] if case.bursts else [1] * len(case.pool)
    sent = {index: statistics.fmean(times) for index, times in phase.durations.items()}
    p50, p90, p99 = _percentiles_ms(latency)
    sends = [len(times) for times in phase.durations.values()]
    print(
        f"measured {len(phase.latencies)} answered requests in {phase.elapsed:.3f} s; "
        f"each request's latency is the mean of its {min(sends)}-{max(sends)} sends"
    )
    # Each plan's set-up time is its median over the set-ups, so that the
    # process's first set-up, which also pays one-off first-call costs,
    # does not move it.
    plan_s = [statistics.median(times) for times in zip(*(s.plan_s for s in setups))]
    return {
        "setup_s": statistics.median(s.seconds for s in setups),
        "throughput_rps": sum(members[i] for i in sent) / sum(sent.values()),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "latency_p99_ms": p99,
        "generate_s_p50": statistics.median(plan_s),
        "library_s": sum(plan_s),
        "library_gflops_geomean": _geomean(setups[-1].gflops),
    }


def trace_serve(
    case: Case, seconds: float, check: Check, scratch: Scratch, host: speed.HostSpeed, dump
) -> Dict[str, float]:
    half = seconds / 2
    # the untraced baseline: what the timed runs do, at half length
    plain_setup = setup_serve(case, scratch.fresh(), check, host)
    warm_up(plain_setup.service, case, check)
    plain = measure(plain_setup.service, case, half, host)
    plain_setup.service.close()
    plain_setup.service = None

    recorder = tracing.Recorder()
    telemetry = Telemetry()
    with tracing.instrumented(recorder):
        traced = setup_serve(case, scratch.fresh(), check, host, telemetry)
        recorder.phase = "warmup"
        warm_up(traced.service, case, check)
        built = telemetry.metrics.snapshot()
        recorder.phase = "measure"
        phase = measure(traced.service, case, half, host, recorder)
        traced.service.close()
    everything = telemetry.metrics.snapshot()
    _check_all(check, plain.results + phase.results)
    requests = len(phase.results)
    print_tables(recorder, requests, "setup")
    dump(recorder)
    return layer_metrics(
        recorder,
        requests,
        build_phase="setup",
        counters=_delta(everything, built),
        built=built,
        everything=everything,
        overhead=statistics.mean(phase.latencies) / statistics.mean(plain.latencies) - 1.0,
    )


# -- library generation ---------------------------------------------------

@dataclass
class Rep:
    """One generation of the whole list by a fresh generator."""

    seconds: float
    per_routine: List[float]
    routines: Dict[str, object]
    errors: Dict[str, str]


def _prime(times: int, host: speed.HostSpeed) -> List[float]:
    """Set-up: a fresh generator builds the base routine from an empty
    kernel registry, so the list never pays first-call costs."""
    seconds = []
    for _ in range(times):
        jit.clear_cache()
        gc.collect()
        generator = LibraryGenerator(ARCH, options=TuningOptions(jobs=1))
        seconds.append(host.time(lambda: generator.generate(LIBRARY_PRIMER))[1])
    return seconds


def generate_list(variants: Sequence[str], host: speed.HostSpeed, telemetry=None) -> Rep:
    """One fresh generator generates ``variants``; each routine's time is
    scaled to the reference host speed."""
    jit.clear_cache()
    generator = LibraryGenerator(ARCH, telemetry=telemetry, options=TuningOptions(jobs=1))
    per_routine, routines, errors = [], {}, {}
    gc.collect()

    def generate(name: str):
        try:
            routines[name] = generator.generate(name)
        except Exception as exc:  # a routine that fails to generate is a failed operation
            errors[name] = f"{type(exc).__name__}: {exc}"

    for name in variants:
        per_routine.append(host.time(lambda: generate(name))[1])
    return Rep(sum(per_routine), per_routine, routines, errors)


def _check_rep(rep: Rep, case: Case, check: Check) -> None:
    for name, error in rep.errors.items():
        check(case.checks[name], None, f"generation failed: {error}")
    for name, tuned in rep.routines.items():
        item = case.checks[name]
        try:
            output, error = tuned.run(**item.arrays), None
        except Exception as exc:  # a generated routine that cannot run fails its check
            output, error = None, f"{type(exc).__name__}: {exc}"
        check(item, output, error)


def time_library(
    case: Case, seconds: float, check: Check, _scratch, host: speed.HostSpeed, _dump
) -> Dict[str, float]:
    setup = _prime(case.setups, host)
    reps: List[Rep] = []
    start = perf()
    while not reps or perf() - start < seconds:
        if reps:
            # checked and dropped before the next generation, so peak
            # memory does not grow with the number of repetitions
            _check_rep(reps[-1], case, check)
            reps[-1].routines = {}
        reps.append(generate_list(case.variants, host))
    _check_rep(reps[-1], case, check)
    # as on the serve workloads: each routine's time is its mean over the
    # repetitions, and the percentiles are taken over those means
    per_routine = [statistics.fmean(times) for times in zip(*(rep.per_routine for rep in reps))]
    p50, p90, p99 = _percentiles_ms(per_routine)
    return {
        "setup_s": statistics.median(setup),
        "throughput_rps": len(reps) * len(case.variants) / sum(rep.seconds for rep in reps),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "latency_p99_ms": p99,
        "generate_s_p50": statistics.median(per_routine),
        "library_s": statistics.median(rep.seconds for rep in reps),
        "library_gflops_geomean": _geomean(
            [tuned.gflops(4096) for tuned in reps[-1].routines.values()]
        ),
    }


def trace_library(
    case: Case, seconds: float, check: Check, _scratch, host: speed.HostSpeed, dump
) -> Dict[str, float]:
    _prime(1, host)
    plain = generate_list(case.variants, host)
    recorder = tracing.Recorder()
    recorder.phase = "measure"
    telemetry = Telemetry()
    with tracing.instrumented(recorder):
        traced = generate_list(case.variants, host, telemetry)
    everything = telemetry.metrics.snapshot()
    _check_rep(plain, case, check)
    _check_rep(traced, case, check)
    print_tables(recorder, len(case.variants), "measure")
    dump(recorder)
    return layer_metrics(
        recorder,
        len(case.variants),
        build_phase="measure",
        counters=everything,
        built=everything,
        everything=everything,
        overhead=traced.seconds / plain.seconds - 1.0,
    )


# -- per-layer metrics ----------------------------------------------------

#: spans whose time is not host overhead: the kernel (with its
#: fingerprint) and the analytic profile
HOT = ("jit.kernel", "jit.fingerprint", "gpu.profile")


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    recorder: tracing.Recorder,
    requests: int,
    *,
    build_phase: str,
    counters: Dict[str, int],
    built: Dict[str, int],
    everything: Dict[str, int],
    overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    "Per request" figures divide by the measured requests (routines on
    library_generate).  Tuning figures cover ``build_phase``: set-up on
    the serve workloads, the measured generation on library_generate.
    ``counters`` are the program's own counters over the measured phase,
    ``built`` through the end of set-up and warm-up, ``everything`` over
    the whole traced part.
    """
    spans = recorder.spans
    selfs = tracing.self_times(spans)
    roots = tracing.root_of(spans)
    n = max(requests, 1)

    def chosen(phase, name):
        return [i for i, s in enumerate(spans) if s.phase == phase and s.name == name]

    def total(indices):
        return sum(spans[i].duration for i in indices)

    def own(indices):
        return sum(selfs[i] for i in indices)

    def info(indices, key):
        return [spans[i].info[key] for i in indices if spans[i].info is not None]

    def outermost(indices, name):
        keep = []
        for i in indices:
            parent = spans[i].parent
            while parent is not None and spans[parent].name != name:
                parent = spans[parent].parent
            if parent is None:
                keep.append(i)
        return keep

    measured = [i for i, s in enumerate(spans) if s.phase == "measure"]
    top = [i for i in measured if spans[i].parent is None]
    wall = total(top)
    hot: Dict[int, List[Tuple[float, float]]] = {}
    for i in measured:
        if spans[i].name in HOT:
            hot.setdefault(roots[i], []).append((spans[i].start, spans[i].end))
    host = sum(spans[i].duration - tracing.covered(hot.get(i, ())) for i in top)

    kernels = chosen("measure", "jit.kernel")
    fingerprints = chosen("measure", "jit.fingerprint")
    profiles = chosen("measure", "gpu.profile")
    analyses = chosen("measure", "codegen.analyze")
    waits = info(chosen("measure", "serve.fulfill"), "wait_s")
    batches = [size for size in info(chosen("measure", "serve.batch"), "size") if size]
    dispatches = chosen("measure", "serve.dispatch")
    logical = sum(info(chosen("measure", "serve.pack"), "logical_macs"))
    chains = chosen("measure", "tuner.chain_execute")
    served = counters.get("serve.requests", 0)
    waste = counters.get("serve.pack_waste", 0)
    wait_p50, wait_p90, _ = _percentiles_ms(waits)

    generates = outermost(chosen(build_phase, "tuner.generate"), "tuner.generate")
    searches = chosen(build_phase, "tuner.search")
    units = sum(info(searches, "units"))
    verifies = chosen(build_phase, "tuner.verify")
    composes = chosen(build_phase, "composer.compose")
    translates = chosen(build_phase, "epod.translate")
    lowers = [i for i, s in enumerate(spans) if s.name == "jit.lower"]
    edges = built.get("fusion.legal_edges", 0) + built.get("fusion.illegal_edges", 0)

    return {
        "serve.host_overhead_us": host / n * 1e6,
        "serve.lookup_us": total(chosen("measure", "serve.lookup")) / n * 1e6,
        "serve.queue_wait_ms_p50": wait_p50,
        "serve.queue_wait_ms_p90": wait_p90,
        "serve.batch_size_mean": statistics.mean(batches) if batches else 0.0,
        "serve.kernel_calls_per_launch": _share(len(kernels), len(dispatches)),
        "serve.packed_frac": _share(counters.get("serve.packed", 0), served),
        "serve.pack_waste_frac": _share(waste, waste + logical),
        "serve.fallback_frac": _share(counters.get("serve.fallbacks", 0), served),
        "jit.kernel_us": own(kernels) / n * 1e6,
        "jit.kernel_share": _share(own(kernels), wall),
        "jit.fingerprint_us": total(fingerprints) / n * 1e6,
        "jit.fingerprint_calls_per_request": len(fingerprints) / n,
        "jit.compile_count": built.get("jit.compile", 0),
        "jit.lower_s": total(lowers),
        "jit.fallback_count": everything.get("jit.fallback", 0),
        "gpu.profile_us": total(profiles) / n * 1e6,
        "gpu.profile_calls_per_request": len(profiles) / n,
        "gpu.modeled_us_per_request": sum(info(profiles, "modeled_s")) / n * 1e6,
        "gpu.flops_per_request": sum(info(profiles, "flops")) / n,
        "gpu.bytes_per_request": sum(info(profiles, "bytes")) / n,
        "codegen.analyze_us": total(analyses) / n * 1e6,
        "codegen.analyze_calls": len(analyses) / n,
        "tuner.generate_s": total(generates),
        "tuner.search_s": total(searches),
        "tuner.search_units": units,
        "tuner.search_us_per_unit": _share(total(searches), units) * 1e6,
        "tuner.verify_s": total(verifies),
        "tuner.verify_checks": len(verifies),
        "tuner.verify_pass_frac": _share(sum(info(verifies, "ok")), len(verifies)),
        "tuner.chain_execute_us": _share(total(chains), len(chains)) * 1e6,
        "composer.compose_s": total(composes),
        "composer.candidates": sum(info(composes, "candidates")),
        "epod.translate_s": total(translates),
        "epod.translate_calls": len(translates),
        "fusion.fused_frac": _share(built.get("fusion.fused", 0), edges),
        "trace.overhead_frac": overhead,
        "trace.attributed_frac": _share(wall - own(top), wall),
    }


def print_tables(recorder: tracing.Recorder, requests: int, build_phase: str) -> None:
    """The per-layer self-time tables (a span name's prefix is its layer)."""
    spans = recorder.spans
    selfs = tracing.self_times(spans)
    phases = [("measure", f"measured phase, {requests} requests")]
    if build_phase != "measure":
        phases.append((build_phase, "set-up from an empty cache"))
    for phase, title in phases:
        rows = tracing.layer_table(spans, selfs, lambda s: s.phase == phase)
        print(f"per-layer self time, {title}, host wall-clock")
        print(f"  {'span':24s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} "
              f"{'self us/req':>12s} {'share':>7s}")
        for row in rows:
            print(
                f"  {row['name']:24s} {row['calls']:8d} {row['total_s'] * 1e3:11.2f} "
                f"{row['self_s'] * 1e3:11.2f} {row['self_s'] / max(requests, 1) * 1e6:12.1f} "
                f"{row['self_share'] * 100:6.1f}%"
            )
        top = [i for i, s in enumerate(spans) if s.phase == phase and s.parent is None]
        wall = sum(spans[i].duration for i in top)
        summed = sum(selfs[i] for i, s in enumerate(spans) if s.phase == phase)
        print(f"  self times sum to {summed * 1e3:.2f} ms of {wall * 1e3:.2f} ms "
              f"wall time in {len(top)} top-level spans")


# -- the run --------------------------------------------------------------

RUNNERS = {
    False: {"serve": time_serve, "library": time_library},
    True: {"serve": trace_serve, "library": trace_library},
}


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "search_jobs": 1,
    }


def run(name: str, seed: int, seconds: float, trace: bool = False, tiny: bool = False) -> Dict:
    """One benchmark run; returns the result object the CLI prints last."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    rng = np.random.default_rng(seed)
    case = BUILDERS[name](rng, seconds / 2 if trace else seconds, tiny)
    if tiny:
        case.setups = 1
    print(f"workload {name} ({case.loop}), seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("environment " + json.dumps(environment()))

    checks = gate.Gate()

    def check(item: Item, output, error: Optional[str]) -> None:
        checks.check(item.label, output, item.expected, error)

    def dump(recorder: tracing.Recorder) -> None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{name}-seed{seed}.json"
        recorder.write(path)
        print(f"{len(recorder.spans)} spans written to {path.relative_to(ROOT)}")

    runner = RUNNERS[trace]["library" if case.variants else "serve"]
    scratch = Scratch()
    host = speed.HostSpeed()
    try:
        metrics = runner(case, seconds, check, scratch, host, dump)
    finally:
        scratch.close()
    samples = np.asarray(host.samples) * 1e3
    print(
        f"host speed: {len(samples)} samples of the calibration loop, median "
        f"{np.median(samples):.3f} ms (range {samples.min():.3f}-{samples.max():.3f}); "
        f"times are scaled to the reference {speed.REFERENCE_S * 1e3:.3f} ms"
    )
    if not trace:
        metrics["success_frac"] = 1.0 - checks.failed / max(checks.attempted, 1)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if set(metrics) != set(specs):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(specs))} disagree with layers.json")

    for metric, spec in specs.items():
        print(f"{metric:34s} {metrics[metric]:16.6g} {spec['unit']:8s} ({spec['clock']} clock)")
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    print(
        f"correctness: {checks.attempted} outputs checked against the float64 "
        f"reference, {checks.failed} failed; worst passing error "
        f"{checks.worst:.3f} of the tolerance"
    )
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": spec["unit"]}
            for metric, spec in specs.items()
        },
    }
