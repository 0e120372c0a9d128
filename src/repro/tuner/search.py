"""Variant + parameter search ("The best among the set is searched for",
paper §II).

For one routine on one architecture the search crosses:

* the candidate EPOD scripts the composer produced (one per accepted
  adaptor-rule interleaving), and
* the tile/thread configurations of the parameter space,

scoring each with the analytic performance model at the tuning size
(the paper's 4096).  A curated sub-space keeps the default search fast;
``full_space=True`` sweeps everything.

Units are evaluated one config at a time (:func:`_evaluate_config`):
one translator walks that config's candidates in script-key order, its
step memo applies each transform step (input, component, arguments)
once however many candidates reach it, and each distinct kernel is
profiled once.  The configs fan out over a
process pool (``jobs=`` workers, default ``os.cpu_count()``), one config
per task; workers rebuild their :class:`~repro.gpu.simulator.SimulatedGPU`
locally and run the same function as the sequential path.  The parent
reduces the scores in candidate-major (candidate, config) order, so the
winner is bit-identical to the sequential run.  Counter:
``search.kernels_reused``.

With a trained cost model (:mod:`repro.tuner.predictor`) and a ``topk``
budget the search stops being exhaustive: the model ranks the pruned
space and only the top-k configurations are evaluated, with an
exact-fallback guard widening to the rest of the space when every
predicted pick fails.  Counters: ``predictor.rank``,
``search.units_skipped``, ``predictor.exact_fallback``.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..composer.generator import ComposedScript
from ..epod.translator import EpodTranslator
from ..gpu.arch import GPUArch
from ..gpu.simulator import SimulatedGPU
from ..ir.ast import Computation
from ..telemetry import Metrics, Telemetry, ensure_telemetry
from .options import TuningOptions, resolve_options
from .space import Config, DEFAULT_SPACE, prune_space

__all__ = [
    "SearchResult",
    "CandidateScore",
    "RankResult",
    "VariantSearch",
    "CURATED_SPACE",
    "rank",
    "rank_key",
    "resolve_jobs",
]

#: A representative spread of tile shapes (Volkov-style row kernels,
#: square tiles, wide thread blocks) used by the default search.
CURATED_SPACE: List[Config] = [
    {"BM": 64, "BN": 16, "KT": 16, "TX": 64, "TY": 1},
    {"BM": 64, "BN": 16, "KT": 16, "TX": 32, "TY": 2},
    {"BM": 64, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 64, "BN": 16, "KT": 8, "TX": 64, "TY": 1},
    {"BM": 32, "BN": 16, "KT": 16, "TX": 32, "TY": 1},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 128, "BN": 16, "KT": 16, "TX": 64, "TY": 1},
    {"BM": 128, "BN": 16, "KT": 16, "TX": 32, "TY": 4},
    {"BM": 64, "BN": 32, "KT": 16, "TX": 32, "TY": 4},
    {"BM": 64, "BN": 32, "KT": 8, "TX": 64, "TY": 2},
    {"BM": 64, "BN": 64, "KT": 16, "TX": 32, "TY": 8},
    {"BM": 16, "BN": 64, "KT": 16, "TX": 16, "TY": 8},
]


@dataclass
class CandidateScore:
    """The scalar outcome of one (script, config) unit.

    Scores keep no kernel: the search drops the translated IR once it
    has profiled it.  :attr:`comp` rebuilds the kernel on first access
    by re-translating ``script`` at ``config`` against the search's
    shared ``source`` and caches it on the score, so only the kernels a
    caller actually touches (the verified winner, its fallback) stay
    alive.
    """

    script: ComposedScript
    config: Config
    gflops: float
    error: str = ""
    #: effective (post-degeneration) component sequence of the translation
    applied_key: Tuple = ()
    #: minimum kernel occupancy of the profiled unit (0.0 when it failed)
    occupancy: float = 0.0
    #: the routine's untransformed computation, shared by every score of
    #: one search (``None`` for scores that cannot rebuild a kernel)
    source: Optional[Computation] = field(default=None, repr=False, compare=False)
    _comp: Optional[Computation] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.error and self.gflops > 0

    @property
    def comp(self) -> Optional[Computation]:
        """The unit's kernel, rebuilt from ``script`` at ``config``.

        The rebuild counts nothing (no ``metrics``), so telemetry totals
        match a run that never asked.  A rebuild whose effective
        component sequence differs from the recorded one means the
        translator is not deterministic — that raises rather than hand
        out a kernel the score does not describe.
        """
        if self._comp is None and self.ok and self.source is not None:
            result = EpodTranslator(dict(self.config)).translate(
                self.source, self.script.script, mode="filter"
            )
            if result.applied_key != self.applied_key:
                raise RuntimeError(
                    f"{self.source.name}: rebuilding config {self.config} "
                    f"applied {result.applied_key}, but the search recorded "
                    f"{self.applied_key}"
                )
            self._comp = result.comp
        return self._comp


def rank_key(score: CandidateScore) -> Tuple:
    """Total ordering for score rankings: GFLOPS descending, ties broken
    on the config knobs and the script's provenance.

    A bare ``-gflops`` key is unstable across runs whenever two units
    model identically (common on the power-of-two lattice), which made
    top-k corpora and verified-winner walks depend on sort incidentals.
    """
    return (
        -score.gflops,
        tuple(sorted(score.config.items())),
        score.script.provenance,
    )


@dataclass
class SearchResult:
    routine: str
    arch: GPUArch
    best: CandidateScore
    scores: List[CandidateScore] = field(default_factory=list)
    #: whether every (script, config) unit of the pruned space was
    #: evaluated (False for a model-guided top-k search)
    complete: bool = True
    #: the top-k budget the search ran under (``None`` = exhaustive)
    topk: Optional[int] = None
    #: units actually scored (≤ candidates × configs when top-k)
    units_evaluated: int = 0

    def top(self, n: int = 5) -> List[CandidateScore]:
        """Best ``n`` scores in deterministic order (see :func:`rank_key`)."""
        return sorted((s for s in self.scores if s.ok), key=rank_key)[:n]


@dataclass
class RankResult:
    """The outcome of :func:`rank`: the ``winner`` candidate, its
    ``timing``, the ``baseline`` (first candidate's) timing and every
    ``(candidate, timing)`` pair costed, in order."""

    winner: object
    timing: object
    baseline: object
    evaluated: List[Tuple[object, object]] = field(default_factory=list)


def rank(candidates: Iterable, cost: Callable) -> RankResult:
    """Cost every candidate and keep the fastest by ``cost(c).time_s``.

    The first candidate is the baseline — the all-unfused chain mask,
    the 1D panel split — and a later one replaces the current winner
    only when *strictly* faster: fusing or distributing differently is
    an optimisation, never a semantic change, so ties keep the plan that
    needs no new execution path.  An infeasible candidate costs ``inf``
    and so never wins.  Chain-mask and distribution-plan choices both
    go through here (:func:`repro.tuner.chain.build_chain_plan`,
    :meth:`repro.dist.executor.DistLibrary.generate`).
    """
    evaluated = [(candidate, cost(candidate)) for candidate in candidates]
    if not evaluated:
        raise ValueError("rank needs at least one candidate: the baseline")
    # min() keeps the first of equal minima, so ties go to the baseline
    winner, timing = min(evaluated, key=lambda pair: pair[1].time_s)
    return RankResult(winner, timing, evaluated[0][1], evaluated)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs=`` knob: ``None``/0 → ``os.cpu_count()``."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


#: Exceptions that mean "the *pool* is broken", not "the caller wrote a
#: bug": missing/limited OS support (OSError, ImportError), state that
#: cannot cross the process boundary (PicklingError) or a worker killed
#: under us (BrokenProcessPool).
_POOL_FAILURES = (OSError, ImportError, pickle.PicklingError, BrokenProcessPool)


def _is_pool_failure(exc: BaseException) -> bool:
    """Whether ``exc`` warrants the sequential fallback (vs re-raising).

    CPython reports some unpicklable objects as ``TypeError``/
    ``AttributeError`` ("cannot pickle ...", "Can't pickle local
    object ...") rather than ``PicklingError``, so those are inspected
    by message; every other ``TypeError`` is a genuine programming
    error and propagates.
    """
    if isinstance(exc, _POOL_FAILURES):
        return True
    if isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower():
        return True
    return False


#: What one evaluated unit leaves behind: ``(gflops, error, applied_key,
#: occupancy)``, in :class:`CandidateScore` field order.  Scalars only —
#: the kernel and its analytic models die with the evaluation, so nothing
#: heavy crosses the pool boundary or outlives the search.
Outcome = Tuple[float, str, Tuple, float]


def _profile(
    gpu: SimulatedGPU, comp: Computation, sizes: Dict[str, int], nominal: float
) -> Tuple[float, str, float, Optional[str]]:
    """``(gflops, error, occupancy, counter)`` of one kernel, where
    ``counter`` names the failure counter a unit with it bumps."""
    try:
        run = gpu.profile(comp, sizes, nominal_flops=nominal)
    except Exception as exc:
        return 0.0, f"profile: {exc}", 0.0, "search.profile_errors"
    if not run.feasible:
        return 0.0, "infeasible occupancy", 0.0, "search.infeasible"
    occupancy = min(
        (k.occupancy.occupancy for k in run.timing.kernels), default=0.0
    )
    return run.gflops, "", occupancy, None


def _evaluate_config(
    gpu: SimulatedGPU,
    source: Computation,
    candidates: Sequence[ComposedScript],
    config: Config,
    sizes: Dict[str, int],
    nominal: float,
    metrics: Optional[Metrics] = None,
) -> List[Outcome]:
    """Score every candidate script at one config — the search's unit of
    work, one :data:`Outcome` per candidate, in candidate order.

    One translator walks the candidates in script-key order, so its
    step memo applies each transform step once per config, and each
    distinct :attr:`~repro.epod.translator.TranslationResult.kernel_key`
    is profiled once; a unit whose kernel was already profiled reuses
    that outcome (``search.kernels_reused``).  Module-level so both the
    sequential path and the pool workers run the identical code.
    ``metrics`` (a worker-local or the parent's registry) counts units,
    translate/profile errors, infeasible units and omitted components
    exactly as if every unit had been translated and profiled alone.
    """
    metrics = metrics if metrics is not None else Metrics()
    translator = EpodTranslator(dict(config), metrics=metrics)
    profiled: Dict[Tuple, Tuple[float, str, float, Optional[str]]] = {}
    outcomes: List[Outcome] = [None] * len(candidates)
    order = sorted(range(len(candidates)), key=lambda ci: candidates[ci].script.key())
    for ci in order:
        metrics.incr("search.units")
        try:
            result = translator.translate(source, candidates[ci].script, mode="filter")
        except Exception as exc:
            metrics.incr("search.translate_errors")
            outcomes[ci] = (0.0, f"translate: {exc}", (), 0.0)
            continue
        if result.kernel_key in profiled:
            metrics.incr("search.kernels_reused")
        else:
            profiled[result.kernel_key] = _profile(gpu, result.comp, sizes, nominal)
        gflops, error, occupancy, counter = profiled[result.kernel_key]
        if counter is not None:
            metrics.incr(counter)
        outcomes[ci] = (gflops, error, () if error else result.applied_key, occupancy)
    return outcomes


#: Per-worker state, populated once by the pool initializer so each task
#: ships only its config index.
_WORKER: Dict[str, object] = {}


def _worker_init(
    arch: GPUArch,
    source: Computation,
    candidates: Sequence[ComposedScript],
    space: Sequence[Config],
    sizes: Dict[str, int],
    nominal: float,
) -> None:
    _WORKER["gpu"] = SimulatedGPU(arch)
    _WORKER["source"] = source
    _WORKER["candidates"] = list(candidates)
    _WORKER["space"] = list(space)
    _WORKER["sizes"] = dict(sizes)
    _WORKER["nominal"] = nominal


def _worker_eval(ki: int):
    """``(outcomes, counters)`` of one config; the parent reattaches its
    own candidate/config objects by index."""
    metrics = Metrics()
    outcomes = _evaluate_config(
        _WORKER["gpu"],
        _WORKER["source"],
        _WORKER["candidates"],
        _WORKER["space"][ki],
        _WORKER["sizes"],
        _WORKER["nominal"],
        metrics=metrics,
    )
    return outcomes, metrics.snapshot()


class VariantSearch:
    """(script × config) search scored by the analytic model — exhaustive
    by default, model-guided top-k with a trained predictor."""

    #: k for the online ``predictor.hit_at_k`` quality signal when an
    #: exhaustive sweep runs with a model present but no explicit budget.
    HITK_DEFAULT = 16

    def __init__(
        self,
        arch: GPUArch,
        telemetry: Optional[Telemetry] = None,
        options: Optional[TuningOptions] = None,
        predictor=None,
    ):
        options = resolve_options(options, owner="VariantSearch")
        self.arch = arch
        self.options = options
        self.tune_size = options.tune_size
        if options.space is not None:
            self.space = list(options.space)
        elif options.full_space:
            self.space = prune_space(arch, DEFAULT_SPACE)
        else:
            self.space = prune_space(arch, CURATED_SPACE)
        self.gpu = SimulatedGPU(arch)
        self.jobs = resolve_jobs(options.jobs)
        self.telemetry = ensure_telemetry(telemetry)
        self.topk = options.topk
        #: the learned cost model ranking the space (see
        #: :mod:`repro.tuner.predictor`); loaded from ``cache_dir`` when
        #: not handed in, ``None`` when no trained model exists.
        self.predictor = predictor
        if self.predictor is None and options.cache_dir is not None:
            from .predictor import RankingModel

            self.predictor = RankingModel.try_load(options.cache_dir)
        #: ``"Type: message"`` of the last pool failure that forced the
        #: sequential fallback (``None`` while the pool behaves).
        self.last_pool_error: Optional[str] = None

    #: batch-strip extents crossed into the space for batched routines
    BATCH_STRIPS = (1, 2, 4)

    def _space_for(self, spec) -> List[Config]:
        """Effective config space for one routine.

        Batched routines cross the base space with the ``BP`` knob
        (problems per z-block, see ``batch_grid``); everything else uses
        the base space untouched, so non-batched searches, their cache
        keys and score corpora are byte-identical to before.
        """
        if "P" not in spec.dim_symbols:
            return list(self.space)
        return [
            {**cfg, "BP": bp} for cfg in self.space for bp in self.BATCH_STRIPS
        ]

    def _rank_space(
        self, routine_name: str, sizes: Dict[str, int]
    ) -> Optional[List[Config]]:
        """The model's ranking of the pruned space, best first, or
        ``None`` when no model is available."""
        from ..blas3.routines import get_spec

        if self.predictor is None:
            return None
        family = get_spec(routine_name).variant.family
        size = max(sizes.values())
        order = self.predictor.rank_configs(family, self.arch, self.space, size)
        self.telemetry.incr("predictor.rank")
        return [self.space[i] for i in order]

    def search(
        self,
        routine_name: str,
        source: Computation,
        candidates: Sequence[ComposedScript],
        sizes: Optional[Dict[str, int]] = None,
        nominal_flops: float = 0.0,
        keep_all: bool = False,
        jobs: Optional[int] = None,
        topk: Optional[int] = None,
    ) -> SearchResult:
        """Score the (script × config) space and pick the best unit.

        With a trained cost model and a ``topk`` budget (per-call, else
        ``TuningOptions.topk``) only the model's top-k configurations are
        evaluated; ``topk=0`` forces the exhaustive sweep.  The
        exact-fallback guard: if none of the predicted candidates is
        feasible, the remaining space is evaluated after all — a wrong
        model costs one exhaustive search, never a missing routine.
        """
        from ..blas3.routines import get_spec

        spec = get_spec(routine_name)
        sizes = dict(sizes or spec.make_sizes(self.tune_size))
        nominal = nominal_flops or spec.nominal_flops(sizes)
        jobs = resolve_jobs(jobs) if jobs is not None else self.jobs

        candidates = list(candidates)
        base_space = self._space_for(spec)
        batched = "P" in spec.dim_symbols
        budget = self.topk if topk is None else (topk or None)
        ranked = None
        # The cost model was trained on the BP-less feature set; batched
        # routines always sweep their (small) expanded space exhaustively.
        if not batched and budget is not None and budget < len(base_space):
            ranked = self._rank_space(routine_name, sizes)
        space = ranked[:budget] if ranked is not None else base_space
        n_units = len(candidates) * len(base_space)
        with self.telemetry.span(
            "search",
            routine=routine_name,
            candidates=len(candidates),
            configs=len(base_space),
            units=n_units,
            jobs=jobs,
            topk=budget if ranked is not None else None,
        ) as sp:
            scores, best = self._evaluate_space(
                source, candidates, space, sizes, nominal, jobs, keep_all
            )
            if best is None and ranked is not None:
                # Exact-fallback guard: the model's picks all failed;
                # widen to the configurations it skipped.
                self.telemetry.incr("predictor.exact_fallback")
                sp.tags["exact_fallback"] = True
                rest = ranked[len(space):]
                more, best = self._evaluate_space(
                    source, candidates, rest, sizes, nominal, jobs, keep_all
                )
                scores.extend(more)
                space = ranked
            evaluated = len(candidates) * len(space)
            skipped = n_units - evaluated
            if skipped:
                self.telemetry.incr("search.units_skipped", skipped)
                sp.tags["units_skipped"] = skipped
            if best is None:
                raise RuntimeError(
                    f"no feasible (script, config) for {routine_name} on {self.arch.name}"
                )
            sp.tags["best_gflops"] = best.gflops
            complete = len(space) == len(base_space)
            if complete and not batched and self.predictor is not None:
                # Online quality signal: the sweep was exhaustive, so the
                # true winner is known — did the model's top-k contain it?
                if ranked is None:
                    ranked = self._rank_space(routine_name, sizes)
                k = budget if budget is not None else self.HITK_DEFAULT
                hit = best.config in ranked[:k]
                self.telemetry.incr(
                    "predictor.hit_at_k" if hit else "predictor.miss_at_k"
                )
                sp.tags["predictor_hit_at_k"] = hit
            return SearchResult(
                routine_name,
                self.arch,
                best,
                scores,
                complete=complete,
                topk=budget if not complete else None,
                units_evaluated=evaluated,
            )

    def _evaluate_space(
        self,
        source: Computation,
        candidates: List[ComposedScript],
        space: List[Config],
        sizes: Dict[str, int],
        nominal: float,
        jobs: int,
        keep_all: bool,
    ) -> Tuple[List[CandidateScore], Optional[CandidateScore]]:
        """Score every (candidate, config) unit of ``space`` and reduce.

        Both the sequential and the pool path evaluate one config at a
        time and return each config's outcomes by candidate index; scores
        are built here, once, from the scalars alone, in candidate-major
        (candidate outer, config inner) order.  The reduction keeps the
        first-best in that order, so the winner is deterministic.
        """
        if jobs > 1 and len(space) > 1:
            by_config = self._search_parallel(
                source, candidates, space, sizes, nominal, min(jobs, len(space))
            )
        else:
            by_config = self._search_sequential(source, candidates, space, sizes, nominal)
        scores: List[CandidateScore] = []
        best: Optional[CandidateScore] = None
        for ci, candidate in enumerate(candidates):
            for ki, config in enumerate(space):
                score = CandidateScore(candidate, config, *by_config[ki][ci], source=source)
                if keep_all or score.ok:
                    scores.append(score)
                if score.ok and (best is None or score.gflops > best.gflops):
                    best = score
        return scores, best

    def _search_sequential(
        self,
        source: Computation,
        candidates: List[ComposedScript],
        space: List[Config],
        sizes: Dict[str, int],
        nominal: float,
    ) -> List[List[Outcome]]:
        """Evaluate every config in-process."""
        return [
            _evaluate_config(
                self.gpu, source, candidates, config, sizes, nominal,
                metrics=self.telemetry.metrics,
            )
            for config in space
        ]

    def _search_parallel(
        self,
        source: Computation,
        candidates: List[ComposedScript],
        space: List[Config],
        sizes: Dict[str, int],
        nominal: float,
        workers: int,
    ) -> List[List[Outcome]]:
        """Evaluate the configs on a process pool, one config per task.

        Results come back in submission (config) order, and each worker
        runs the sequential path's :func:`_evaluate_config`, so the
        reduction in :meth:`_evaluate_space` picks an identical winner.
        A genuine *pool* failure (a platform without working
        multiprocessing, unpicklable state, a killed worker) falls back
        to the sequential path; the cause is kept in
        :attr:`last_pool_error`, counted as ``search.pool_fallbacks``
        and tagged on the open search span.  Programming errors
        (``TypeError`` from bad arguments, assertion failures, ...)
        propagate — masking them behind a silent re-run hid real bugs.
        """
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(self.arch, source, candidates, space, sizes, nominal),
            ) as pool:
                raw = list(pool.map(_worker_eval, range(len(space))))
        except Exception as exc:
            if not _is_pool_failure(exc):
                raise
            self.last_pool_error = f"{type(exc).__name__}: {exc}"
            self.telemetry.incr("search.pool_fallbacks")
            span = self.telemetry.tracer.current()
            if span is not None:
                span.tags["pool_fallback"] = self.last_pool_error
            return self._search_sequential(source, candidates, space, sizes, nominal)
        by_config = []
        for outcomes, counters in raw:
            self.telemetry.merge_counters(counters)
            by_config.append(outcomes)
        return by_config

    def _evaluate(
        self,
        source: Computation,
        candidate: ComposedScript,
        config: Config,
        sizes: Dict[str, int],
        nominal: float,
    ) -> CandidateScore:
        outcome = _evaluate_config(self.gpu, source, [candidate], config, sizes, nominal)[0]
        return CandidateScore(candidate, config, *outcome, source=source)
