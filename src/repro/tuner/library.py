"""LibraryGenerator: the end-to-end OA pipeline for one target platform.

For each routine: compose (base GEMM-NN script + the variant's adaptors)
→ filter (legality oracle) → search (scripts × parameter space, analytic
model) → verify the winner functionally (small sizes, both thread orders)
→ package as a :class:`TunedRoutine`.

Generated routines execute on the simulated GPU (functional + profiled)
and can emit their CUDA source.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..adl.builtin import BUILTIN_ADAPTORS
from ..blas3.naming import ALL_VARIANTS
from ..blas3.routines import (
    BASE_GEMM_SCRIPT,
    RoutineSpec,
    build_routine,
    get_spec,
    infer_sizes,
)
from ..composer.compose import compose_candidates
from ..composer.filterer import filter_candidates
from ..composer.generator import ComposedScript
from ..composer.oracle import check_equivalence
from ..epod.script import parse_script
from ..epod.translator import EpodTranslator
from ..gpu.arch import GPUArch
from ..gpu.simulator import RunResult, SimulatedGPU
from ..ir.ast import Computation
from ..telemetry import Telemetry, ensure_telemetry
from .options import TuningOptions, resolve_options
from .search import CandidateScore, SearchResult, VariantSearch, rank_key
from .space import Config

__all__ = ["TunedRoutine", "LibraryGenerator", "GeneratedLibrary"]


@dataclass
class TunedRoutine:
    """One generated routine: the winning script, parameters and kernel."""

    spec: RoutineSpec
    arch: GPUArch
    script: ComposedScript
    config: Config
    comp: Computation
    tuned_gflops: float
    #: effective (post-degeneration) component sequence of the winner
    applied_key: tuple = ()
    search: Optional[SearchResult] = None
    #: unconditioned fallback for conditioned (padded) variants
    fallback: Optional["TunedRoutine"] = None
    #: runtime telemetry sink (not persisted; reattached on cache load)
    telemetry: Optional[Telemetry] = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def conditions(self):
        return self.script.conditions

    def gflops(self, n: int, gpu: Optional[SimulatedGPU] = None) -> float:
        gpu = gpu or SimulatedGPU(self.arch, telemetry=self.telemetry)
        sizes = self.spec.make_sizes(n)
        run = gpu.profile(self.comp, sizes, nominal_flops=self.spec.nominal_flops(sizes))
        return run.gflops

    def profile(self, n: int) -> RunResult:
        sizes = self.spec.make_sizes(n)
        return SimulatedGPU(self.arch).profile(
            self.comp, sizes, nominal_flops=self.spec.nominal_flops(sizes)
        )

    def check_blank_zero(self, inputs: Mapping[str, np.ndarray]) -> bool:
        """The runtime check of §IV-A.3 for conditioned variants."""
        arr = None
        for a in self.spec.arrays:
            if a.triangular:
                arr = a
        if arr is None:
            return True
        data = np.asarray(inputs[arr.name])
        blank = np.triu(data, 1) if arr.triangular == "lower" else np.tril(data, -1)
        return not np.any(blank)

    def render_script(self) -> str:
        """Rendered text of the winning EPOD script (paper Fig. 14).

        The facade for ``.script.script.render()`` — callers should not
        need to know that a :class:`ComposedScript` wraps the raw
        :class:`~repro.epod.script.EpodScript`.
        """
        return self.script.script.render()

    def run(
        self,
        *,
        sizes: Optional[Mapping[str, int]] = None,
        alpha: float = 1.0,
        beta: float = 1.0,
        **arrays: np.ndarray,
    ) -> np.ndarray:
        """Execute the routine functionally on the simulated GPU.

        The unified calling convention (shared with
        :meth:`GeneratedLibrary.run`, :meth:`DistLibrary.run` and
        :meth:`BlasService.submit`): arrays are keyword arguments, with
        explicit ``alpha``/``beta``::

            tuned.run(A=a, B=b, C=c, alpha=2.0, beta=0.5)

        The pre-1.1 positional array mapping completed its deprecation
        cycle and now raises :class:`TypeError` (see the README's
        migration note).
        """
        return self._execute(arrays, sizes=sizes, alpha=alpha, beta=beta)

    def _execute(
        self,
        inputs: Mapping[str, np.ndarray],
        sizes: Optional[Mapping[str, int]] = None,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> np.ndarray:
        """The execution body behind :meth:`run` (no signature shims).

        Applies full BLAS semantics: the kernel computes the core update,
        alpha/beta scaling happens host-side (see DESIGN.md).  Conditioned
        (padded) variants dispatch to their fallback when the blank area
        is not zero — the multi-versioned code of §IV-A.3.
        """
        if self.conditions and not self.check_blank_zero(inputs):
            if self.fallback is None:
                raise RuntimeError(
                    f"{self.name}: blank area not zero and no fallback variant"
                )
            return self.fallback._execute(inputs, sizes=sizes, alpha=alpha, beta=beta)

        if sizes is None:
            sizes = self._infer_sizes(inputs)
        if not self._tile_divisible(sizes):
            # Full-tile kernels (DESIGN.md): pad up to the next tile
            # multiple, run, and slice the result back.  Zero padding is
            # exact for the multiply families; solves pad the triangular
            # matrix with an identity block.
            return self._run_padded(inputs, sizes, alpha=alpha, beta=beta)
        gpu = SimulatedGPU(self.arch, telemetry=self.telemetry)
        kernel_inputs = dict(inputs)
        out_name = self.spec.output
        if self.spec.variant.family == "TRSM":
            # In-place solve of alpha-scaled RHS.
            kernel_inputs["B"] = np.asarray(inputs["B"], dtype=np.float32) * alpha
            run = gpu.run(self.comp, sizes, kernel_inputs)
            return run.outputs[out_name]
        # C-accumulating families: kernel computes P = op(A) op(B) into a
        # zeroed C, then the host applies C := alpha*P + beta*C.
        c_in = np.asarray(
            kernel_inputs.get("C", 0.0), dtype=np.float32
        )
        out_shape = tuple(d.evaluate(sizes) for d in self._array("C").dims)
        if (
            c_in.ndim == len(out_shape)
            and c_in.shape != out_shape
            and all(have >= want for want, have in zip(out_shape, c_in.shape))
        ):
            # Oversized storage around a smaller logical problem: only
            # the logical region participates in the beta accumulation.
            c_in = c_in[tuple(slice(0, s) for s in out_shape)]
        kernel_inputs["C"] = np.zeros(out_shape, np.float32)
        run = gpu.run(self.comp, sizes, kernel_inputs)
        return alpha * run.outputs[out_name] + beta * c_in

    def _tile_for(self, sym: str) -> int:
        if sym == "P":
            return max(1, self.config.get("BP", 1))
        return {"M": self.config["BM"], "N": self.config["BN"], "K": self.config["KT"]}[sym]

    def _tile_divisible(self, sizes: Mapping[str, int]) -> bool:
        missing = [sym for sym in self.spec.dim_symbols if sym not in sizes]
        if missing:
            raise ValueError(
                f"{self.name}: sizes missing dimension symbol(s) "
                f"{', '.join(missing)} (required: {', '.join(self.spec.dim_symbols)})"
            )
        return all(
            sizes[sym] % self._tile_for(sym) == 0
            for sym in self.spec.dim_symbols
        )

    def _padded_sizes(self, sizes: Mapping[str, int]) -> Dict[str, int]:
        out = {}
        for sym in self.spec.dim_symbols:
            tile = self._tile_for(sym)
            out[sym] = -(-sizes[sym] // tile) * tile
        return out

    def _run_padded(self, inputs, sizes, alpha: float, beta: float) -> np.ndarray:
        padded_sizes = self._padded_sizes(sizes)
        env = dict(sizes)
        penv = dict(padded_sizes)
        padded_inputs = {}
        for arr in self.spec.arrays:
            if arr.name not in inputs:
                continue
            data = np.asarray(inputs[arr.name], dtype=np.float32)
            shape = tuple(d.evaluate(penv) for d in arr.dims)
            buf = np.zeros(shape, np.float32)
            # Copy only the logical region: callers may hand buffers
            # *larger* than the problem named by explicit ``sizes`` (the
            # BLAS leading-dimension convention) — anything beyond the
            # logical extent is storage, not data.  Smaller is not
            # storage, it is an inconsistent call.
            logical = tuple(d.evaluate(env) for d in arr.dims)
            if any(have < want for want, have in zip(logical, data.shape)):
                raise ValueError(
                    f"{self.name}: array {arr.name} has shape {data.shape}, "
                    f"smaller than its logical extent {logical}"
                )
            region = tuple(slice(0, want) for want in logical)
            buf[region] = data[region]
            if self.spec.variant.family == "TRSM" and arr.triangular:
                # Identity on the padded diagonal keeps the solve exact.
                n0 = region[0].stop
                for d in range(n0, shape[0]):
                    buf[d, d] = 1.0
            padded_inputs[arr.name] = buf
        result = self._execute(padded_inputs, sizes=padded_sizes, alpha=alpha, beta=beta)
        out_shape = tuple(
            d.evaluate(env) for d in self._array(self.spec.output).dims
        )
        return result[tuple(slice(0, s) for s in out_shape)]

    def _array(self, name: str):
        for a in self.spec.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def _infer_sizes(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, int]:
        return infer_sizes(self.spec, inputs)

    def cuda_source(self) -> str:
        from ..codegen.cuda import emit_cuda

        return emit_cuda(self.comp, self.config)


class LibraryGenerator:
    """Generates tuned BLAS3 routines for one architecture (the OA flow)."""

    def __init__(
        self,
        arch: GPUArch,
        # Tiles per partitioned dimension in the verification sweep.  The
        # compiled execution path (repro.jit) made verify cheap enough to
        # afford 3 tiles by default — covering interior/edge/interior
        # block interactions the old 2-tile sweep could not see.
        verify_size: int = 3,
        check_candidates: bool = False,
        telemetry: Optional[Telemetry] = None,
        options: Optional[TuningOptions] = None,
    ):
        options = resolve_options(options, owner="LibraryGenerator")
        self.arch = arch
        self.options = options
        self.tune_size = options.tune_size
        self.telemetry = ensure_telemetry(telemetry)
        self.searcher = VariantSearch(
            arch, telemetry=self.telemetry, options=options
        )
        self.base_script = parse_script(BASE_GEMM_SCRIPT, name="gemm-nn")
        self.verify_size = verify_size
        self.check_candidates = check_candidates
        self._cache: Dict[str, TunedRoutine] = {}
        self._verify_cache: Dict = {}
        self.disk_cache = None
        self._verdict_key = None
        if options.cache_dir is not None:
            from .cache import TuningCache, space_fingerprint

            self.disk_cache = TuningCache(options.cache_dir, telemetry=self.telemetry)
            self._base_hash = hashlib.sha256(
                self.base_script.render().encode("utf-8")
            ).hexdigest()[:24]
            self._space_fp = space_fingerprint(self.searcher.space)
            self._verdict_key = self.disk_cache.verdict_key(
                arch,
                self._base_hash,
                verify_size=verify_size,
                verify_config=dict(sorted(self.VERIFY_CONFIG.items())),
            )
            self._verdicts_loaded = False

    def _routine_cache_key(self, name: str) -> str:
        """Content address of one routine's winner for this generator's
        exact tuning setup — see DESIGN.md for the key layout.

        ``topk`` joins the key only when set: a budgeted search may pick
        a different winner than the exhaustive sweep, so the two must
        not share a cache slot (and default keys stay stable).
        """
        knobs = {
            "tune_size": self.tune_size,
            "check_candidates": self.check_candidates,
        }
        if self.options.topk is not None:
            knobs["topk"] = self.options.topk
        return self.disk_cache.routine_key(
            self.arch, name, self._base_hash, self._space_fp, **knobs
        )

    def _scores_cache_key(self, name: str) -> str:
        """Content address of one routine's score document.  Keyed like
        the winner but *without* ``topk`` — the corpus only stores
        exhaustive sweeps, which are the same document either way."""
        return self.disk_cache.routine_key(
            self.arch,
            name,
            self._base_hash,
            self._space_fp,
            tune_size=self.tune_size,
            check_candidates=self.check_candidates,
        )

    # ------------------------------------------------------------------
    def base_script_for(self, spec: RoutineSpec):
        """The GEMM-NN scheme with array names resolved through the
        routine's role map (right-side variants swap the operand roles:
        their triangular/symmetric matrix plays GEMM's B)."""
        from ..epod.script import EpodScript, Invocation

        mapping = dict(spec.role_map)
        invocations = [
            Invocation(
                inv.component,
                tuple(mapping.get(a, a) for a in inv.args),
                inv.outputs,
            )
            for inv in self.base_script
        ]
        if "P" in spec.dim_symbols:
            # Batched variants claim the outer batch loop for the z grid
            # before the GEMM scheme runs per problem (BASE_BGEMM_SCRIPT).
            invocations.insert(0, Invocation("batch_grid", ("Lp",), ()))
        return EpodScript(invocations, name=self.base_script.name)

    def candidates(self, name: str) -> List[ComposedScript]:
        """Composed candidate scripts for a routine (composer output)."""
        spec = get_spec(name)
        adaptations = [
            (BUILTIN_ADAPTORS[adaptor], obj) for adaptor, obj in spec.adaptations
        ]
        source = build_routine(name)
        raw = compose_candidates(self.base_script_for(spec), adaptations, name=name)
        if not self.check_candidates:
            return raw
        report = filter_candidates(
            raw,
            source,
            params={"BM": 16, "BN": 16, "KT": 4, "TX": 8, "TY": 4},
            telemetry=self.telemetry,
        )
        return [fc.candidate for fc in report.accepted]

    # ------------------------------------------------------------------
    def generate(self, name: str, keep_all_scores: bool = False) -> TunedRoutine:
        """Compose, search, verify and package one routine.

        With a ``cache_dir`` a previously tuned winner is rebuilt straight
        from disk — no composition, search or verification runs at all.
        """
        key = get_spec(name).name
        if key in self._cache:
            return self._cache[key]
        with self.telemetry.span("generate", routine=key) as sp:
            disk_key = None
            if self.disk_cache is not None:
                disk_key = self._routine_cache_key(key)
                with self.telemetry.span("cache.probe", routine=key, kind="routine"):
                    cached = self.disk_cache.load_routine(disk_key, key, self.arch)
                if cached is not None:
                    sp.tags["outcome"] = "cache-hit"
                    cached.telemetry = self.telemetry
                    if cached.fallback is not None:
                        cached.fallback.telemetry = self.telemetry
                    self._cache[key] = cached
                    return cached
            spec = get_spec(name)
            source = build_routine(name)
            with self.telemetry.span("compose", routine=key) as csp:
                candidates = self.candidates(name)
                csp.tags["candidates"] = len(candidates)
            result = self.searcher.search(name, source, candidates, keep_all=True)
            self._store_scores(key, spec, result)

            with self.telemetry.span("verify", routine=key):
                try:
                    tuned = self._verified_best(spec, source, result)
                except RuntimeError:
                    if result.complete:
                        raise
                    # Exact-fallback guard, verification edition: none of
                    # the model's picks survived the oracle — re-search
                    # the full space rather than fail a routine the
                    # exhaustive path could build.
                    result = self._widen_search(key, spec, source, candidates)
                    tuned = self._verified_best(spec, source, result)
                if tuned.conditions:
                    fallback = self._unconditioned_fallback(spec, source, result)
                    if fallback is None and not result.complete:
                        result = self._widen_search(key, spec, source, candidates)
                        fallback = self._unconditioned_fallback(spec, source, result)
                    tuned.fallback = fallback
            if not keep_all_scores:
                result.scores = [s for s in result.scores if s.ok]
            self._cache[key] = tuned
            if self.disk_cache is not None:
                self.disk_cache.store_routine(disk_key, tuned)
            return tuned

    def _widen_search(
        self,
        key: str,
        spec: RoutineSpec,
        source: Computation,
        candidates: Sequence[ComposedScript],
    ) -> SearchResult:
        """Exhaustive re-search after a top-k search came up empty."""
        self.telemetry.incr("predictor.exact_fallback")
        result = self.searcher.search(
            spec.name, source, candidates, keep_all=True, topk=0
        )
        self._store_scores(key, spec, result)
        return result

    def _store_scores(self, key: str, spec: RoutineSpec, result: SearchResult) -> None:
        """Persist one exhaustive search's full score list as a corpus
        document (top-k sweeps are partial and are not stored)."""
        if self.disk_cache is None or not result.complete or not result.scores:
            return
        records = [
            {
                "config": dict(score.config),
                "gflops": round(score.gflops, 4),
                "ok": bool(score.ok),
                "error": score.error,
                "occupancy": round(score.occupancy, 4),
                "provenance": score.script.provenance,
            }
            for score in result.scores
        ]
        self.disk_cache.store_scores(
            self._scores_cache_key(key),
            key,
            spec.variant.family,
            self.arch,
            self.tune_size,
            records,
            complete=True,
        )

    def has_cached(self, name: str) -> bool:
        """Whether :meth:`generate` would return without running a search.

        True when the routine's winner is already in the in-process memo
        or stored in the on-disk tuning cache.  The serving runtime uses
        this to decide whether a deadline-bound request can afford the
        cold-tuning path or must fall back to the baseline kernel.
        """
        key = get_spec(name).name
        if key in self._cache:
            return True
        if self.disk_cache is None:
            return False
        return self.disk_cache.has_routine(self._routine_cache_key(key), key)

    #: How many (config, candidate) pairs :meth:`predict` may try before
    #: giving up — bounds the latency of the instant-plan path.
    PREDICT_ATTEMPTS = 12

    def predict(self, name: str) -> Optional[TunedRoutine]:
        """An *instant predicted plan*: the cost model's best config,
        translated and cheaply verified — no search.

        The deadline-bound serving path uses this when a cold request
        cannot afford :meth:`generate`: compose the candidates, walk the
        model's config ranking, and return the first (config, script)
        pair that translates and passes the small-tile functional check
        (milliseconds, against seconds for the search).  Only
        unconditioned candidates qualify — a predicted plan has no
        fallback variant to dispatch to when the blank area is nonzero.

        Returns ``None`` when no model is trained or nothing verifies;
        callers degrade exactly as before.  Counter: ``predictor.plans``.
        """
        predictor = self.searcher.predictor
        if predictor is None:
            return None
        spec = get_spec(name)
        key = spec.name
        if key in self._cache:
            return self._cache[key]  # the real plan is strictly better
        source = build_routine(name)
        with self.telemetry.span("predict", routine=key) as sp:
            candidates = [c for c in self.candidates(name) if not c.conditions]
            if not candidates:
                return None
            order = predictor.rank_configs(
                spec.variant.family, self.arch, self.searcher.space, self.tune_size
            )
            self.telemetry.incr("predictor.rank")
            attempts = 0
            for ki in order:
                config = self.searcher.space[ki]
                for candidate in candidates:
                    if attempts >= self.PREDICT_ATTEMPTS:
                        return None
                    attempts += 1
                    score = self.searcher._evaluate(
                        source,
                        candidate,
                        config,
                        spec.make_sizes(self.tune_size),
                        spec.nominal_flops(spec.make_sizes(self.tune_size)),
                    )
                    if not score.ok:
                        continue
                    if not self._script_verified(source, score):
                        continue
                    self.telemetry.incr("predictor.plans")
                    sp.tags["config"] = dict(config)
                    sp.tags["attempts"] = attempts
                    return TunedRoutine(
                        spec=spec,
                        arch=self.arch,
                        script=score.script,
                        config=dict(score.config),
                        comp=score.comp,
                        tuned_gflops=score.gflops,
                        applied_key=score.applied_key,
                        telemetry=self.telemetry,
                    )
        return None

    def library(self, names: Optional[Sequence[str]] = None) -> "GeneratedLibrary":
        names = list(names or (v.name for v in ALL_VARIANTS))
        return GeneratedLibrary(
            self.arch, {get_spec(n).name: self.generate(n) for n in names}
        )

    # ------------------------------------------------------------------
    #: Small tile configuration for fast functional verification — the
    #: transformation pipeline is parameter-generic, so a script verified
    #: at small tiles is verified for larger ones provided the *effective*
    #: (post-degeneration) component sequence matches.
    VERIFY_CONFIG: Config = {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2}

    def _script_verified(self, source: Computation, score: CandidateScore) -> bool:
        cache_key = (source.name, score.applied_key)
        if cache_key in self._verify_cache:
            self.telemetry.incr("verify.memo_reuse")
            return self._verify_cache[cache_key]
        token = None
        if self.disk_cache is not None:
            from .cache import applied_key_token

            if not self._verdicts_loaded:
                with self.telemetry.span(
                    "cache.probe", routine=source.name, kind="verdicts"
                ):
                    self._disk_verdicts = self.disk_cache.load_verdicts(
                        self._verdict_key
                    )
                self._verdicts_loaded = True
            token = applied_key_token(source.name, score.applied_key)
            if token in self._disk_verdicts:
                ok = self._disk_verdicts[token]
                self._verify_cache[cache_key] = ok
                self.telemetry.incr("verify.verdict_reuse")
                return ok
        with self.telemetry.span("verify.check", routine=source.name) as sp:
            cfg = dict(self.VERIFY_CONFIG)
            translator = EpodTranslator(cfg, metrics=self.telemetry.metrics)
            try:
                small = translator.translate(source, score.script.script, mode="filter")
            except Exception:
                small = None
            if small is None:
                ok = False
            elif small.applied_key == score.applied_key:
                ok = check_equivalence(
                    small.comp,
                    source,
                    cfg,
                    tiles=self.verify_size,
                    telemetry=self.telemetry,
                ).ok
            else:
                # The sequence degenerates differently at this tile size:
                # verify the actual kernel (slower path, so stay at the
                # minimal 2-tile sweep — score.config tiles can be large).
                ok = check_equivalence(
                    score.comp, source, score.config, telemetry=self.telemetry
                ).ok
            sp.tags["ok"] = ok
        self.telemetry.incr("verify.pass" if ok else "verify.fail")
        self._verify_cache[cache_key] = ok
        if token is not None:
            self._disk_verdicts[token] = ok
            self.disk_cache.store_verdicts(self._verdict_key, {token: ok})
        return ok

    def _verified_best(
        self, spec: RoutineSpec, source: Computation, result: SearchResult
    ) -> TunedRoutine:
        """Walk the score ranking until a functionally correct winner."""
        ranked = sorted((s for s in result.scores if s.ok), key=rank_key)
        if not ranked:
            ranked = [result.best]
        for score in ranked:
            if self._script_verified(source, score):
                return TunedRoutine(
                    spec=spec,
                    arch=self.arch,
                    script=score.script,
                    config=dict(score.config),
                    comp=score.comp,
                    tuned_gflops=score.gflops,
                    applied_key=score.applied_key,
                    search=result,
                    telemetry=self.telemetry,
                )
        raise RuntimeError(
            f"no candidate for {spec.name} on {self.arch.name} survived verification"
        )

    def _unconditioned_fallback(
        self, spec: RoutineSpec, source: Computation, result: SearchResult
    ) -> Optional[TunedRoutine]:
        ranked = sorted(
            (s for s in result.scores if s.ok and not s.script.conditions),
            key=rank_key,
        )
        for score in ranked:
            if self._script_verified(source, score):
                return TunedRoutine(
                    spec=spec,
                    arch=self.arch,
                    script=score.script,
                    config=dict(score.config),
                    comp=score.comp,
                    tuned_gflops=score.gflops,
                    applied_key=score.applied_key,
                    telemetry=self.telemetry,
                )
        return None


@dataclass
class GeneratedLibrary:
    """A tuned BLAS3 library for one platform."""

    arch: GPUArch
    routines: Dict[str, TunedRoutine]

    def __getitem__(self, name: str) -> TunedRoutine:
        return self.routines[get_spec(name).name]

    def names(self) -> List[str]:
        return list(self.routines)

    def gflops(self, name: str, n: int) -> float:
        return self[name].gflops(n)

    def run(
        self,
        name: str,
        alpha: float = 1.0,
        beta: float = 1.0,
        sizes: Optional[Mapping[str, int]] = None,
        **arrays: np.ndarray,
    ) -> np.ndarray:
        """Execute one routine — unified convention (keyword arrays)::

            lib.run("SYMM-LL", A=a, B=b, C=c, alpha=1.0, beta=0.0)
        """
        return self[name]._execute(arrays, sizes=sizes, alpha=alpha, beta=beta)
