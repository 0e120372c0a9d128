"""Parallel search must be observably identical to the sequential search.

The pool fans the configs out to worker processes, one config per task,
but the parent reduces results in candidate-major order, so for every routine family
``jobs=2`` must pick the exact same winner — same script object, same
config, bit-identical modeled GFLOPS — as ``jobs=1``.
"""

import pytest

from repro.blas3.routines import build_routine
from repro.gpu import GTX_285
from repro.tuner import LibraryGenerator, TuningOptions, VariantSearch, resolve_jobs

SMALL_SPACE = [
    {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
]

#: one representative routine per BLAS3 family
FAMILY_REPS = ["GEMM-TN", "SYMM-LL", "TRMM-LL-N", "TRSM-LL-N"]


@pytest.fixture(scope="module")
def gen():
    return LibraryGenerator(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=1))


class TestParallelDeterminism:
    @pytest.mark.parametrize("routine", FAMILY_REPS)
    def test_same_winner_as_sequential(self, gen, routine):
        source = build_routine(routine)
        candidates = gen.candidates(routine)
        seq = VariantSearch(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=1)).search(
            routine, source, candidates
        )
        par = VariantSearch(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=2)).search(
            routine, source, candidates
        )
        assert par.best.script is seq.best.script  # same candidate object
        assert par.best.config == seq.best.config
        assert par.best.gflops == seq.best.gflops  # bit-identical

    def test_full_score_list_identical(self, gen):
        source = build_routine("SYMM-LL")
        candidates = gen.candidates("SYMM-LL")
        seq = VariantSearch(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=1)).search(
            "SYMM-LL", source, candidates, keep_all=True
        )
        par = VariantSearch(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=2)).search(
            "SYMM-LL", source, candidates, keep_all=True
        )
        assert len(seq.scores) == len(par.scores)
        for a, b in zip(seq.scores, par.scores):
            assert a.config == b.config
            assert a.gflops == b.gflops
            assert a.error == b.error
            assert a.applied_key == b.applied_key
            assert a.occupancy == b.occupancy

    def test_search_level_jobs_override(self, gen):
        source = build_routine("GEMM-NN")
        candidates = gen.candidates("GEMM-NN")
        searcher = VariantSearch(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=1))
        seq = searcher.search("GEMM-NN", source, candidates)
        par = searcher.search("GEMM-NN", source, candidates, jobs=2)
        assert par.best.config == seq.best.config
        assert par.best.gflops == seq.best.gflops

    def test_parallel_winner_is_runnable(self, gen):
        import numpy as np

        from repro.blas3 import random_inputs, reference

        source = build_routine("GEMM-NN")
        candidates = gen.candidates("GEMM-NN")
        par = VariantSearch(GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=2)).search(
            "GEMM-NN", source, candidates
        )
        # the comp shipped back from the worker must be a usable kernel
        from repro.gpu.simulator import SimulatedGPU

        sizes = {"M": 32, "N": 32, "K": 16}
        inputs = random_inputs("GEMM-NN", sizes, seed=11)
        kernel_inputs = dict(inputs)
        kernel_inputs["C"] = np.zeros((32, 32), np.float32)
        run = SimulatedGPU(GTX_285).run(par.best.comp, sizes, kernel_inputs)
        want = reference("GEMM-NN", dict(inputs, C=np.zeros((32, 32), np.float32)))
        np.testing.assert_allclose(
            run.outputs["C"], want, rtol=3e-3, atol=3e-3
        )


class TestWorkerPayload:
    def test_worker_eval_returns_scalars_only(self, gen, monkeypatch):
        from repro.blas3.routines import get_spec
        from repro.gpu.simulator import RunResult
        from repro.ir.ast import Computation
        from repro.tuner import search

        routine = "TRSM-LL-T"
        spec = get_spec(routine)
        sizes = spec.make_sizes(4096)
        candidates = gen.candidates(routine)
        monkeypatch.setattr(search, "_WORKER", {})
        search._worker_init(
            GTX_285,
            build_routine(routine),
            candidates,
            SMALL_SPACE,
            sizes,
            spec.nominal_flops(sizes),
        )
        row = search._worker_eval(0)
        outcomes, counters = row
        assert len(outcomes) == len(candidates)
        gflops, error, applied_key, occupancy = outcomes[0]
        assert gflops > 0 and not error and applied_key
        assert 0.0 < occupancy <= 1.0
        assert counters["search.units"] == len(candidates)

        def walk(obj):
            assert not isinstance(obj, (Computation, RunResult)), type(obj)
            if isinstance(obj, dict):
                obj = list(obj.keys()) + list(obj.values())
            if isinstance(obj, (list, tuple)):
                for item in obj:
                    walk(item)

        walk(row)


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        import os

        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7


class TestKernelReuse:
    """Each config profiles each distinct kernel once; the other units
    reuse its outcome and count ``search.kernels_reused``."""

    #: the routines the repo benchmark's ``library_generate`` builds
    ROUTINES = ["GEMM-TN", "SYMM-RL", "TRMM-RL-T", "TRSM-LL-T"]

    def test_units_minus_reused_is_distinct_kernels(self, gen):
        from repro.epod import EpodTranslator
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        searcher = VariantSearch(GTX_285, options=TuningOptions(jobs=1), telemetry=telemetry)
        distinct = 0
        for routine in self.ROUTINES:
            source = build_routine(routine)
            candidates = gen.candidates(routine)
            searcher.search(routine, source, candidates)
            for config in searcher.space:
                distinct += len({
                    EpodTranslator(dict(config))
                    .translate(source, c.script, mode="filter")
                    .kernel_key
                    for c in candidates
                })
        units = telemetry.count("search.units")
        reused = telemetry.count("search.kernels_reused")
        assert units - reused == distinct
        assert (units, reused) == (1104, 320)

    def test_pool_counters_match_sequential(self, gen):
        from repro.telemetry import Telemetry

        counts = []
        for jobs in (1, 2):
            telemetry = Telemetry()
            VariantSearch(
                GTX_285, options=TuningOptions(space=SMALL_SPACE, jobs=jobs), telemetry=telemetry
            ).search("TRSM-LL-T", build_routine("TRSM-LL-T"), gen.candidates("TRSM-LL-T"))
            counts.append({
                name: telemetry.count(name)
                for name in ("search.units", "search.kernels_reused", "translate.components_omitted")
            })
        assert counts[0] == counts[1]
        assert counts[0]["search.kernels_reused"] > 0
