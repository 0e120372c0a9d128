"""Tests for the SimulatedGPU facade (functional + analytic runs)."""

import numpy as np
import pytest

from repro.blas3 import BASE_GEMM_SCRIPT, build_routine, random_inputs, reference
from repro.epod import parse_script, translate
from repro.gpu import GTX_285, SimulatedGPU

CFG = {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2}


@pytest.fixture(scope="module")
def kernel():
    return translate(
        build_routine("GEMM-NN"), parse_script(BASE_GEMM_SCRIPT), params=CFG
    ).comp


@pytest.fixture(scope="module")
def gpu():
    return SimulatedGPU(GTX_285)


class TestProfile:
    def test_profile_has_all_parts(self, gpu, kernel):
        run = gpu.profile(kernel, {"M": 512, "N": 512, "K": 512}, nominal_flops=2 * 512**3)
        assert run.feasible
        assert run.gflops > 0
        assert run.time_s > 0
        assert run.counters.instructions > 0
        assert len(run.models) == 1
        assert run.outputs is None  # analytic only

    def test_gflops_requires_nominal(self, gpu, kernel):
        run = gpu.profile(kernel, {"M": 512, "N": 512, "K": 512})
        assert run.gflops == 0.0

    def test_scaling_with_size(self, gpu, kernel):
        small = gpu.profile(kernel, {"M": 256, "N": 256, "K": 256}, nominal_flops=2 * 256**3)
        large = gpu.profile(kernel, {"M": 2048, "N": 2048, "K": 2048}, nominal_flops=2 * 2048**3)
        assert large.time_s > small.time_s
        assert large.gflops >= small.gflops  # better occupancy / amortisation


class TestRun:
    def test_run_executes_and_profiles(self, gpu, kernel):
        sizes = {"M": 32, "N": 32, "K": 16}
        inputs = random_inputs("GEMM-NN", sizes, seed=0)
        run = gpu.run(kernel, sizes, inputs, nominal_flops=2.0 * 32 * 32 * 16)
        assert run.outputs is not None
        np.testing.assert_allclose(
            run.outputs["C"], reference("GEMM-NN", inputs), rtol=2e-3, atol=2e-3
        )
        assert run.gflops > 0

    def test_multi_stage_kernel(self, gpu):
        script = parse_script(
            """
            GM_map(A, Transpose);
            (Lii, Ljj) = thread_grouping((Li, Lj));
            (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
            SM_alloc(B, Transpose);
            """
        )
        comp = translate(build_routine("GEMM-TN"), script, params=CFG).comp
        sizes = {"M": 32, "N": 32, "K": 16}
        inputs = random_inputs("GEMM-TN", sizes, seed=1)
        run = gpu.run(comp, sizes, inputs)
        assert len(run.models) == 2  # remap + compute kernels
        np.testing.assert_allclose(
            run.outputs["C"], reference("GEMM-TN", inputs), rtol=2e-3, atol=2e-3
        )
        # The remap launch contributes its own time.
        assert run.timing.kernels[0].time_s > 0


class TestLazyCounters:
    """The profile counters are derived from the models on first read:
    a search, which never reads them, pays nothing for them."""

    @pytest.fixture
    def tally(self, monkeypatch):
        import repro.gpu.simulator as simulator

        calls = {"count_profile": 0, "profile": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(simulator, "count_profile", counted(simulator.count_profile, "count_profile"))
        monkeypatch.setattr(SimulatedGPU, "profile", counted(SimulatedGPU.profile, "profile"))
        return calls

    def test_cold_search_counts_no_profile_counters(self, tally):
        from repro.tuner import LibraryGenerator, TuningOptions

        gen = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1))
        for name in ("GEMM-TN", "TRSM-LL-T"):
            gen.generate(name)
        assert tally["profile"] > 100
        assert tally["count_profile"] == 0

    def test_counters_computed_once_on_read(self, tally, gpu, kernel):
        from repro.gpu import count_profile

        run = gpu.profile(kernel, {"M": 512, "N": 512, "K": 512})
        assert tally["count_profile"] == 0
        first = run.counters
        assert run.counters is first
        assert tally["count_profile"] == 1
        assert first == count_profile(GTX_285, run.models)
