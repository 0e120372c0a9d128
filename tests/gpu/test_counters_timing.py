"""Tests for the coalescing/counter model and the analytic timing model."""

import math
from dataclasses import replace

import pytest

from repro.blas3 import BASE_GEMM_SCRIPT, build_routine, get_spec
from repro.codegen import analyze_computation
from repro.codegen.analysis import AccessModel, LARGE_STRIDE
from repro.epod import parse_script, translate
from repro.gpu import (
    FERMI_C2050,
    GEFORCE_9800,
    GTX_285,
    SimulatedGPU,
    bank_conflict_degree,
    effective_bytes,
    estimate_time,
    transactions_per_group,
)
from repro.gpu.timing import estimate_chain_time

CFG = {"BM": 64, "BN": 16, "KT": 16, "TX": 64, "TY": 1}


def tuned_gemm():
    comp = build_routine("GEMM-NN")
    return translate(comp, parse_script(BASE_GEMM_SCRIPT), params=CFG).comp


class TestCoalescing:
    def test_unit_stride_one_transaction(self):
        for arch in (GEFORCE_9800, GTX_285, FERMI_C2050):
            assert transactions_per_group(arch, 1) == 1.0

    def test_broadcast_one_transaction(self):
        for arch in (GEFORCE_9800, GTX_285, FERMI_C2050):
            assert transactions_per_group(arch, 0) == 1.0

    def test_cc10_strict_serialisation(self):
        # Any non-unit stride: 16 transactions per half-warp on cc1.0/1.1.
        assert transactions_per_group(GEFORCE_9800, 2) == 16.0
        assert transactions_per_group(GEFORCE_9800, LARGE_STRIDE) == 16.0

    def test_cc13_segments_scale_with_stride(self):
        small = transactions_per_group(GTX_285, 2)
        large = transactions_per_group(GTX_285, LARGE_STRIDE)
        assert 1.0 < small < large <= 16.0

    def test_fermi_lines(self):
        assert transactions_per_group(FERMI_C2050, 1) == 1.0
        assert transactions_per_group(FERMI_C2050, LARGE_STRIDE) == 32.0

    def test_effective_bytes_coalesced(self):
        access = AccessModel("A", "global", "load", 1.0, 1)
        # 32 coalesced loads = 128 useful bytes, no waste.
        assert effective_bytes(GTX_285, access, 32.0) == pytest.approx(128.0, rel=0.1)

    def test_effective_bytes_waste_capped(self):
        access = AccessModel("A", "global", "load", 1.0, LARGE_STRIDE)
        bytes_ = effective_bytes(GTX_285, access, 3200.0)
        useful = 3200 * 4
        assert bytes_ <= useful * GTX_285.uncoalesced_waste_cap + 1

    def test_sequential_walk_cheap_on_fermi(self):
        scattered = AccessModel("A", "global", "load", 1.0, LARGE_STRIDE)
        walking = AccessModel(
            "A", "global", "load", 1.0, LARGE_STRIDE, thread_sequential=True
        )
        n = 32000.0
        assert effective_bytes(FERMI_C2050, walking, n) < effective_bytes(
            FERMI_C2050, scattered, n
        )

    def test_shared_accesses_move_no_dram(self):
        access = AccessModel("B_s", "shared", "load", 1.0, 1)
        assert effective_bytes(GTX_285, access, 1000.0) == 0.0


class TestBankConflicts:
    def test_paper_padding_example(self):
        # (16,16) tile: column stride 16 -> 16-way conflict; padded 17 -> none.
        assert bank_conflict_degree(GTX_285, 16) == 16.0
        assert bank_conflict_degree(GTX_285, 17) == 1.0

    def test_fermi_32_banks(self):
        assert bank_conflict_degree(FERMI_C2050, 32) == 32.0
        assert bank_conflict_degree(FERMI_C2050, 16) == 16.0

    def test_broadcast_free(self):
        assert bank_conflict_degree(GTX_285, 0) == 1.0


class TestTiming:
    def test_gemm_compute_bound_when_tuned(self):
        comp = tuned_gemm()
        models = analyze_computation(comp, {"M": 4096, "N": 4096, "K": 4096})
        timing = estimate_time(GTX_285, models)
        assert timing.feasible
        assert timing.kernels[-1].bound == "compute"

    def test_gflops_below_peak(self):
        comp = tuned_gemm()
        spec = get_spec("GEMM-NN")
        sizes = spec.make_sizes(4096)
        for arch in (GEFORCE_9800, GTX_285, FERMI_C2050):
            run = SimulatedGPU(arch).profile(
                comp, sizes, nominal_flops=spec.nominal_flops(sizes)
            )
            assert 0 < run.gflops < arch.peak_gflops

    def test_tuned_gemm_in_volkov_band(self):
        # Volkov-class kernels reach 40-70% of peak on these chips.
        comp = tuned_gemm()
        spec = get_spec("GEMM-NN")
        sizes = spec.make_sizes(4096)
        run = SimulatedGPU(GTX_285).profile(
            comp, sizes, nominal_flops=spec.nominal_flops(sizes)
        )
        assert 0.35 <= run.gflops / GTX_285.peak_gflops <= 0.75

    def test_infeasible_config_reported(self):
        comp = tuned_gemm()
        models = analyze_computation(comp, {"M": 4096, "N": 4096, "K": 4096})
        # Force an impossible shared footprint.
        models[-1].smem_bytes = 10**6
        timing = estimate_time(GEFORCE_9800, models)
        assert not timing.feasible

    def test_chain_time_is_inf_exactly_when_infeasible(self):
        # The ranker compares the chain's time_s alone, so an infeasible
        # merged launch must cost inf and a feasible one must not.
        models = analyze_computation(tuned_gemm(), {"M": 256, "N": 256, "K": 256})
        heavy = [
            replace(m, smem_bytes=10 * 1024) if m.role == "compute" else m
            for m in models
        ]
        apart = estimate_chain_time(GTX_285, [heavy, heavy], [("C", "A")], (False,))
        assert apart.feasible and math.isfinite(apart.time_s)
        merged = estimate_chain_time(GTX_285, [heavy, heavy], [("C", "A")], (True,))
        assert not merged.feasible and merged.time_s == math.inf

    def test_platform_ordering_for_gemm(self):
        comp = tuned_gemm()
        spec = get_spec("GEMM-NN")
        sizes = spec.make_sizes(4096)
        results = {
            arch.name: SimulatedGPU(arch)
            .profile(comp, sizes, nominal_flops=spec.nominal_flops(sizes))
            .gflops
            for arch in (GEFORCE_9800, GTX_285, FERMI_C2050)
        }
        assert results["GeForce 9800"] < results["GTX 285"] < results["Fermi Tesla C2050"]

    def test_profile_counters_present(self):
        comp = tuned_gemm()
        run = SimulatedGPU(GEFORCE_9800).profile(comp, {"M": 1024, "N": 1024, "K": 1024})
        c = run.counters
        assert c.gld_coherent > 0
        assert c.gld_incoherent == 0  # tuned GEMM is fully coalesced
        assert c.instructions > 0


def widened(models, batch):
    """One strided-batched launch: every grid ``batch``× wider (what
    ``batch_grid`` does along ``block.z``)."""
    return [replace(m, grid_blocks=m.grid_blocks * batch) for m in models]


class TestBatchedTiming:
    """A batched launch is ``estimate_time`` on a widened grid; the
    serial alternative runs the launch sequence once per problem."""

    SMALL = {"M": 64, "N": 64, "K": 64}  # a handful of blocks: idle SMs

    def test_serial_scales_linearly(self):
        models = analyze_computation(tuned_gemm(), self.SMALL)
        single = estimate_time(GTX_285, models).time_s
        serial = estimate_time(GTX_285, models * 4).time_s
        assert serial == pytest.approx(4 * single)

    def test_fused_beats_serial_for_small_grids(self):
        models = analyze_computation(tuned_gemm(), self.SMALL)
        serial = 8 * estimate_time(GTX_285, models).time_s
        fused = estimate_time(GTX_285, widened(models, 8)).time_s
        assert fused < serial

    def test_batch_of_one_is_the_plain_estimate(self):
        models = analyze_computation(tuned_gemm(), self.SMALL)
        single = estimate_time(GTX_285, models).time_s
        assert estimate_time(GTX_285, widened(models, 1)).time_s == single
