"""Unit tests for the transform helpers: canonical structure navigation
and footprint/range analysis."""

import pytest

from repro.ir import Loop, aff, bound_min, var
from repro.ir.visitors import locate
from repro.transforms import ThreadGrouping, TransformFailure, make_phase, phase_kind
from repro.transforms.footprint import (
    VarRange,
    collect_var_ranges,
    max_over,
    max_trip,
    min_over,
    split_base_span,
)
from repro.transforms.util import KernelStructure

from .conftest import PARAMS, gemm_comp


class TestPhaseHelpers:
    def test_make_phase_shape(self):
        phase = make_phase([], 8, 4, kind="copy")
        assert phase.mapped_to == "thread.x" and phase.upper == aff(8)
        inner = phase.body[0]
        assert inner.mapped_to == "thread.y" and inner.upper == aff(4)

    def test_phase_kind_roundtrip(self):
        for kind in ("compute", "copy", "regload", "regstore"):
            assert phase_kind(make_phase([], 4, 2, kind=kind)) == kind

    def test_phase_kind_survives_relabel(self):
        from repro.ir import fresh_label

        phase = make_phase([], 4, 2, kind="copy")
        phase.label = fresh_label(phase.label)
        assert phase_kind(phase) == "copy"

    def test_default_kind(self):
        plain = Loop("tx", 0, 4, [], label="Ltx_plain", mapped_to="thread.x")
        assert phase_kind(plain) == "compute"


class TestKernelStructure:
    def test_requires_grouping(self):
        with pytest.raises(TransformFailure):
            KernelStructure(gemm_comp().main_stage)

    def test_grouped_structure(self):
        comp = ThreadGrouping().apply(gemm_comp(), ("Li", "Lj"), PARAMS).comp
        ks = KernelStructure(comp.main_stage)
        assert len(ks.block_loops) == 2
        assert ks.block_vars() == ["bi", "bj"]
        assert len(ks.phases()) == 1
        assert ks.sequential_block_loops() == []

    def test_container_of(self):
        comp = ThreadGrouping().apply(gemm_comp(), ("Li", "Lj"), PARAMS).comp
        ks = KernelStructure(comp.main_stage)
        phase = ks.phases()[0]
        loops, container, idx = locate(comp.main_stage.body, phase)
        assert loops == tuple(ks.block_loops)
        assert container is ks.items and ks.items[idx] is phase


class TestVarRanges:
    def test_const_trip(self):
        loops = [Loop("a", 0, 4, []), Loop("k", aff("kk"), var("kk") + 8, [])]
        ranges = collect_var_ranges(loops)
        assert ranges["a"].trip == 4
        assert ranges["k"].trip == 8
        assert ranges["k"].lower == aff("kk")

    def test_nonconst_trip_fails(self):
        loops = [Loop("k", 0, var("i"), [])]
        with pytest.raises(TransformFailure):
            collect_var_ranges(loops)

    def test_optimistic_min_bound(self):
        loop = Loop("k", aff("kk"), bound_min(var("kk") + 8, var("i")), [])
        assert max_trip(loop) == 8
        ranges = collect_var_ranges([loop], optimistic=True)
        assert ranges["k"].trip == 8

    def test_optimistic_max_lower(self):
        from repro.ir import bound_max

        loop = Loop("k", bound_max(var("i") + 1, var("kk")), var("kk") + 8, [])
        ranges = collect_var_ranges([loop], optimistic=True)
        # Prefers the bare tile base (kk) as the safe lower base.
        assert ranges["k"].lower == aff("kk")


class TestSplitBaseSpan:
    RANGES = {
        "tx": VarRange(aff(0), 4, 1),
        "a": VarRange(aff(0), 2, 1),
    }

    def test_thread_decomposed_index(self):
        # i = bi + tx + 4a over tx in [0,4), a in [0,2): span 7.
        expr = var("bi") + var("tx") + var("a") * 4
        base, span = split_base_span(expr, self.RANGES)
        assert base == var("bi") and span == 7

    def test_negative_coefficient_shifts_base(self):
        expr = var("M") - var("tx")
        base, span = split_base_span(expr, self.RANGES)
        assert base == var("M") - 3 and span == 3

    def test_transitive_lower_bound(self):
        ranges = dict(self.RANGES)
        ranges["k"] = VarRange(aff("kk"), 8, 1)
        base, span = split_base_span(var("k"), ranges)
        assert base == aff("kk") and span == 7

    def test_min_max_over(self):
        expr = var("bi") + var("tx")
        assert min_over(expr, self.RANGES) == var("bi")
        assert max_over(expr, self.RANGES) == var("bi") + 3
