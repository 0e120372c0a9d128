"""Tests for SM_alloc and Reg_alloc (footprints, padding, staging phases)."""

import numpy as np
import pytest

from repro.ir import Array, build_computation, interpret, validate, var
from repro.ir.visitors import iter_statements, locate
from repro.transforms import (
    LoopTiling,
    LoopUnroll,
    PeelTriangular,
    RegAlloc,
    SMAlloc,
    ThreadGrouping,
    TransformFailure,
    memory,
)
from repro.transforms.footprint import split_base_span
from repro.transforms.util import KernelStructure, phase_kind

from .conftest import PARAMS, gemm_comp, run_gemm, run_trmm, trmm_comp, trsm_comp


def pipeline(params=PARAMS):
    r1 = ThreadGrouping().apply(gemm_comp(), ("Li", "Lj"), params)
    r2 = LoopTiling().apply(r1.comp, (*r1.labels, "Lk"), {})
    r3 = LoopUnroll().apply(r2.comp, r2.labels[1:], {})
    return r3.comp


class TestSMAlloc:
    def test_shared_array_created(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        arr = comp.array("B_s")
        assert arr.storage == "shared" and arr.source == "B"
        # Transposed tile of a (KT x BN) footprint -> (BN, KT).
        assert arr.dims[0].constant_value == PARAMS["BN"]

    def test_padding_on_bank_multiple(self):
        # KT=16 -> minor dimension 16 -> padded to 17 (the paper's example).
        params = dict(PARAMS, BM=16, BN=16, KT=16, TX=16, TY=4)
        comp = SMAlloc().apply(pipeline(params), ("B", "Transpose"), {}).comp
        arr = comp.array("B_s")
        assert arr.pad == 1
        assert arr.dims[1].constant_value == 17

    def test_no_padding_otherwise(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        assert comp.array("B_s").pad == 0

    def test_copy_phase_inserted_in_tile_loop(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        ks = KernelStructure(comp.main_stage)
        kk = ks.sequential_block_loops()[0]
        kinds = [phase_kind(p) for p in ks.phases()]
        assert "copy" in kinds
        # The copy phase lives inside the kk loop (per-tile staging).
        inner_kinds = [
            phase_kind(n) for n in kk.body if getattr(n, "mapped_to", None) == "thread.x"
        ]
        assert inner_kinds[0] == "copy"

    def test_refs_rewritten(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        from repro.ir.visitors import iter_statements

        ks = KernelStructure(comp.main_stage)
        compute = ks.compute_phases()[-1]
        arrays = {
            r.array for s in iter_statements([compute]) for r in s.all_refs()
        }
        assert "B_s" in arrays and "B" not in arrays

    def test_functional(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        validate(comp)
        got, want = run_gemm(comp)
        np.testing.assert_allclose(got, want, rtol=1e-4)

    def test_nochange_mode_functional(self):
        comp = SMAlloc().apply(pipeline(), ("A", "NoChange"), {}).comp
        got, want = run_gemm(comp)
        np.testing.assert_allclose(got, want, rtol=1e-4)

    def test_double_alloc_rejected(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        with pytest.raises(TransformFailure):
            SMAlloc().apply(comp, ("B", "Transpose"), {})

    def test_written_array_not_stageable(self):
        with pytest.raises(TransformFailure):
            SMAlloc().apply(pipeline(), ("C", "NoChange"), {})

    def test_unknown_mode_is_error(self):
        from repro.transforms import TransformError

        with pytest.raises(TransformError):
            SMAlloc().apply(pipeline(), ("B", "Diagonal"), {})


def tiled(comp, params=PARAMS):
    r1 = ThreadGrouping().apply(comp, ("Li", "Lj"), params)
    return LoopTiling().apply(r1.comp, (*r1.labels, "Lk"), {}).comp


def arrays_in(phase):
    return {r.array for s in iter_statements([phase]) for r in s.all_refs()}


class TestSMAllocPlanning:
    """Which references one SM_alloc stages, and where each copy goes."""

    SQUARE_SRC = """
    Li: for (i = 0; i < N; i++)
    Lj:   for (j = 0; j < N; j++)
    Lk:     for (k = 0; k < N; k++)
              C[i][j] += A[i][k] * A[k][j];
    """

    def test_second_tile_geometry_stays_global(self):
        # C += A·A with BM=16, BN=8, KT=4: A[k][j] covers a 4x8 tile,
        # A[i][k] a 16x4 one; the shared array holds the first geometry.
        comp = build_computation(
            "SQUARE",
            self.SQUARE_SRC,
            [Array("A", (var("N"), var("N"))), Array("C", (var("N"), var("N")))],
            dim_symbols=("N",),
        )
        out = SMAlloc().apply(tiled(comp, dict(PARAMS, BM=16)), ("A", "NoChange"), {}).comp
        assert [d.constant_value for d in out.array("A_s").dims] == [4, 8]
        (compute,) = KernelStructure(out.main_stage).compute_phases()
        assert {"A", "A_s"} <= arrays_in(compute)
        rng = np.random.default_rng(0)
        a, c = (rng.standard_normal((32, 32)).astype(np.float32) for _ in range(2))
        got = interpret(out, {"N": 32}, {"A": a, "C": c})["C"]
        np.testing.assert_allclose(got, c + a @ a, rtol=1e-4, atol=1e-4)

    def test_read_of_a_written_tile_is_not_retargeted(self):
        # In-place TRSM: the division phase reads B[i][j], the tile it
        # writes, so only the reduction's B[k][j] is staged.  KT = BM
        # gives both the same 8x8 geometry, and each its own tile loop.
        out = SMAlloc().apply(tiled(trsm_comp(), dict(PARAMS, KT=8)), ("B", "NoChange"), {}).comp
        ks = KernelStructure(out.main_stage)
        reduction, division = ks.compute_phases()
        assert "B_s" in arrays_in(reduction)
        assert arrays_in(division) == {"A", "B"}
        assert [phase_kind(p) for p in ks.phases()].count("copy") == 1

    def test_each_copy_stages_in_its_own_tile_loop(self):
        # After peeling, a rectangular and a triangular kk loop each hold
        # a compute phase; each stages B in the loop that encloses it.
        peeled = PeelTriangular().apply(tiled(trmm_comp()), ("A",), {}).comp
        out = SMAlloc().apply(peeled, ("B", "NoChange"), {}).comp
        ks = KernelStructure(out.main_stage)
        kks = ks.sequential_block_loops()
        assert len(kks) == 2
        for phase in ks.compute_phases():
            (*_outer, kk), _container, _idx = locate(ks.items, phase)
            assert kk in kks and phase_kind(kk.body[0]) == "copy"
            assert "B_s" in arrays_in(phase)
        got, want = run_trmm(out)
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-4)

    def test_each_reference_is_split_once(self, monkeypatch):
        calls = []

        def counting(expr, local):
            calls.append(expr)
            return split_base_span(expr, local)

        monkeypatch.setattr(memory, "split_base_span", counting)
        comp = pipeline()
        refs = {
            r
            for phase in KernelStructure(comp.main_stage).compute_phases()
            for s in iter_statements([phase])
            for r in s.all_refs()
            if r.array == "B"
        }
        SMAlloc().apply(comp, ("B", "Transpose"), {})
        assert len(calls) == sum(len(r.indices) for r in refs) > 0


class TestRegAlloc:
    def test_register_array_created(self):
        comp = RegAlloc().apply(pipeline(), ("C",), {}).comp
        arr = comp.array("C_r")
        assert arr.storage == "register"
        # dims: (TX, TY, mt, nt)
        dims = [d.constant_value for d in arr.dims]
        assert dims == [
            PARAMS["TX"],
            PARAMS["TY"],
            PARAMS["BM"] // PARAMS["TX"],
            PARAMS["BN"] // PARAMS["TY"],
        ]

    def test_staging_phases(self):
        comp = RegAlloc().apply(pipeline(), ("C",), {}).comp
        ks = KernelStructure(comp.main_stage)
        kinds = [phase_kind(p) for p in ks.phases()]
        assert kinds[0] == "regload" and kinds[-1] == "regstore"

    def test_functional(self):
        comp = RegAlloc().apply(pipeline(), ("C",), {}).comp
        validate(comp)
        got, want = run_gemm(comp)
        np.testing.assert_allclose(got, want, rtol=1e-4)

    def test_combined_with_smalloc(self):
        comp = SMAlloc().apply(pipeline(), ("B", "Transpose"), {}).comp
        comp = RegAlloc().apply(comp, ("C",), {}).comp
        validate(comp)
        got, want = run_gemm(comp, m=16, n=16, k=16, seed=7)
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-4)

    def test_non_uniform_refs_fail(self):
        # B in TRSM is read at B[k][j] and written at B[i][j]: promotion fails.
        from .conftest import trsm_comp

        r1 = ThreadGrouping().apply(trsm_comp(), ("Li", "Lj"), PARAMS)
        r2 = LoopTiling().apply(r1.comp, (*r1.labels, "Lk"), {})
        with pytest.raises(TransformFailure):
            RegAlloc().apply(r2.comp, ("B",), {})

    def test_unknown_array_fails(self):
        from .conftest import trsm_comp

        r1 = ThreadGrouping().apply(trsm_comp(), ("Li", "Lj"), PARAMS)
        with pytest.raises(TransformFailure):
            RegAlloc().apply(r1.comp, ("C",), {})


class TestSMAllocSymmetry:
    """SM_alloc(X, Symmetry): the third Adaptor_Symmetry rule stages the
    symmetric tile by mirroring the stored triangle (guarded copy)."""

    def _symm_rule3(self):
        from repro.epod import parse_script, translate
        from .conftest import symm_comp

        script = parse_script(
            """
            format_iteration(A, Symmetry);
            (Lii, Ljj) = thread_grouping((Li, Lj));
            (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
            SM_alloc(A, Symmetry);
            """
        )
        return translate(symm_comp(), script, params=dict(PARAMS), mode="filter")

    def test_symmetry_tile_created(self):
        result = self._symm_rule3()
        applied = [i.component for i in result.applied]
        assert "SM_alloc" in applied
        assert "A_s" in result.comp.arrays

    def test_guarded_mirror_copy(self):
        from repro.ir import Guard
        from repro.ir.visitors import walk

        result = self._symm_rule3()
        guards = [
            n
            for n in walk(result.comp.main_stage.body)
            if isinstance(n, Guard) and n.else_body
        ]
        assert guards, "Symmetry staging must mirror through a guard"

    def test_functional(self):
        import numpy as np
        from .conftest import run_symm

        result = self._symm_rule3()
        got, want = run_symm(result.comp)
        np.testing.assert_allclose(got, want, rtol=2e-3, atol=2e-3)
