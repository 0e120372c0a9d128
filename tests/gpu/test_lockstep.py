"""Tests for the SIMT-lockstep executor (schedule-independence probe)."""

import numpy as np

from repro.blas3 import BASE_GEMM_SCRIPT, build_routine, random_inputs, reference
from repro.epod import parse_script, translate
from repro.gpu.exec import lockstep_matches_sequential, run_lockstep
from repro.ir.ast import Array, ArrayRef, Assign, Computation, Loop, Stage
from repro.ir.interpret import interpret

PARAMS = {"BM": 8, "BN": 8, "KT": 4, "TX": 4, "TY": 2}


def gemm_kernel():
    return translate(
        build_routine("GEMM-NN"), parse_script(BASE_GEMM_SCRIPT), params=PARAMS
    ).comp


class TestCorrectKernels:
    def test_gemm_lockstep_matches_reference(self):
        comp = gemm_kernel()
        sizes = {"M": 16, "N": 16, "K": 8}
        inputs = random_inputs("GEMM-NN", sizes, seed=1)
        out = run_lockstep(comp, sizes, inputs)
        np.testing.assert_allclose(
            out["C"], reference("GEMM-NN", inputs), rtol=2e-3, atol=2e-3
        )

    def test_gemm_schedule_independent(self):
        comp = gemm_kernel()
        sizes = {"M": 16, "N": 16, "K": 8}
        inputs = random_inputs("GEMM-NN", sizes, seed=2)
        assert lockstep_matches_sequential(comp, sizes, inputs, ["C"])

    def test_bound_trsm_schedule_independent(self):
        script = parse_script(
            """
            (Lii, Ljj) = thread_grouping((Li, Lj));
            (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
            peel_triangular(A);
            binding_triangular(A, 0);
            SM_alloc(B, Transpose);
            """
        )
        comp = translate(
            build_routine("TRSM-LL-N"), script, params=PARAMS, mode="filter"
        ).comp
        sizes = {"M": 16, "N": 16}
        inputs = random_inputs("TRSM-LL-N", sizes, seed=3)
        out = run_lockstep(comp, sizes, inputs)
        np.testing.assert_allclose(
            out["B"], reference("TRSM-LL-N", inputs), rtol=3e-3, atol=3e-3
        )

    def test_block_level_statement_keeps_its_operator(self):
        # for b in block.x: C[b] += A[b] -- a statement outside any phase
        # accumulates as the interpreter does, not as a plain store.
        body = [Loop("b", 0, "N", [Assign(ArrayRef("C", ["b"]), ArrayRef("A", ["b"]), "+=")],
                     mapped_to="block.x")]
        arrays = {name: Array(name, ("N",)) for name in ("A", "C")}
        comp = Computation("acc", arrays, [Stage("s", body)], dim_symbols=("N",))
        inputs = {"A": np.arange(4, dtype=np.float32), "C": np.ones(4, dtype=np.float32)}
        out = run_lockstep(comp, {"N": 4}, inputs)
        np.testing.assert_array_equal(out["C"], [1, 2, 3, 4])
        np.testing.assert_array_equal(out["C"], interpret(comp, {"N": 4}, inputs)["C"])

    def test_symm_full_pipeline(self):
        script = parse_script(
            """
            GM_map(A, Symmetry);
            format_iteration(A, Symmetry);
            (Lii, Ljj) = thread_grouping((Li, Lj));
            (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
            loop_unroll(Ljjj, Lkkk);
            SM_alloc(B, Transpose);
            Reg_alloc(C);
            """
        )
        comp = translate(build_routine("SYMM-LL"), script, params=PARAMS).comp
        sizes = {"M": 16, "N": 16}
        inputs = random_inputs("SYMM-LL", sizes, seed=4)
        out = run_lockstep(comp, sizes, inputs)
        np.testing.assert_allclose(
            out["C"], reference("SYMM-LL", inputs), rtol=3e-3, atol=3e-3
        )


class TestRacyKernels:
    def test_unbound_solver_diverges(self):
        # TRSM distributed without binding: the intra-row-block recurrence
        # races.  Lockstep execution must NOT match the reference.
        script = parse_script(
            """
            (Lii, Ljj) = thread_grouping((Li, Lj));
            (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
            """
        )
        comp = translate(
            build_routine("TRSM-LL-N"), script, params=PARAMS, mode="filter"
        ).comp
        sizes = {"M": 16, "N": 16}
        inputs = random_inputs("TRSM-LL-N", sizes, seed=5)
        out = run_lockstep(comp, sizes, inputs)
        assert not np.allclose(
            out["B"], reference("TRSM-LL-N", inputs), atol=1e-3
        ), "racy kernel should not survive lockstep execution"
