"""Tests for the standalone loop transformations (interchange / fission /
fusion) exposed as pool components."""

import numpy as np
import pytest

from repro.ir import Array, Cmp, Guard, build_computation, fusion_legal, interpret, validate, var
from repro.transforms import LoopFission, LoopFusion, LoopInterchange, TransformFailure


def two_stream_comp():
    src = """
    L1: for (i = 0; i < M; i++)
          C[i][0] = A[i][0];
    L2: for (i2 = 0; i2 < M; i2++)
          D[i2][0] = C[i2][0];
    """
    return build_computation(
        "streams",
        src,
        [
            Array("A", (var("M"), 1)),
            Array("C", (var("M"), 1)),
            Array("D", (var("M"), 1)),
        ],
        dim_symbols=("M",),
    )


def gemm_like():
    src = """
    Li: for (i = 0; i < M; i++)
    Lj:   for (j = 0; j < N; j++)
            C[i][j] += A[i][j] * B[i][j];
    """
    return build_computation(
        "ew",
        src,
        [
            Array("A", (var("M"), var("N"))),
            Array("B", (var("M"), var("N"))),
            Array("C", (var("M"), var("N"))),
        ],
        dim_symbols=("M", "N"),
    )


def guarded(comp):
    """``comp`` with its top-level nodes under one always-true guard."""
    stage = comp.main_stage
    stage.body = [Guard(Cmp(var("M"), ">=", 1), stage.body)]
    return comp


def assert_same_outputs(comp, out, names):
    a = np.arange(1, 7, dtype=np.float32).reshape(6, 1)
    want = interpret(comp, {"M": 6}, {"A": a})
    got = interpret(out, {"M": 6}, {"A": a})
    for name in names:
        assert np.array_equal(want[name], got[name]), name


class TestInterchange:
    def test_swaps_loops(self):
        out = LoopInterchange().apply(gemm_like(), ("Li", "Lj"), {}).comp
        outer = out.main_stage.body[0]
        assert outer.var == "j" and outer.body[0].var == "i"

    def test_functional(self):
        comp = gemm_like()
        out = LoopInterchange().apply(comp, ("Li", "Lj"), {}).comp
        validate(out)
        rng = np.random.default_rng(0)
        sizes = {"M": 5, "N": 7}
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((5, 7)).astype(np.float32)
        got = interpret(out, sizes, {"A": a, "B": b})
        np.testing.assert_allclose(got["C"], a * b, rtol=1e-5)

    def test_triangular_bounds_rejected(self):
        src = """
        Li: for (i = 0; i < M; i++)
        Lk:   for (k = 0; k <= i; k++)
                C[i][k] = A[i][k];
        """
        comp = build_computation(
            "tri", src,
            [Array("A", (var("M"), var("M"))), Array("C", (var("M"), var("M")))],
            dim_symbols=("M",),
        )
        with pytest.raises(TransformFailure):
            LoopInterchange().apply(comp, ("Li", "Lk"), {})

    def test_dependence_violation_rejected(self):
        src = """
        Li: for (i = 1; i < M; i++)
        Lj:   for (j = 0; j < N - 1; j++)
                A[i][j] = A[i-1][j+1];
        """
        comp = build_computation(
            "wave", src, [Array("A", (var("M"), var("N")))], dim_symbols=("M", "N")
        )
        with pytest.raises(TransformFailure):
            LoopInterchange().apply(comp, ("Li", "Lj"), {})

    def test_imperfect_nest_rejected(self):
        comp = two_stream_comp()
        with pytest.raises(TransformFailure):
            LoopInterchange().apply(comp, ("L1", "L2"), {})


class TestFission:
    def test_splits_statements(self):
        src = """
        Li: for (i = 0; i < M; i++) {
              C[i][0] = A[i][0];
              D[i][0] = A[i][0];
            }
        """
        comp = build_computation(
            "pair", src,
            [Array("A", (var("M"), 1)), Array("C", (var("M"), 1)), Array("D", (var("M"), 1))],
            dim_symbols=("M",),
        )
        out = LoopFission().apply(comp, ("Li",), {}).comp
        validate(out)
        assert len(out.main_stage.body) == 2

    def test_single_statement_rejected(self):
        comp = two_stream_comp()
        with pytest.raises(TransformFailure):
            LoopFission().apply(comp, ("L1",), {})

    def test_splits_a_loop_inside_a_guard(self):
        src = """
        Li: for (i = 0; i < M; i++) {
              C[i][0] = A[i][0];
              D[i][0] = C[i][0];
            }
        """
        comp = guarded(build_computation(
            "pair", src, [Array(n, (var("M"), 1)) for n in "ACD"], dim_symbols=("M",)
        ))
        out = LoopFission().apply(comp, ("Li",), {}).comp
        validate(out)
        assert len(out.main_stage.body[0].body) == 2
        assert_same_outputs(comp, out, "CD")


class TestFusion:
    def test_fuses_adjacent(self):
        comp = two_stream_comp()
        out = LoopFusion().apply(comp, ("L1", "L2"), {}).comp
        validate(out)
        assert len(out.main_stage.body) == 1
        assert len(out.main_stage.body[0].body) == 2

    def test_fuses_loops_inside_a_guard(self):
        comp = guarded(two_stream_comp())
        out = LoopFusion().apply(comp, ("L1", "L2"), {}).comp
        validate(out)
        (loop,) = out.main_stage.body[0].body
        assert len(loop.body) == 2
        assert_same_outputs(comp, out, "CD")

    def test_functional(self):
        comp = two_stream_comp()
        out = LoopFusion().apply(comp, ("L1", "L2"), {}).comp
        a = np.arange(6, dtype=np.float32).reshape(6, 1)
        got = interpret(out, {"M": 6}, {"A": a})
        np.testing.assert_allclose(got["D"], a)

    @pytest.mark.parametrize("guarded", [False, True], ids=["nested-loop", "guard"])
    def test_renames_through_the_whole_second_body(self, guarded):
        # the second loop's variable is used only below its body's top
        # level: in a nested loop's bounds, and in a guard's predicate
        src = """
        L1: for (i = 0; i < M; i++)
              C[i][0] = A[i][0];
        L2: for (k = 0; k < M; k++)
        Lz:   for (z = k; z < k + 1; z++)
                D[z][0] = C[z][0];
        """
        comp = build_computation(
            "nested", src, [Array(n, (var("M"), 1)) for n in "ACD"], dim_symbols=("M",)
        )
        if guarded:
            second = comp.main_stage.body[1]
            second.body = [Guard(Cmp(var("k"), ">=", 1), second.body)]
        fused = LoopFusion().apply(comp, ("L1", "L2"), {}).comp
        validate(fused)
        assert_same_outputs(comp, fused, "CD")

    def test_rename_an_inner_loop_would_capture_is_rejected(self):
        # renaming k to i inside Li would copy the diagonal D[i][i] = A[i][i]
        src = """
        L1: for (i = 0; i < M; i++)
              C[i][0] = A[i][0];
        L2: for (k = 0; k < M; k++)
        Li:   for (i = 0; i < 2; i++)
                D[k][i] = A[k][i];
        """
        comp = build_computation(
            "captured", src, [Array(n, (var("M"), 2)) for n in "ACD"], dim_symbols=("M",)
        )
        first, second = comp.main_stage.body
        assert not fusion_legal(first, second)
        with pytest.raises(TransformFailure):
            LoopFusion().apply(comp, ("L1", "L2"), {})

    def test_backward_dependence_rejected(self):
        src = """
        L1: for (i = 0; i < M; i++)
              C[i][0] = A[i][0];
        L2: for (i2 = 0; i2 < M - 1; i2++)
              D[i2][0] = C[i2+1][0];
        """
        comp = build_computation(
            "bad", src,
            [Array("A", (var("M"), 1)), Array("C", (var("M"), 1)), Array("D", (var("M"), 1))],
            dim_symbols=("M",),
        )
        with pytest.raises(TransformFailure):
            LoopFusion().apply(comp, ("L1", "L2"), {})

    def test_non_adjacent_rejected(self):
        src = """
        L1: for (i = 0; i < M; i++)
              C[i][0] = A[i][0];
        Lmid: for (x = 0; x < M; x++)
              E[x][0] = A[x][0];
        L2: for (i2 = 0; i2 < M; i2++)
              D[i2][0] = A[i2][0];
        """
        comp = build_computation(
            "gap", src,
            [Array(n, (var("M"), 1)) for n in "ACDE"],
            dim_symbols=("M",),
        )
        with pytest.raises(TransformFailure):
            LoopFusion().apply(comp, ("L1", "L2"), {})
