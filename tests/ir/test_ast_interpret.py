"""Tests for IR node behaviour, validation, and the sequential interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    And,
    Array,
    ArrayRef,
    Assign,
    Barrier,
    BinOp,
    Cmp,
    Computation,
    Const,
    Flag,
    Guard,
    Loop,
    Neg,
    Recip,
    Stage,
    ValidationError,
    allocate_arrays,
    build_computation,
    interpret,
    validate,
    var,
)

GEMM_NN_SRC = """
Li: for (i = 0; i < M; i++)
Lj:   for (j = 0; j < N; j++)
Lk:     for (k = 0; k < K; k++)
          C[i][j] += A[i][k] * B[k][j];
"""


def gemm_arrays():
    return [
        Array("A", (var("M"), var("K"))),
        Array("B", (var("K"), var("N"))),
        Array("C", (var("M"), var("N"))),
    ]


def gemm_comp():
    return build_computation("GEMM-NN", GEMM_NN_SRC, gemm_arrays())


class TestNodes:
    def test_loop_trip_count_constant(self):
        loop = Loop("i", 0, 16, [], step=4)
        assert loop.trip_count() == 4

    def test_loop_trip_count_symbolic(self):
        loop = Loop("i", 0, var("M"), [])
        assert loop.trip_count() is None

    def test_loop_rejects_bad_step(self):
        with pytest.raises(ValueError):
            Loop("i", 0, 4, [], step=0)

    def test_loop_rejects_bad_mapping(self):
        with pytest.raises(ValueError):
            Loop("i", 0, 4, [], mapped_to="warp.z")

    def test_is_rectangular(self):
        tri = Loop("k", 0, var("i") + 1, [])
        assert not tri.is_rectangular(["i"])
        assert tri.is_rectangular(["j"])

    def test_clone_is_deep(self):
        comp = gemm_comp()
        clone = comp.clone()
        clone.main_stage.body[0].body.clear()
        assert comp.main_stage.body[0].body

    def test_stmt_reads_include_accumulator(self):
        stmt = Assign(ArrayRef("C", [var("i")]), Const(1.0), "+=")
        assert ArrayRef("C", [var("i")]) in stmt.reads()

    def test_stmt_flops(self):
        stmt = Assign(
            ArrayRef("C", [var("i")]),
            BinOp("*", ArrayRef("A", [var("i")]), ArrayRef("B", [var("i")])),
            "+=",
        )
        assert stmt.flop_count() == 2  # one mul + one add

    def test_uses_division_walks_the_whole_expression(self):
        a, b = ArrayRef("A", [var("i")]), ArrayRef("B", [var("i")])
        assert not BinOp("*", a, Neg(b)).uses_division()
        assert BinOp("-", a, BinOp("/", a, b)).uses_division()
        assert Neg(BinOp("*", a, Recip(b))).uses_division()

    def test_find_loop(self):
        comp = gemm_comp()
        assert comp.find_loop("Lk").var == "k"
        with pytest.raises(KeyError):
            comp.find_loop("Lz")

    def test_array_storage_validation(self):
        with pytest.raises(ValueError):
            Array("X", (var("M"),), storage="texture")


class TestValidate:
    def test_valid_gemm(self):
        validate(gemm_comp())

    def test_undeclared_array(self):
        comp = gemm_comp()
        del comp.arrays["B"]
        with pytest.raises(ValidationError):
            validate(comp)

    def test_rank_mismatch(self):
        comp = gemm_comp()
        comp.arrays["A"] = Array("A", (var("M"),))
        with pytest.raises(ValidationError):
            validate(comp)

    def test_unbound_subscript_var(self):
        comp = gemm_comp()
        stmt = Assign(ArrayRef("C", [var("z"), var("z")]), Const(0.0))
        comp.main_stage.body.append(stmt)
        with pytest.raises(ValidationError):
            validate(comp)

    def test_duplicate_labels(self):
        comp = gemm_comp()
        extra = Loop("z", 0, 1, [], label="Li")
        comp.main_stage.body.append(extra)
        with pytest.raises(ValidationError):
            validate(comp)

    def test_shadowed_loop_var(self):
        inner = Loop("i", 0, 4, [], label="X1")
        outer = Loop("i", 0, 4, [inner], label="X0")
        comp = Computation("bad", {}, [Stage("s", [outer])])
        with pytest.raises(ValidationError):
            validate(comp)


class TestInterpreter:
    def test_gemm_matches_numpy(self):
        comp = gemm_comp()
        rng = np.random.default_rng(1)
        sizes = {"M": 7, "N": 5, "K": 9}
        a = rng.standard_normal((7, 9)).astype(np.float32)
        b = rng.standard_normal((9, 5)).astype(np.float32)
        c = rng.standard_normal((7, 5)).astype(np.float32)
        out = interpret(comp, sizes, {"A": a, "B": b, "C": c})
        np.testing.assert_allclose(out["C"], c + a @ b, rtol=1e-5)

    def test_allocate_rejects_shape_mismatch(self):
        comp = gemm_comp()
        with pytest.raises(ValueError):
            allocate_arrays(comp, {"M": 4, "N": 4, "K": 4}, {"A": np.zeros((3, 3))})

    def test_scalars_default_to_one(self):
        src = "Li: for (i = 0; i < M; i++) C[i][0] = alpha * A[i][0];"
        comp = build_computation(
            "scale", src, [Array("A", (var("M"), 1)), Array("C", (var("M"), 1))]
        )
        a = np.arange(4, dtype=np.float32).reshape(4, 1)
        out = interpret(comp, {"M": 4, "N": 1, "K": 1}, {"A": a})
        np.testing.assert_allclose(out["C"], a)

    def test_scalars_override(self):
        src = "Li: for (i = 0; i < M; i++) C[i][0] = alpha * A[i][0];"
        comp = build_computation(
            "scale", src, [Array("A", (var("M"), 1)), Array("C", (var("M"), 1))]
        )
        a = np.ones((4, 1), np.float32)
        out = interpret(comp, {"M": 4, "N": 1, "K": 1}, {"A": a}, scalars={"alpha": 2.5})
        np.testing.assert_allclose(out["C"], 2.5 * a)

    def test_guard_cmp(self):
        body = [
            Loop(
                "i",
                0,
                4,
                [
                    Guard(
                        Cmp(var("i"), "==", 0),
                        [Assign(ArrayRef("C", [var("i"), 0]), Const(1.0))],
                        [Assign(ArrayRef("C", [var("i"), 0]), Const(2.0))],
                    )
                ],
            )
        ]
        comp = Computation("g", {"C": Array("C", (var("M"), 1))}, [Stage("s", body)])
        out = interpret(comp, {"M": 4}, {})
        np.testing.assert_allclose(out["C"][:, 0], [1, 2, 2, 2])

    def test_guard_flag_and_and(self):
        cond = And([Flag("blank_zero"), Cmp(var("i"), "<", 2)])
        body = [
            Loop("i", 0, 4, [Guard(cond, [Assign(ArrayRef("C", [var("i"), 0]), Const(5.0))])])
        ]
        comp = Computation("g", {"C": Array("C", (var("M"), 1))}, [Stage("s", body)])
        out_on = interpret(comp, {"M": 4}, {}, flags={"blank_zero": True})
        out_off = interpret(comp, {"M": 4}, {}, flags={"blank_zero": False})
        assert out_on["C"].sum() == 10.0
        assert out_off["C"].sum() == 0.0

    def test_barrier_is_noop(self):
        body = [Barrier(), Assign(ArrayRef("C", [0, 0]), Const(3.0))]
        comp = Computation("b", {"C": Array("C", (2, 2))}, [Stage("s", body)])
        out = interpret(comp, {}, {})
        assert out["C"][0, 0] == 3.0

    def test_multi_stage_ordering(self):
        # Stage 1 copies A into T, stage 2 doubles T into C.
        s1 = Stage(
            "remap",
            [Loop("i", 0, var("M"), [Assign(ArrayRef("T", [var("i")]), ArrayRef("A", [var("i")]))])],
            role="remap",
        )
        s2 = Stage(
            "main",
            [
                Loop(
                    "i",
                    0,
                    var("M"),
                    [
                        Assign(
                            ArrayRef("C", [var("i")]),
                            BinOp("*", Const(2.0), ArrayRef("T", [var("i")])),
                        )
                    ],
                )
            ],
        )
        comp = Computation(
            "two",
            {
                "A": Array("A", (var("M"),)),
                "T": Array("T", (var("M"),)),
                "C": Array("C", (var("M"),)),
            },
            [s1, s2],
        )
        a = np.arange(5, dtype=np.float32)
        out = interpret(comp, {"M": 5}, {"A": a})
        np.testing.assert_allclose(out["C"], 2 * a)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_gemm_property(self, m, n, k, seed):
        comp = gemm_comp()
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        out = interpret(comp, {"M": m, "N": n, "K": k}, {"A": a, "B": b})
        np.testing.assert_allclose(out["C"], a @ b, rtol=1e-4, atol=1e-5)
