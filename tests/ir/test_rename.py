"""Tests for symbol renaming over computations."""

import numpy as np

from repro.ir import And, Array, Cmp, Guard, build_computation, interpret, rename_computation, var


def test_dimensions_are_renamed_inside_a_conjunction():
    src = "Li: for (i = 0; i < M; i++) C[i][0] = A[i][0];"
    comp = build_computation(
        "copy", src, [Array(n, (var("M"), 1)) for n in "AC"], dim_symbols=("M",)
    )
    loop = comp.main_stage.body[0]
    loop.body = [Guard(And([Cmp(var("i"), "<", var("M")), Cmp(var("i"), ">=", 0)]), loop.body)]
    before = repr(loop.body[0].cond)
    renamed = rename_computation(comp, dims={"M": "n0_M"}, arrays={"A": "X"}, label_prefix="n0_")
    assert repr(renamed.main_stage.body[0].body[0].cond) == before.replace("M", "n0_M")
    assert renamed.main_stage.body[0].label == "n0_Li"
    assert repr(loop.body[0].cond) == before and loop.label == "Li"
    a = np.arange(1, 5, dtype=np.float32).reshape(4, 1)
    got = interpret(renamed, {"n0_M": 4}, {"X": a})
    assert np.array_equal(got["C"], interpret(comp, {"M": 4}, {"A": a})["C"])
