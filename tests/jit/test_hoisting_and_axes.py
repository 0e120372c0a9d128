"""Hoisted slices and views, and multi-axis register tiles, in the JIT.

The lowering hoists loop-invariant slices and the views that ``+=`` and
``-=`` update above each native loop, and lowers a register tile's
unmapped loops under the thread loops as one multi-axis slice
expression.  These tests check that:

* a view is made only when its loop runs, so a zero-trip loop whose
  target index would be out of range does not raise;
* the served GEMM-NN winner updates its accumulator through a view made
  outside the ``k`` loop;
* a tile of several rows and columns becomes a two-axis slice, a
  one-row tile keeps its row loop native, and a reference that meets
  the axes out of order keeps the nest to one axis, and a lone axis of
  two iterations stays native;
* every compiled kernel of all 28 routines, at the verify tile
  configuration and in the serve space, is ``np.array_equal`` to the
  interpreter under both thread orders and both flag settings.
"""

import re

import numpy as np
import pytest

from repro import jit
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.composer.oracle import make_inputs, oracle_sizes
from repro.gpu import GTX_285
from repro.ir.affine import AffineExpr
from repro.ir.ast import Array, ArrayRef, Assign, Computation, Loop, Stage
from repro.ir.interpret import interpret
from repro.tuner import TuningOptions
from repro.tuner.library import LibraryGenerator

from ..ir.test_dependence_vectorized import SERVE_SPACE

ROUTINES = [str(v) for v in ALL_VARIANTS + BATCHED_VARIANTS]
SPACES = {
    "verify": dict(space=[LibraryGenerator.VERIFY_CONFIG]),
    "serve": dict(space=SERVE_SPACE, tune_size=16),
}


@pytest.fixture(scope="module")
def generators():
    return {
        label: LibraryGenerator(GTX_285, options=TuningOptions(jobs=1, **options))
        for label, options in SPACES.items()
    }


def test_zero_trip_loop_makes_no_view():
    """``for i < M+1: for j < N (sliced): for k in i..M: A[i][j] += B[k][j]``:
    at i = M the k loop is empty and row M of A does not exist."""
    i, j, k, M, N = (AffineExpr.variable(name) for name in "ijkMN")
    stmt = Assign(ArrayRef("A", [i, j]), ArrayRef("B", [k, j]), "+=")
    nest = Loop("i", 0, M + 1, [Loop("j", 0, N, [Loop("k", i, M, [stmt])])])
    arrays = {name: Array(name, (M, N)) for name in "AB"}
    comp = Computation("zero_trip", arrays, [Stage("main", [nest])], scalars=(), dim_symbols=("M", "N"))
    kernel = jit.compile_computation(comp)
    assert re.search(r"if _lo\d+ < _hi\d+:\n\s+_v\d+ = b\d+_A\[", kernel.source)
    sizes = {"M": 5, "N": 7}
    rng = np.random.default_rng(0)
    inputs = {name: rng.random((5, 7)).astype(np.float32) for name in ("A", "B")}
    ref = interpret(comp, sizes, inputs)
    got = jit.execute(comp, sizes, inputs, kernel=kernel)
    assert np.array_equal(ref["A"], got["A"])


def test_served_gemm_accumulates_through_a_view_made_outside_k(generators):
    tuned = generators["serve"].generate("GEMM-NN")
    source = jit.compile_computation(tuned.comp).source
    hoisted = r"\n(\s*)if _lo\d+ < _hi\d+:\n\s+(_v\d+) = b\d+_C_r\[.*\n\1for (v\d+_k) in"
    view, loop = re.search(hoisted, source).group(2, 3)
    body = source.split(f"for {loop} in", 1)[1].splitlines()[1]
    assert body.strip().startswith(f"{view} += ")


@pytest.mark.parametrize("space, axes", [("verify", "ab"), ("serve", "b")])
def test_register_tile_axes(generators, space, axes):
    """The verify tile is 2x8 (rows ``a``, columns ``b``): both become
    axes.  Every serve-space tile has one row (BM = TX): its ``a`` runs
    once, stays a native loop, and only ``b`` slices."""
    tuned = generators[space].generate("GEMM-TN")
    source = jit.compile_computation(tuned.comp).source
    native = set(re.findall(r"for v\d+_(\w+) in", source))
    assert not set(axes) & native
    assert ("a" in native) == (axes == "b")


def test_transposed_reference_keeps_one_axis():
    """``for tx (thread): for a < 3: for b < 2: X[tx][a][b] = Y[tx][b][a]``:
    Y meets the axes out of order, so its slice would be 2x3 against a
    3x2 target; ``a`` slices alone and ``b`` stays native."""
    tx, a, b, T = (AffineExpr.variable(name) for name in ("tx", "a", "b", "T"))
    stmt = Assign(ArrayRef("X", [tx, a, b]), ArrayRef("Y", [tx, b, a]))
    nest = Loop("tx", 0, T, [Loop("a", 0, 3, [Loop("b", 0, 2, [stmt])])], mapped_to="thread.x")
    arrays = {"X": Array("X", (T, 3, 2)), "Y": Array("Y", (T, 2, 3))}
    comp = Computation("transposed", arrays, [Stage("main", [nest])], scalars=(), dim_symbols=("T",))
    kernel = jit.compile_computation(comp)
    assert set(re.findall(r"for v\d+_(\w+) in", kernel.source)) == {"tx", "b"}
    rng = np.random.default_rng(1)
    inputs = {"Y": rng.random((4, 2, 3)).astype(np.float32)}
    ref = interpret(comp, {"T": 4}, inputs)
    got = jit.execute(comp, {"T": 4}, inputs, kernel=kernel)
    assert np.array_equal(ref["X"], got["X"])


def test_a_lone_two_iteration_axis_stays_native():
    """``for tx (thread): for a < 2: for b < 8: for k < b: C[tx][a][b] +=
    A[a][k]``: ``b`` bounds ``k`` and cannot slice, and ``a`` alone would
    be a 2-wide slice under native loops, slower than its two scalar
    iterations, so every loop stays native; with three rows ``a`` slices."""
    tx, a, b, k, T = (AffineExpr.variable(name) for name in ("tx", "a", "b", "k", "T"))
    stmt = Assign(ArrayRef("C", [tx, a, b]), ArrayRef("A", [a, k]), "+=")
    arrays = {"C": Array("C", (T, 3, 8)), "A": Array("A", (3, 8))}

    def sliced(rows):
        tile = Loop("a", 0, rows, [Loop("b", 0, 8, [Loop("k", 0, b, [stmt])])])
        nest = Loop("tx", 0, T, [tile], mapped_to="thread.x")
        comp = Computation("tile", arrays, [Stage("main", [nest])], scalars=(), dim_symbols=("T",))
        return jit.compile_computation(comp).vectorized_loops

    assert sliced(2) == 0
    assert sliced(3) == 1


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("name", ROUTINES)
def test_compiled_matches_interpreter(generators, space, name):
    tuned = generators[space].generate(name)
    for kind, t in (("winner", tuned), ("fallback", tuned.fallback)):
        if t is None:
            continue
        comp = t.comp
        sizes = oracle_sizes(comp, t.config)
        inputs = make_inputs(comp, sizes, seed=3)
        scalars = {"alpha": 1.5, "beta": -0.5}
        settings = [{flag: value for flag in comp.flags} for value in (True, False)] if comp.flags else [None]
        for order in ("asc", "desc"):
            kernel = jit.compile_computation(comp, order)
            assert kernel is not None, (kind, order)
            for flags in settings:
                ref = interpret(comp, sizes, inputs, scalars, flags, thread_order=order)
                got = jit.execute(comp, sizes, inputs, scalars, flags, thread_order=order, kernel=kernel)
                for array in ref:
                    assert np.array_equal(ref[array], got[array]), (kind, order, flags, array)
