"""The JIT slices a loop only where no dependence can tell.

Each loop that becomes a NumPy slice axis must carry no dependence for
any value of the loops around it.  These tests check the compiled
kernels against the interpreter with ``np.array_equal``:

* five nests whose dependence shows only for some values of an
  enclosing loop or of a size, run sequentially and inside a
  thread-mapped loop;
* random nests whose enclosing variables appear in inner bounds, guards
  and index offsets, under both thread orders;
* every BLAS3 reference nest, which must also slice at least one loop,
  and four of them, which slice the longest legal chain of loops;
* the served TRSM-LL-N winners, whose diagonal solve slices ``sj``;
* the TRSM-RU-N and TRSM-RL-T winners of the default space and of the
  serve space at N=64, whose register tile loop ``b`` inside a 16-step
  tile loop slices.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import jit
from repro.blas3 import build_routine
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.composer.oracle import make_inputs, oracle_sizes
from repro.gpu import GTX_285
from repro.ir.affine import AffineExpr
from repro.ir.ast import ArrayRef, Assign, BinOp, Loop
from repro.ir.interpret import interpret
from repro.tuner import TuningOptions
from repro.tuner.library import LibraryGenerator

from ..ir.test_dependence_vectorized import SERVE_SPACE
from ..nest_strategies import EXTENT, SIZES, computation, nests

i, j = AffineExpr.variable("i"), AffineExpr.variable("j")
M = AffineExpr.variable("M")


def shrinking_trip_count():
    """``for i<M: for j<N: for k<M-i: A[j+1] += A[j]``: at i = M the
    k loop runs zero times, yet j carries a flow dependence below it."""
    stmt = Assign(ArrayRef("A", [j + 1]), ArrayRef("A", [j]), "+=")
    return Loop("i", 0, "M", [Loop("j", 0, "N", [Loop("k", 0, M - i, [stmt])])])


def shifting_overlap():
    """``for i<M: for j<N: A[j+i+1] = A[j] + A[j+i+1]``: the references
    overlap along j only for small i."""
    target = ArrayRef("A", [j + i + 1])
    stmt = Assign(target, BinOp("+", ArrayRef("A", [j]), target.clone()))
    return Loop("i", 0, "M", [Loop("j", 0, "N", [stmt])])


def size_shifted_overlap():
    """``for j<N: A[j+M] = A[j] + A[j+M]``: the references overlap along
    j only for a size ``M`` below ``N``."""
    target = ArrayRef("A", [j + M])
    return Loop("j", 0, "N", [Assign(target, BinOp("+", ArrayRef("A", [j]), target.clone()))])


def offset_past_six():
    """``for j<N: A[j+6] = A[j]``: iteration j + 6 reads what iteration j
    wrote, so j carries a dependence for N > 6 only."""
    return Loop("j", 0, "N", [Assign(ArrayRef("A", [j + 6]), ArrayRef("A", [j]))])


def triangular_reach():
    """``for i<M: for j<i: A[j+8] += A[j]``: j carries a flow dependence
    once it reaches 8, which needs i = 9 and M > 9."""
    return Loop("i", 0, "M", [Loop("j", 0, i, [Assign(ArrayRef("A", [j + 8]), ArrayRef("A", [j]), "+=")])])


def run_both(body, sizes, thread_order="asc", seed=0):
    comp = computation(body)
    rng = np.random.default_rng(seed)
    inputs = {
        name: rng.random(tuple(EXTENT for _ in array.dims)).astype(np.float32)
        for name, array in comp.arrays.items()
    }
    ref = interpret(comp, sizes, inputs, thread_order=thread_order)
    got = jit.execute(comp, sizes, inputs, thread_order=thread_order)
    return comp, ref, got


@pytest.mark.parametrize(
    "nest",
    [shrinking_trip_count, shifting_overlap, size_shifted_overlap, offset_past_six, triangular_reach],
)
@pytest.mark.parametrize("mapped", [False, True], ids=["sequential", "thread-mapped"])
def test_enclosing_loop_dependence_keeps_the_loop_scalar(nest, mapped):
    body = [nest()]
    if mapped:
        body = [Loop("tx", 0, 2, body, mapped_to="thread.x")]
    for sizes in ({"M": 7, "N": 8}, {"M": 1, "N": 8}, {"M": 12, "N": 12}):
        for order in ("asc", "desc"):
            _, ref, got = run_both(body, sizes, order)
            assert np.array_equal(ref["A"], got["A"]), (sizes, order)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nest=st.booleans().flatmap(lambda mapped: nests(nonnegative=True, mapped=mapped)),
    sizes=st.fixed_dictionaries({name: st.integers(0, 5) for name in SIZES}),
)
def test_random_nests_match_the_interpreter(nest, sizes):
    body, _, _ = nest
    for order in ("asc", "desc"):
        _, ref, got = run_both(body, sizes, order)
        for name in ref:
            # products of products can overflow to inf and then NaN; the
            # same NaN in both is agreement
            assert np.array_equal(ref[name], got[name], equal_nan=True), (order, name)


REFERENCE_NESTS = [str(v) for v in ALL_VARIANTS + BATCHED_VARIANTS]


@pytest.mark.parametrize("name", REFERENCE_NESTS)
def test_reference_nest_is_sliced_and_bit_identical(name):
    comp = build_routine(name)
    kernel = jit.compile_computation(comp)
    assert kernel is not None and kernel.vectorized_loops >= 1
    oracle = oracle_sizes(comp, LibraryGenerator.VERIFY_CONFIG)
    ragged = {symbol: 20 if symbol != "P" else 3 for symbol in comp.dim_symbols}
    for sizes in (oracle, ragged):  # 20 is no multiple of a 16 or 8 tile
        inputs = make_inputs(comp, sizes, seed=sum(sizes.values()))
        ref = interpret(comp, sizes, inputs, {"alpha": 1.5, "beta": -0.5})
        got = jit.execute(comp, sizes, inputs, {"alpha": 1.5, "beta": -0.5}, kernel=kernel)
        for array in ref:
            assert np.array_equal(ref[array], got[array]), (sizes, array)


@pytest.mark.parametrize(
    "name, native, sliced",
    [
        ("GEMM-NN", "k", "ij"),
        ("BGEMM-NN", "k", "pij"),
        ("TRSM-LL-N", "ik", "j"),
        ("TRMM-RU-N", "jk", "i"),
    ],
)
def test_reference_nest_slices_its_longest_chain(name, native, sliced):
    # GEMM's i, j (BGEMM's p, i, j) become one slice expression; TRSM's
    # A[i][i] keeps i native and TRMM-RU's k starts at j, so one loop
    # slices there; the reductions over k stay native loops, so their
    # float32 order is the interpreter's
    kernel = jit.compile_computation(build_routine(name))
    loops = set(re.findall(r"for v\d+_(\w+) in", kernel.source))
    assert loops == set(native) and kernel.vectorized_loops == len(sliced)


@pytest.mark.parametrize("bucket", [16, 64])
def test_served_trsm_slices_its_diagonal_solve(bucket):
    # the tx == 0 and ty == 0 block solves ``for si: for sj: { for k:
    # B[si][sj] -= A[si][k] * B[k][sj]; B[si][sj] /= A[si][si] }``: sj
    # shares B's column in every reference, so it slices, and si (which
    # reads the diagonal A[si][si]) stays native
    options = TuningOptions(jobs=1, space=SERVE_SPACE, tune_size=bucket)
    comp = LibraryGenerator(GTX_285, options=options).generate("TRSM-LL-N").comp
    sizes = {symbol: bucket for symbol in comp.dim_symbols}
    inputs = make_inputs(comp, sizes, seed=bucket)
    for order in ("asc", "desc"):
        kernel = jit.compile_computation(comp, order)
        loops = set(re.findall(r"for v\d+_(\w+) in", kernel.source))
        assert "si" in loops and "sj" not in loops, order
        ref = interpret(comp, sizes, inputs, {"alpha": 1.5}, thread_order=order)
        got = jit.execute(comp, sizes, inputs, {"alpha": 1.5}, thread_order=order, kernel=kernel)
        for array in ref:
            assert np.array_equal(ref[array], got[array]), (order, array)


@pytest.mark.parametrize("name", ["TRSM-RU-N", "TRSM-RL-T"])
@pytest.mark.parametrize(
    "options", [{}, dict(space=SERVE_SPACE, tune_size=64)], ids=["default", "serve64"]
)
def test_tiled_trsm_winner_slices_its_register_tile(name, options):
    # the b loop only updates the tile's own columns (rows for RL-T),
    # while k reads the tiles before it: b carries no dependence
    tuned = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1, **options)).generate(name)
    comp = tuned.comp
    sizes = oracle_sizes(comp, tuned.config)
    inputs = make_inputs(comp, sizes, seed=1)
    for order in ("asc", "desc"):
        kernel = jit.compile_computation(comp, order)
        assert not re.search(r"for v\d+_b in", kernel.source), order
        ref = interpret(comp, sizes, inputs, {"alpha": 1.5}, thread_order=order)
        got = jit.execute(comp, sizes, inputs, {"alpha": 1.5}, thread_order=order, kernel=kernel)
        for array in ref:
            assert np.array_equal(ref[array], got[array]), (order, array)
