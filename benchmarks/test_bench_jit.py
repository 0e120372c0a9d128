"""Benchmark: compiled (repro.jit) vs interpreted kernel execution.

Runs each representative tuned-shape kernel at the verify tile
configuration through both execution paths — the tree-walking
interpreter and the JIT-compiled NumPy kernel — at N=32 and N=64,
asserts the compiled path is an order of magnitude faster, and writes
``BENCH_jit.json`` at the repo root.  Then runs all 28 BLAS3 reference
nests (the source routines every verify sweep runs as its oracle) at
the verify sweep's sizes and adds their interpreter and JIT times and
sliced loop counts under ``reference_nests``, and the serve space's
GEMM-NN and TRSM-LL-N winners under ``served``: those of the N=64
bucket at N=48 and 64 (what the ``serve_kernel`` perfbench workload
serves) and those of the N=16 bucket at N=16 and 32 (``serve_small``'s
kernels).  Cross-checks outputs bit-for-bit on every measured run, so
the numbers can never drift from correctness.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro import jit
from repro.blas3 import BASE_GEMM_SCRIPT, build_routine, random_inputs
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.composer.oracle import make_inputs, oracle_sizes
from repro.epod import parse_script, translate
from repro.gpu import GTX_285
from repro.ir.interpret import interpret
from repro.tuner import TuningOptions
from repro.tuner.library import LibraryGenerator
from tests.ir.test_dependence_vectorized import SERVE_SPACE

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_jit.json"

#: The tuner's VERIFY_CONFIG tile shape — what verify/oracle sweeps run.
CONFIG = {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2}

VARIANT_SCRIPTS = {
    "GEMM-NN": BASE_GEMM_SCRIPT,
    "SYMM-LL": """
        GM_map(A, Symmetry);
        format_iteration(A, Symmetry);
        (Lii, Ljj) = thread_grouping((Li, Lj));
        (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
        loop_unroll(Ljjj, Lkkk);
        SM_alloc(B, Transpose);
        Reg_alloc(C);
    """,
    "TRMM-LL-N": """
        (Lii, Ljj) = thread_grouping((Li, Lj));
        (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
        SM_alloc(B, Transpose);
    """,
    "TRSM-LL-N": """
        (Lii, Ljj) = thread_grouping((Li, Lj));
        (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
        peel_triangular(A);
        binding_triangular(A, 0);
        SM_alloc(B, Transpose);
    """,
}

SIZES_N = [32, 64]
JIT_REPS = 5

#: the serve workloads' routines, and the sizes each size bucket's plans
#: run at: ``serve_kernel``'s N=48/64 and ``serve_small``'s N=16/32
SERVED_ROUTINES = ("GEMM-NN", "TRSM-LL-N")
SERVED_SIZES = {64: (48, 64), 16: (16, 32)}


def _build(name):
    return translate(
        build_routine(name), parse_script(VARIANT_SCRIPTS[name]), params=CONFIG,
        mode="filter",
    ).comp


def test_bench_jit_vs_interpreter():
    jit.clear_cache()
    record = {"config": CONFIG, "routines": {}}
    lines = []
    for name in VARIANT_SCRIPTS:
        comp = _build(name)
        t0 = time.perf_counter()
        kernel = jit.compile_computation(comp)
        compile_s = time.perf_counter() - t0
        assert kernel is not None, f"{name} did not compile"

        per_size = {}
        for n in SIZES_N:
            sizes = {"M": n, "N": n}
            if "K" in comp.dim_symbols:
                sizes["K"] = n
            inputs = random_inputs(name, sizes, seed=17)

            t0 = time.perf_counter()
            ref = interpret(comp, sizes, inputs)
            interp_s = time.perf_counter() - t0

            got = jit.execute(comp, sizes, inputs)
            for arr in ref:  # the numbers are only meaningful if identical
                assert np.array_equal(ref[arr], got[arr]), f"{name} N={n}: {arr}"

            t0 = time.perf_counter()
            for _ in range(JIT_REPS):
                jit.execute(comp, sizes, inputs)
            jit_s = (time.perf_counter() - t0) / JIT_REPS

            speedup = interp_s / jit_s
            per_size[n] = {
                "interp_s": interp_s,
                "jit_s": jit_s,
                "speedup": speedup,
            }
            lines.append(
                f"{name:10s} N={n:3d}  interp {interp_s * 1e3:8.1f} ms  "
                f"jit {jit_s * 1e3:7.2f} ms  {speedup:6.1f}x"
            )
            # Every routine must beat the interpreter decisively; the
            # multiply families (more vectorized loops) clear 10x.
            assert speedup >= 6.0, f"{name} N={n}: only {speedup:.1f}x"
            if name == "GEMM-NN":
                assert speedup >= 10.0, f"headline speedup {speedup:.1f}x < 10x"

        record["routines"][name] = {
            "compile_s": compile_s,
            "vectorized_loops": kernel.vectorized_loops,
            "sizes": per_size,
        }

    speedups = [
        s["speedup"] for r in record["routines"].values() for s in r["sizes"].values()
    ]
    record["min_speedup"] = min(speedups)
    record["max_speedup"] = max(speedups)
    BENCH_PATH.write_text(json.dumps(record, indent=1))
    emit(
        "compiled vs interpreted kernel execution (verify tile config)\n"
        + "\n".join(lines)
        + f"\nmin {record['min_speedup']:.1f}x / max {record['max_speedup']:.1f}x"
        + f"\nwritten to {BENCH_PATH}"
    )


def test_bench_reference_nests():
    """Every reference nest slices at least one loop, matches the
    interpreter bit for bit and runs at least 5x faster than it."""
    jit.clear_cache()
    nests, lines = {}, []
    for name in map(str, ALL_VARIANTS + BATCHED_VARIANTS):
        comp = build_routine(name)
        kernel = jit.compile_computation(comp)
        sizes = oracle_sizes(
            comp, LibraryGenerator.VERIFY_CONFIG, tiles=LibraryGenerator.VERIFY_TILES
        )
        inputs = make_inputs(comp, sizes, seed=5)

        t0 = time.perf_counter()
        ref = interpret(comp, sizes, inputs)
        interp_s = time.perf_counter() - t0
        got = jit.execute(comp, sizes, inputs, kernel=kernel)
        for arr in ref:
            assert np.array_equal(ref[arr], got[arr]), f"{name}: {arr}"
        jit_s = float("inf")
        for _ in range(JIT_REPS):
            t0 = time.perf_counter()
            jit.execute(comp, sizes, inputs, kernel=kernel)
            jit_s = min(jit_s, time.perf_counter() - t0)

        nests[name] = {
            "sizes": sizes,
            "interp_s": interp_s,
            "jit_s": jit_s,
            "speedup": interp_s / jit_s,
            "vectorized_loops": kernel.vectorized_loops,
        }
        lines.append(
            f"{name:10s} interp {interp_s * 1e3:8.1f} ms  jit {jit_s * 1e3:7.2f} ms  "
            f"{interp_s / jit_s:6.1f}x  sliced {kernel.vectorized_loops}"
        )
        assert kernel.vectorized_loops >= 1, f"{name}: no loop sliced"
        assert interp_s / jit_s >= 5.0, f"{name}: only {interp_s / jit_s:.1f}x"

    _record("reference_nests", nests)
    emit(
        "reference nests at the verify sweep's sizes, compiled vs interpreted\n"
        + "\n".join(lines)
        + f"\nwritten to {BENCH_PATH}"
    )


def _record(key, value):
    record = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    record[key] = value
    BENCH_PATH.write_text(json.dumps(record, indent=1))


def test_bench_served_kernels():
    """The kernels the serve workloads spend their time in: each
    serve-space winner's best-of-5 execution time, bit-identical to the
    interpreter."""
    jit.clear_cache()
    served, lines = {}, []
    for bucket, ns in SERVED_SIZES.items():
        options = TuningOptions(jobs=1, space=SERVE_SPACE, tune_size=bucket)
        generator = LibraryGenerator(GTX_285, options=options)
        for name in SERVED_ROUTINES:
            tuned = generator.generate(name)
            kernel = jit.compile_computation(tuned.comp)
            for n in ns:
                sizes = {symbol: n for symbol in tuned.comp.dim_symbols}
                inputs = make_inputs(tuned.comp, sizes, seed=n)
                scalars = {"alpha": 1.5, "beta": 0.5}
                ref = interpret(tuned.comp, sizes, inputs, scalars)
                got = jit.execute(tuned.comp, sizes, inputs, scalars, kernel=kernel)
                for arr in ref:
                    assert np.array_equal(ref[arr], got[arr]), f"{name} N={n}: {arr}"
                best = float("inf")
                for _ in range(JIT_REPS):
                    t0 = time.perf_counter()
                    jit.execute(tuned.comp, sizes, inputs, scalars, kernel=kernel)
                    best = min(best, time.perf_counter() - t0)
                served[f"{name}@{n}"] = {
                    "bucket": bucket,
                    "config": tuned.config,
                    "kernel_us": round(best * 1e6, 1),
                    "vectorized_loops": kernel.vectorized_loops,
                }
                lines.append(
                    f"{name:10s} N={n:3d} (bucket {bucket:2d})  kernel {best * 1e6:10.1f} us  "
                    f"sliced {kernel.vectorized_loops}"
                )
    _record("served", served)
    emit("the serve workloads' kernels (serve space)\n" + "\n".join(lines) + f"\nwritten to {BENCH_PATH}")
