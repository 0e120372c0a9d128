"""Tests for LibraryGenerator / TunedRoutine / GeneratedLibrary.

Small tile spaces keep the searches fast; the full-size searches run in
the benchmark harness.
"""

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.blas3.routines import infer_sizes
from repro.gpu import GTX_285
from repro.tuner import LibraryGenerator, TuningOptions

SMALL_SPACE = [
    {"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
]


@pytest.fixture(scope="module")
def gen():
    return LibraryGenerator(GTX_285, options=TuningOptions(space=SMALL_SPACE))


class TestGenerate:
    def test_gemm(self, gen):
        tuned = gen.generate("GEMM-NN")
        assert tuned.tuned_gflops > 0
        assert tuned.config in SMALL_SPACE

    def test_cached(self, gen):
        assert gen.generate("GEMM-NN") is gen.generate("GEMM-NN")

    def test_name_normalised(self, gen):
        assert gen.generate("gemm-nn") is gen.generate("GEMM-NN")

    def test_conditioned_variant_gets_fallback(self, gen):
        tuned = gen.generate("TRMM-LL-N")
        if tuned.conditions:
            assert tuned.fallback is not None
            assert not tuned.fallback.conditions

    def test_solver_routine_verified(self, gen):
        tuned = gen.generate("TRSM-LL-N")
        applied = {k[0] for k in tuned.applied_key}
        assert "binding_triangular" in applied  # racy variants filtered out


class TestRun:
    def test_gemm_run_with_alpha_beta(self, gen):
        tuned = gen.generate("GEMM-NN")
        sizes = {"M": 32, "N": 32, "K": 16}
        inputs = random_inputs("GEMM-NN", sizes, seed=1)
        got = tuned.run(alpha=2.0, beta=0.5, **inputs)
        want = reference("GEMM-NN", inputs, alpha=2.0, beta=0.5)
        np.testing.assert_allclose(got, want, rtol=3e-3, atol=3e-3)

    def test_trsm_run(self, gen):
        tuned = gen.generate("TRSM-LL-N")
        sizes = {"M": 32, "N": 32}
        inputs = random_inputs("TRSM-LL-N", sizes, seed=2)
        got = tuned.run(**inputs)
        np.testing.assert_allclose(
            got, reference("TRSM-LL-N", inputs), rtol=3e-3, atol=3e-3
        )

    def test_sizes_inferred_from_arrays(self, gen):
        tuned = gen.generate("GEMM-NN")
        sizes = infer_sizes(
            tuned.spec,
            {"A": np.zeros((32, 16)), "B": np.zeros((16, 64)), "C": np.zeros((32, 64))},
        )
        assert sizes == {"M": 32, "N": 64, "K": 16}

    @pytest.mark.parametrize(
        "routine, shapes",
        [
            ("GEMM-NN", {"A": (8, 16), "B": (20, 8)}),  # K is 16 and 20
            ("SYMM-LL", {"A": (12, 12), "B": (8, 8)}),  # M is 12 and 8
        ],
    )
    def test_inconsistent_inferred_shapes_raise(self, gen, routine, shapes):
        # Regression: sizes were read from one operand and the others were
        # silently cut to them.  Inferred sizes must agree (explicit
        # sizes keep the oversized-storage convention, TestOversizedStorage).
        tuned = gen.generate(routine)
        arrays = {name: np.ones(shape, np.float32) for name, shape in shapes.items()}
        with pytest.raises(ValueError, match="dimension"):
            tuned.run(**arrays)

    def test_tuple_operand_is_data_not_a_shape(self, gen):
        # A tuple of ints is array-like data (here 1-D), never a shape.
        spec = gen.generate("GEMM-NN").spec
        with pytest.raises(ValueError, match="rank"):
            infer_sizes(spec, {"A": (8, 16), "B": np.ones((16, 4), np.float32)})

    def test_padded_variant_dispatches_on_dirty_blanks(self, gen):
        tuned = gen.generate("TRMM-LL-N")
        if not tuned.conditions:
            pytest.skip("winner is not the padded variant at this space")
        sizes = {"M": 32, "N": 32}
        inputs = random_inputs("TRMM-LL-N", sizes, seed=3)
        rng = np.random.default_rng(0)
        dirty = dict(inputs)
        dirty["A"] = inputs["A"] + np.triu(rng.standard_normal((32, 32)), 1).astype(
            np.float32
        )
        got = tuned.run(**dirty)  # must fall back to the unconditioned variant
        np.testing.assert_allclose(
            got, reference("TRMM-LL-N", dirty), rtol=3e-3, atol=3e-3
        )

    def test_check_blank_zero(self, gen):
        tuned = gen.generate("TRMM-LL-N")
        sizes = {"M": 16, "N": 16}
        clean = random_inputs("TRMM-LL-N", sizes, seed=4)
        assert tuned.check_blank_zero(clean)
        dirty = dict(clean)
        dirty["A"] = clean["A"] + np.triu(np.ones((16, 16), np.float32), 1)
        assert not tuned.check_blank_zero(dirty)


class TestLibrary:
    def test_partial_library(self, gen):
        lib = gen.library(["GEMM-NN", "SYMM-LL"])
        assert set(lib.names()) == {"GEMM-NN", "SYMM-LL"}
        assert lib.gflops("SYMM-LL", 512) > 0

    def test_library_run(self, gen):
        lib = gen.library(["GEMM-NN"])
        sizes = {"M": 32, "N": 32, "K": 16}
        inputs = random_inputs("GEMM-NN", sizes, seed=5)
        got = lib.run("GEMM-NN", **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )

    def test_cuda_source_available(self, gen):
        src = gen.generate("GEMM-NN").cuda_source()
        assert "__global__" in src


class TestFullTileRegime:
    def test_indivisible_sizes_padded_transparently(self, gen):
        from repro.blas3 import random_inputs, reference

        tuned = gen.generate("GEMM-NN")
        sizes = {"M": 20, "N": 30, "K": 13}
        inputs = random_inputs("GEMM-NN", sizes, seed=6)
        got = tuned.run(**inputs)
        assert got.shape == (20, 30)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=3e-3, atol=3e-3
        )

    def test_indivisible_trsm_padded(self, gen):
        from repro.blas3 import random_inputs, reference

        tuned = gen.generate("TRSM-LL-N")
        sizes = {"M": 21, "N": 19}
        inputs = random_inputs("TRSM-LL-N", sizes, seed=7)
        got = tuned.run(**inputs)
        np.testing.assert_allclose(
            got, reference("TRSM-LL-N", inputs), rtol=4e-3, atol=4e-3
        )

    def test_divisible_sizes_accepted(self, gen):
        from repro.blas3 import random_inputs

        tuned = gen.generate("GEMM-NN")
        bm, bn, kt = tuned.config["BM"], tuned.config["BN"], tuned.config["KT"]
        sizes = {"M": bm, "N": bn, "K": kt}
        tuned.run(**random_inputs("GEMM-NN", sizes, seed=0))

    def test_missing_dim_symbol_is_clear_valueerror(self, gen):
        """Regression: a dim symbol absent from ``sizes`` was silently
        treated as divisible, deferring to an opaque KeyError deep in the
        padding path; it must raise up front, naming the symbol."""
        tuned = gen.generate("GEMM-NN")
        with pytest.raises(ValueError, match="K"):
            tuned._tile_divisible({"M": 16, "N": 16})

    def test_missing_dim_symbol_via_run(self, gen):
        from repro.blas3 import random_inputs

        tuned = gen.generate("GEMM-NN")
        inputs = random_inputs("GEMM-NN", {"M": 16, "N": 16, "K": 8}, seed=8)
        with pytest.raises(ValueError, match="GEMM-NN.*K"):
            tuned.run(sizes={"M": 16, "N": 16}, **inputs)


@pytest.fixture(scope="module")
def tile16():
    """Routines tuned at a 16×16×8 tile, so size 16 takes the exact-tile
    path and size 24 the padded one."""
    return LibraryGenerator(GTX_285, options=TuningOptions(space=SMALL_SPACE[:1]))


class TestOversizedStorage:
    """Buffers larger than the logical problem named by ``sizes`` (the BLAS
    leading-dimension convention) are served on both execution paths.

    Regression: the exact-tile path passed the whole buffers to the
    kernel and raised "input 'A' has shape (32, 32), expected (16, 16)",
    while off-tile sizes took the padded path and were served.
    """

    @pytest.mark.parametrize("routine", ["GEMM-NN", "TRSM-LL-N"])
    @pytest.mark.parametrize("n", [16, 24])
    def test_logical_region_matches_reference(self, tile16, routine, n):
        tuned = tile16.generate(routine)
        sizes = tuned.spec.make_sizes(n)
        assert tuned._tile_divisible(sizes) == (n == 16)
        storage = random_inputs(routine, tuned.spec.make_sizes(32), seed=n)
        logical = {
            name: data[tuple(slice(0, d.evaluate(sizes)) for d in tuned.spec.array(name).dims)]
            for name, data in storage.items()
        }
        got = tuned.run(sizes=sizes, alpha=1.5, beta=0.5, **storage)
        want = reference(routine, logical, alpha=1.5, beta=0.5)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=4e-3, atol=4e-3)

    @pytest.mark.parametrize("n", [16, 24])
    def test_storage_smaller_than_logical_extent_raises(self, tile16, n):
        tuned = tile16.generate("GEMM-NN")
        inputs = random_inputs("GEMM-NN", tuned.spec.make_sizes(8), seed=2)
        with pytest.raises(ValueError, match="smaller than its logical extent"):
            tuned.run(sizes=tuned.spec.make_sizes(n), **inputs)
