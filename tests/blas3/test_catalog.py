"""Tests for the BLAS3 catalog: naming, sources, references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas3 import (
    ALL_VARIANTS,
    all_specs,
    build_routine,
    densify_symmetric,
    densify_triangular,
    get_spec,
    parse_variant,
    random_inputs,
    reference,
)
from repro.blas3.routines import epilogue
from repro.ir import interpret, validate


class TestNaming:
    def test_24_variants(self):
        assert len(ALL_VARIANTS) == 24

    def test_families(self):
        counts = {}
        for v in ALL_VARIANTS:
            counts[v.family] = counts.get(v.family, 0) + 1
        assert counts == {"GEMM": 4, "SYMM": 4, "TRMM": 8, "TRSM": 8}

    def test_parse_roundtrip(self):
        for v in ALL_VARIANTS:
            assert parse_variant(v.name) == v

    def test_paper_postfix_form(self):
        v = parse_variant("TRSM-LL-N")
        assert v.family == "TRSM" and v.side == "L" and v.uplo == "L" and v.trans == "N"

    def test_case_insensitive(self):
        assert parse_variant("gemm-nt").name == "GEMM-NT"

    @pytest.mark.parametrize(
        "bad", ["GEMM", "GEMM-NX", "SYMM-XX", "TRMM-LL", "TRSM-LL-Q", "AXPY-LL-N"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_variant(bad)


class TestSpecs:
    def test_all_build_and_validate(self):
        for spec in all_specs():
            validate(build_routine(spec.name))

    def test_adaptor_assignments(self):
        assert get_spec("GEMM-NN").adaptations == ()
        assert get_spec("GEMM-TT").adaptations == (
            ("Adaptor_Transpose", "A"),
            ("Adaptor_Transpose", "B"),
        )
        assert ("Adaptor_Symmetry", "A") in get_spec("SYMM-RL").adaptations
        assert ("Adaptor_Solver", "A") in get_spec("TRSM-RU-T").adaptations
        # Transposed triangular variants also get the Transpose adaptor.
        assert ("Adaptor_Transpose", "A") in get_spec("TRMM-LL-T").adaptations
        assert ("Adaptor_Transpose", "A") not in get_spec("TRMM-LL-N").adaptations

    def test_role_maps(self):
        assert get_spec("TRMM-RL-N").resolve_role("B") == "A"
        assert get_spec("TRSM-LL-N").resolve_role("C") == "B"
        assert get_spec("GEMM-NN").resolve_role("B") == "B"

    def test_nominal_flops(self):
        sizes = {"M": 100, "N": 50, "K": 20}
        assert get_spec("GEMM-NN").nominal_flops(sizes) == 2 * 100 * 50 * 20
        assert get_spec("SYMM-LL").nominal_flops(sizes) == 2 * 100 * 100 * 50
        assert get_spec("TRMM-RU-N").nominal_flops(sizes) == 100 * 50 * 50

    def test_symm_regions_annotated(self):
        comp = build_routine("SYMM-LL")
        lk = comp.find_loop("Lk")
        regions = [
            r.region
            for stmt in lk.body
            for r in stmt.expr.array_refs()
            if r.array == "A"
        ]
        assert regions == ["real", "shadow"]


class TestReferenceSemantics:
    @pytest.mark.parametrize("name", [v.name for v in ALL_VARIANTS])
    def test_source_matches_reference(self, name):
        spec = get_spec(name)
        comp = build_routine(name)
        sizes = spec.make_sizes(10)
        inputs = random_inputs(name, sizes, seed=11)
        out = interpret(comp, sizes, inputs)
        np.testing.assert_allclose(
            out[spec.output], reference(name, inputs), rtol=3e-3, atol=3e-3
        )

    def test_alpha_beta_semantics(self):
        sizes = {"M": 6, "N": 6, "K": 6}
        inputs = random_inputs("GEMM-NN", sizes, seed=2)
        ref = reference("GEMM-NN", inputs, alpha=2.0, beta=-1.0)
        a, b, c = (np.float64(inputs[k]) for k in "ABC")
        np.testing.assert_allclose(ref, 2.0 * a @ b - c, rtol=1e-6)

    def test_epilogue_hand_values(self):
        # Checked against hand-written values, not against the reference
        # that shares the epilogue.
        raw = np.array([[1.0, -2.0], [0.5, 4.0]], np.float32)
        c = np.array([[3.0, 1.0], [-1.0, 2.0]], np.float32)
        assert np.array_equal(
            epilogue(raw, 2.0, -0.5, c), np.array([[0.5, -4.5], [1.5, 7.0]])
        )
        assert np.array_equal(epilogue(raw, 1.5, 0.0, np.full((2, 2), np.nan)), 1.5 * raw)
        assert np.array_equal(epilogue(raw, 0.0, 1.0, c), c)
        assert np.array_equal(epilogue(raw, 2.0, 1.0), 2.0 * raw)

    def test_densify_symmetric(self):
        rng = np.random.default_rng(0)
        stored = np.tril(rng.standard_normal((5, 5)))
        full = densify_symmetric(stored, "L")
        np.testing.assert_allclose(full, full.T)
        np.testing.assert_allclose(np.tril(full), stored)

    def test_densify_triangular_trans(self):
        rng = np.random.default_rng(0)
        stored = np.triu(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(densify_triangular(stored, "U", "T"), stored.T)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_trsm_solve_property(self, seed):
        # op(A) · reference == B for every TRSM variant (solve correctness).
        sizes = {"M": 8, "N": 8}
        for name in ("TRSM-LL-N", "TRSM-LU-T", "TRSM-RL-N", "TRSM-RU-N"):
            v = parse_variant(name)
            inputs = random_inputs(name, sizes, seed=seed)
            x = reference(name, inputs)
            op = densify_triangular(np.float64(inputs["A"]), v.uplo, v.trans)
            recon = op @ x if v.side == "L" else x @ op
            np.testing.assert_allclose(recon, np.float64(inputs["B"]), rtol=1e-4, atol=1e-6)
