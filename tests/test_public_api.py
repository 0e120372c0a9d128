"""Tests for the unified public-API surface.

The facade contract: ``repro.__all__`` is the public API, it matches what
the package actually exposes, ``options=TuningOptions(...)`` is the one
way to configure the tuning stack (the pre-1.1 per-knob kwargs finished
their deprecation cycle and now raise ``TypeError``), and the
expression-DAG surface (``Expr``/``Dag``/``chain``) is exported at the
top level.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.gpu import GTX_285
from repro.oa import OAFramework
from repro.tuner import LibraryGenerator, TuningOptions, VariantSearch
from repro.tuner.options import resolve_options

SMALL_SPACE = ({"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2},)


class TestAllConsistency:
    def test_all_matches_public_names(self):
        import types

        public = {
            name
            for name, value in vars(repro).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)
            and name != "annotations"
        }
        assert public == set(repro.__all__)

    def test_all_is_sorted_and_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_every_name_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_serving_surface_is_public(self):
        for name in ("BlasService", "DistLibrary", "ServeOptions", "TuningOptions"):
            assert name in repro.__all__


class TestTuningOptions:
    def test_frozen_and_replace(self):
        options = TuningOptions(tune_size=512)
        with pytest.raises(Exception):
            options.tune_size = 1024
        assert options.replace(jobs=2).jobs == 2
        assert options.replace(jobs=2).tune_size == 512

    def test_options_style_accepted_everywhere(self):
        options = TuningOptions(tune_size=256, space=SMALL_SPACE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation noise
            search = VariantSearch(GTX_285, options=options)
            generator = LibraryGenerator(GTX_285, options=options)
            oa = OAFramework(GTX_285, options=options)
        assert search.options.tune_size == 256
        assert generator.options.space == SMALL_SPACE
        assert oa.generator.options.tune_size == 256

    def test_legacy_kwargs_are_gone(self):
        # the 1.1 deprecation cycle is complete: per-knob kwargs raise
        with pytest.raises(TypeError):
            VariantSearch(GTX_285, tune_size=256, space=SMALL_SPACE)
        with pytest.raises(TypeError):
            OAFramework(GTX_285, tune_size=128)
        with pytest.raises(TypeError):
            LibraryGenerator(GTX_285, cache_dir="/tmp/nope")

    def test_options_must_be_tuning_options(self):
        with pytest.raises(TypeError, match="VariantSearch"):
            VariantSearch(GTX_285, options={"tune_size": 256})
        with pytest.raises(TypeError, match="LibraryGenerator"):
            LibraryGenerator(GTX_285, options=(1, 2))

    def test_resolve_defaults(self):
        options = resolve_options(None, owner="test")
        assert options == TuningOptions()
        assert options.tune_size == 4096
        assert options.full_space is False

    def test_space_normalised_to_tuple(self):
        options = TuningOptions(space=[{"BM": 16}])
        assert isinstance(options.space, tuple)


class TestDagSurface:
    def test_dag_names_are_public(self):
        for name in ("Dag", "DagNode", "Expr", "chain"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_chain_builds_a_dag(self):
        dag = repro.Dag(
            repro.chain(
                ("GEMM-NN", {"A": "A", "B": "B"}),
                ("TRSM-LL-N", {"A": "L"}),
            )
        )
        assert len(dag) == 2
        assert dag.routine_key.startswith("dag:")
        assert dag.inputs == ["A", "B", "L"]

    def test_fingerprint_hashes_structure_not_names(self):
        x = repro.Dag(repro.Expr.call("GEMM-NN", A="P", B="Q", C="R"))
        y = repro.Dag(repro.Expr.call("GEMM-NN", A="A", B="B", C="C"))
        assert x.fingerprint == y.fingerprint
        z = repro.Dag(
            repro.Expr.call("GEMM-NN", A="A", B="B", C="C", beta=0.5)
        )
        assert z.fingerprint != y.fingerprint

    def test_one_node_dag_reference_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        dag = repro.Dag.single("GEMM-NN", beta=0.0, operands=["A", "B"])
        out = dag.reference({"A": a, "B": b})
        np.testing.assert_allclose(
            out, a.astype(np.float64) @ b.astype(np.float64), rtol=1e-6
        )
