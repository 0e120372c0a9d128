"""Tests for the expression-DAG IR (:mod:`repro.dag.expr`)."""

import numpy as np
import pytest

from repro.dag import Dag, Expr, chain


def gemm_trsm_chain():
    return chain(
        ("GEMM-NN", {"A": "A", "B": "B"}),
        ("TRSM-LL-N", {"A": "L"}),
    )


class TestExpr:
    def test_input_must_be_identifier(self):
        with pytest.raises(ValueError, match="identifier"):
            Expr.input("not an identifier")

    def test_underscore_inputs_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            Expr.input("_t0")

    def test_unknown_operand_rejected(self):
        with pytest.raises(ValueError, match="no operand"):
            Expr.call("GEMM-NN", A="A", B="B", X="X")

    def test_missing_operand_rejected(self):
        with pytest.raises(ValueError, match="missing operands"):
            Expr.call("GEMM-NN", A="A")

    def test_unbound_c_forces_beta_zero(self):
        expr = Expr.call("GEMM-NN", A="A", B="B", beta=0.5)
        assert expr.beta == 0.0
        bound = Expr.call("GEMM-NN", A="A", B="B", C="C", beta=0.5)
        assert bound.beta == 0.5

    def test_strings_promote_to_inputs(self):
        expr = Expr.call("GEMM-NN", A="A", B="B")
        assert expr.operands["A"].is_input
        assert expr.operands["A"].name == "A"


class TestChainBuilder:
    def test_first_step_must_be_fully_bound(self):
        with pytest.raises(ValueError, match="fully bound"):
            chain(("GEMM-NN", {"A": "A"}))

    def test_later_step_needs_exactly_one_hole(self):
        with pytest.raises(ValueError, match="exactly"):
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}),
                ("GEMM-NN", {}),  # both A and B unbound
            )

    def test_unknown_scalars_rejected(self):
        with pytest.raises(ValueError, match="unknown scalars"):
            chain(("GEMM-NN", {"A": "A", "B": "B"}, {"gamma": 2.0}))

    def test_threads_previous_output(self):
        dag = Dag(gemm_trsm_chain())
        assert len(dag) == 2
        # TRSM's right-hand side is node 0's output
        assert dag.nodes[1].sources["B"] == ("node", 0)
        assert dag.nodes[0].consumers == (1,)


class TestDag:
    def test_bare_input_rejected(self):
        with pytest.raises(ValueError, match="at least one call"):
            Dag(Expr.input("A"))

    def test_non_expr_rejected(self):
        with pytest.raises(TypeError):
            Dag("GEMM-NN")

    def test_shared_value_consumed_twice(self):
        t = Expr.call("GEMM-NN", A="A", B="B")
        top = Expr.call("GEMM-NN", A=t, B=t)
        dag = Dag(top)
        assert len(dag) == 2
        assert dag.nodes[0].consumers == (1, 1)
        assert dag.nodes[1].sources["A"] == ("node", 0)
        assert dag.nodes[1].sources["B"] == ("node", 0)

    def test_inplace_output_aliases_operand(self):
        dag = Dag(gemm_trsm_chain())
        # TRSM updates B in place: its output symbol IS the intermediate
        assert dag.nodes[1].output == dag.nodes[0].output == "_t0"

    def test_fingerprint_stable_across_builds(self):
        assert Dag(gemm_trsm_chain()).fingerprint == Dag(
            gemm_trsm_chain()
        ).fingerprint

    def test_fingerprint_sees_scalars(self):
        plain = Dag(gemm_trsm_chain())
        scaled = Dag(
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}, {"alpha": 2.0}),
                ("TRSM-LL-N", {"A": "L"}),
            )
        )
        assert plain.fingerprint != scaled.fingerprint


class TestShapes:
    def test_node_sizes_propagate(self):
        dag = Dag(gemm_trsm_chain())
        sizes = dag.node_sizes(
            {"A": (8, 4), "B": (4, 6), "L": (8, 8)}
        )
        assert sizes[0] == {"M": 8, "N": 6, "K": 4}
        assert sizes[1] == {"M": 8, "N": 6}

    def test_conflicting_sizes_raise(self):
        dag = Dag(gemm_trsm_chain())
        with pytest.raises(ValueError, match="dimension"):
            dag.node_sizes({"A": (8, 4), "B": (5, 6), "L": (8, 8)})

    def test_missing_input_raises(self):
        dag = Dag(gemm_trsm_chain())
        with pytest.raises(ValueError, match="missing"):
            dag.node_sizes({"A": (8, 4), "B": (4, 6)})

    def test_canonical_sizes_flat_keys(self):
        dag = Dag(gemm_trsm_chain())
        flat = dag.canonical_sizes(
            {
                "A": np.zeros((8, 4)),
                "B": np.zeros((4, 6)),
                "L": np.zeros((8, 8)),
            }
        )
        assert flat == {
            "n0.M": 8, "n0.N": 6, "n0.K": 4, "n1.M": 8, "n1.N": 6,
        }

    def test_output_shape(self):
        dag = Dag(gemm_trsm_chain())
        shape = dag.output_shape(
            {
                "A": np.zeros((8, 4)),
                "B": np.zeros((4, 6)),
                "L": np.zeros((8, 8)),
            }
        )
        assert shape == (8, 6)


class TestReference:
    def test_chained_reference_matches_numpy(self):
        rng = np.random.default_rng(7)
        n = 8
        a = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32)
        low = (
            np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        ).astype(np.float32)
        dag = Dag(gemm_trsm_chain())
        out = dag.reference({"A": a, "B": b, "L": low})
        t = a.astype(np.float64) @ b.astype(np.float64)
        expect = np.linalg.solve(np.tril(low).astype(np.float64), t)
        np.testing.assert_allclose(out, expect, rtol=1e-10)

    def test_disagreeing_shapes_raise_before_any_node_runs(self):
        # L is 6x6 but the GEMM node's output has 8 rows: the DAG's own
        # shape check names the node, before any reference call runs.
        dag = Dag(gemm_trsm_chain())
        arrays = {"A": np.ones((8, 4)), "B": np.ones((4, 6)), "L": np.eye(6)}
        with pytest.raises(ValueError, match="node 1: TRSM-LL-N: dimension M"):
            dag.reference(arrays)
