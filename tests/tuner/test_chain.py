"""Tests for chain tuning (:mod:`repro.tuner.chain`).

The contract under test: the fusion decision is a *tuning* decision
gated by legality — a legal, modeled-profitable edge fuses; an illegal
edge (GEMM→TRMM-LL-T's transposed read) is declined — and EVERY path
(fused, unfused, declined) stays bit-identical to running the per-node
plans back to back and numerically faithful to the NumPy chained
reference.
"""

import numpy as np
import pytest

from repro.dag import Dag, chain
from repro.gpu import GTX_285, SimulatedGPU, estimate_time
from repro.telemetry import Telemetry
from repro.tuner import LibraryGenerator, TuningOptions
from repro.tuner.chain import build_chain_plan

SPACE = (
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
)
N = 32


@pytest.fixture(scope="module")
def generator():
    return LibraryGenerator(
        GTX_285,
        telemetry=Telemetry(),
        options=TuningOptions(tune_size=64, space=SPACE, jobs=1),
    )


def gemm_trsm_dag():
    return Dag(
        chain(
            ("GEMM-NN", {"A": "A", "B": "B"}),
            ("TRSM-LL-N", {"A": "L"}),
        )
    )


def make_inputs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((N, N)).astype(np.float32)
    b = rng.standard_normal((N, N)).astype(np.float32)
    low = (
        np.tril(rng.standard_normal((N, N))) + N * np.eye(N)
    ).astype(np.float32)
    return {"A": a, "B": b, "L": low}


class TestFusedChain:
    def test_gemm_trsm_fuses_and_matches_reference(self, generator):
        dag = gemm_trsm_dag()
        arrays = make_inputs()
        plan = build_chain_plan(dag, generator, arrays=arrays, fuse=True)
        assert plan.legal == [True]
        assert plan.eligible == [True]
        assert plan.fused
        assert plan.timing is not None and plan.timing.feasible
        out = plan.execute(dag, arrays)
        np.testing.assert_allclose(
            out, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )

    def test_fused_bit_identical_to_unfused(self, generator):
        dag = gemm_trsm_dag()
        arrays = make_inputs(seed=5)
        fused = build_chain_plan(dag, generator, arrays=arrays, fuse=True)
        unfused = build_chain_plan(dag, generator, arrays=arrays, fuse=False)
        assert fused.fused and not unfused.fused
        a = fused.execute(dag, arrays)
        b = unfused.execute(dag, arrays)
        assert np.array_equal(a, b)

    def test_plan_serves_same_fingerprint_other_names(self, generator):
        # the plan is keyed on structure; a request naming its inputs
        # differently must execute through the same plan
        plan = build_chain_plan(
            dag := gemm_trsm_dag(), generator, arrays=make_inputs(), fuse=True
        )
        other = Dag(
            chain(
                ("GEMM-NN", {"A": "P", "B": "Q"}),
                ("TRSM-LL-N", {"A": "R"}),
            )
        )
        assert other.fingerprint == dag.fingerprint
        arrays = make_inputs(seed=9)
        renamed = {"P": arrays["A"], "Q": arrays["B"], "R": arrays["L"]}
        out = plan.execute(other, renamed)
        np.testing.assert_allclose(
            out, other.reference(renamed), rtol=1e-4, atol=1e-4
        )

    def test_epilogue_scaling_on_final_node(self, generator):
        # fused segments apply the final node's alpha/beta host-side;
        # a bound C with beta != 0 must survive fusion
        dag = Dag(
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}),
                ("GEMM-NN", {"B": "D", "C": "C0"}, {"alpha": 2.0, "beta": 0.5}),
            )
        )
        rng = np.random.default_rng(11)
        arrays = {
            "A": rng.standard_normal((N, N)).astype(np.float32),
            "B": rng.standard_normal((N, N)).astype(np.float32),
            "D": rng.standard_normal((N, N)).astype(np.float32),
            "C0": rng.standard_normal((N, N)).astype(np.float32),
        }
        plan = build_chain_plan(dag, generator, arrays=arrays, fuse=True)
        out = plan.execute(dag, arrays)
        np.testing.assert_allclose(
            out, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )


class TestChainTimingIdentities:
    """The fusion benchmark rebuilds its serial and saved-traffic
    figures from the plan's two launch timings; pin both identities on
    its smoke GEMM-NN→TRSM-LL-N chain (N=32, tuned at N)."""

    @pytest.fixture(scope="class")
    def plan(self):
        smoke = LibraryGenerator(
            GTX_285, options=TuningOptions(tune_size=N, space=SPACE, jobs=1)
        )
        return build_chain_plan(
            gemm_trsm_dag(), smoke, arrays=make_inputs(), fuse=True
        )

    def test_unfused_time_is_the_nodes_own_launches(self, plan):
        assert plan.fused
        dag = plan.dag
        node_sizes = dag.node_sizes({k: v.shape for k, v in make_inputs().items()})
        gpu = SimulatedGPU(GTX_285)
        per_node = sum(
            estimate_time(GTX_285, gpu.profile(node.comp, sizes).models).time_s
            for node, sizes in zip(plan.node_plans, node_sizes)
        )
        assert plan.unfused_timing.time_s == per_node
        assert plan.timing.time_s < plan.unfused_timing.time_s

    def test_saved_bytes_is_the_dropped_round_trip(self, plan):
        unfused = sum(k.bytes_moved for k in plan.unfused_timing.kernels)
        fused = sum(k.bytes_moved for k in plan.timing.kernels)
        assert unfused - fused == 91_136


class TestDeclinedChain:
    def test_illegal_edge_stays_unfused_yet_exact(self, generator):
        # GEMM→TRMM-LL-T: the consumer reads the intermediate through
        # A^T, which the dependence analysis rejects.  The plan must
        # come back unfused — and still bit-identical to the per-node
        # (chained) execution.
        dag = Dag(
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}),
                ("TRMM-LL-T", {"A": "L"}),
            )
        )
        arrays = make_inputs(seed=2)
        plan = build_chain_plan(dag, generator, arrays=arrays, fuse=True)
        assert plan.legal == [False]
        assert plan.eligible == [False]
        assert not plan.fused
        assert plan.notes  # the dependence veto is recorded
        fused_path = plan.execute(dag, arrays)
        unfused = build_chain_plan(dag, generator, arrays=arrays, fuse=False)
        assert np.array_equal(fused_path, unfused.execute(dag, arrays))
        np.testing.assert_allclose(
            fused_path, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )

    def test_scaled_producer_not_eligible(self, generator):
        # a producer with alpha != 1 cannot hand its raw accumulator to
        # a fused consumer — legality may hold, eligibility must not
        dag = Dag(
            chain(
                ("GEMM-NN", {"A": "A", "B": "B"}, {"alpha": 2.0}),
                ("TRSM-LL-N", {"A": "L"}),
            )
        )
        arrays = make_inputs(seed=4)
        plan = build_chain_plan(dag, generator, arrays=arrays, fuse=True)
        assert plan.eligible == [False]
        assert not plan.fused
        out = plan.execute(dag, arrays)
        np.testing.assert_allclose(
            out, dag.reference(arrays), rtol=1e-4, atol=1e-4
        )


class TestTelemetry:
    def test_fusion_counters(self):
        telemetry = Telemetry()
        generator = LibraryGenerator(
            GTX_285,
            telemetry=telemetry,
            options=TuningOptions(tune_size=64, space=SPACE, jobs=1),
        )
        build_chain_plan(
            gemm_trsm_dag(), generator, arrays=make_inputs(), fuse=True
        )
        assert telemetry.count("fusion.legal_edges") == 1
        assert telemetry.count("fusion.illegal_edges") == 0
        assert telemetry.count("fusion.fused") == 1
        assert telemetry.count("search.chain_masks") >= 2
