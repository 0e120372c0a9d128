"""Tests for DistLibrary: plan search, overlap timing, functional runs."""

import numpy as np
import pytest

from repro.blas3 import random_inputs, reference
from repro.blas3.routines import get_spec
from repro.dist import DistLibrary, multi_node, single_node
from repro.dist.plan import DistPlan, broadcast_operands
from repro.dist.topology import PCIE_BANDWIDTH_GBS
from repro.gpu import GTX_285
from repro.telemetry import Telemetry
from repro.tuner import LibraryGenerator, TuningOptions

SMALL_SPACE = [{"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2}]


@pytest.fixture(scope="module")
def gen():
    return LibraryGenerator(GTX_285, options=TuningOptions(space=SMALL_SPACE))


@pytest.fixture(scope="module")
def cluster(gen):
    return DistLibrary(GTX_285, multi_node(2, 2), generator=gen)


class TestFunctional1D:
    @pytest.mark.parametrize("name", ["GEMM-NN", "GEMM-NT", "GEMM-TN", "GEMM-TT"])
    def test_gemm_all_transposes_match_reference(self, cluster, name):
        # Regression: the old multi-GPU run hardcoded the slice axis, so
        # a column split of GEMM-NT's (N, K)-shaped B cut the wrong
        # axis.  The planner slices by declared-dim position.
        inputs = random_inputs(name, {"M": 32, "N": 32, "K": 16}, seed=31)
        got = cluster.run(name, plan=cluster.default_plan(name), **inputs)
        np.testing.assert_allclose(
            got, reference(name, inputs), rtol=4e-3, atol=4e-3
        )

    @pytest.mark.parametrize("name", ["SYMM-RL", "TRMM-RU-N", "TRSM-LL-N"])
    def test_structured_variants_match_reference(self, cluster, name):
        inputs = random_inputs(name, {"M": 32, "N": 32}, seed=32)
        got = cluster.run(name, plan=cluster.default_plan(name), **inputs)
        np.testing.assert_allclose(
            got, reference(name, inputs), rtol=4e-3, atol=4e-3
        )

    def test_uneven_split_matches_reference(self, cluster):
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 31, "K": 16}, seed=33)
        got = cluster.run("GEMM-NN", plan=cluster.default_plan("GEMM-NN"), **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=4e-3, atol=4e-3
        )

    def test_more_devices_than_columns(self, gen):
        # num_devices > split length: surplus ranks hold empty panels.
        lib = DistLibrary(GTX_285, single_node(8), generator=gen)
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 4, "K": 16}, seed=34)
        got = lib.run("GEMM-NN", plan=lib.default_plan("GEMM-NN"), **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=4e-3, atol=4e-3
        )

    def test_empty_panels_counted_in_timing(self, gen):
        telemetry = Telemetry()
        lib = DistLibrary(GTX_285, single_node(8), generator=gen, telemetry=telemetry)
        timing = lib.timing("GEMM-NN", sizes={"M": 32, "N": 4, "K": 16})
        assert len(timing.per_device_s) == 4
        assert telemetry.count("dist.empty_panels") == 4


def run_1d(lib, name, **kwargs):
    return lib.run(name, plan=lib.default_plan(name), **kwargs)


def scaling(gen, name, n, devices):
    """GFLOPS of the 1D split per device count (shared tuned kernels)."""
    return {
        d: DistLibrary(GTX_285, single_node(d), generator=gen).gflops(name, n)
        for d in devices
    }


class TestSingleNode:
    """The paper's §VII multi-GPU step: a 1D panel split over the GPUs of
    one node."""

    @pytest.fixture(scope="class")
    def pair(self, gen):
        return DistLibrary(GTX_285, single_node(2), generator=gen)

    @pytest.mark.parametrize("name", ["GEMM-NN", "SYMM-LL", "TRMM-LL-N", "TRSM-LL-N"])
    def test_left_side_matches_reference(self, pair, name):
        sizes = {"M": 32, "N": 32}
        if name == "GEMM-NN":
            sizes["K"] = 16
        inputs = random_inputs(name, sizes, seed=21)
        got = run_1d(pair, name, **inputs)
        np.testing.assert_allclose(
            got, reference(name, inputs), rtol=4e-3, atol=4e-3
        )

    def test_right_side_matches_reference(self, pair):
        inputs = random_inputs("TRMM-RU-N", {"M": 32, "N": 32}, seed=22)
        got = run_1d(pair, "TRMM-RU-N", **inputs)
        np.testing.assert_allclose(
            got, reference("TRMM-RU-N", inputs), rtol=4e-3, atol=4e-3
        )

    def test_alpha_beta(self, pair):
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 32, "K": 16}, seed=23)
        got = run_1d(pair, "GEMM-NN", alpha=2.0, beta=-0.5, **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs, alpha=2.0, beta=-0.5), rtol=4e-3, atol=4e-3
        )

    def test_uneven_split_matches_reference(self, pair):
        # Regression: run() used to raise on a split-dimension length not
        # divisible by the device count while timing() silently modeled
        # it — both now agree on ceil-sized panels.
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 31, "K": 16}, seed=24)
        got = run_1d(pair, "GEMM-NN", **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=4e-3, atol=4e-3
        )

    def test_single_device_degenerate(self, gen):
        lib = DistLibrary(GTX_285, single_node(1), generator=gen)
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 32, "K": 16}, seed=25)
        got = run_1d(lib, "GEMM-NN", **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=4e-3, atol=4e-3
        )

    def test_bad_device_count(self):
        with pytest.raises(ValueError):
            single_node(0)

    def test_two_devices_faster_at_large_n(self, gen):
        s = scaling(gen, "GEMM-NN", 4096, (1, 2))
        assert s[2] > 1.4 * s[1]

    def test_broadcast_limits_scaling(self, gen):
        # At small sizes the PCIe broadcast of A eats the gains.
        lib = DistLibrary(GTX_285, single_node(8), generator=gen)
        assert lib.timing("SYMM-LL", 512).comm_s > 0
        s = scaling(gen, "SYMM-LL", 512, (1, 8))
        assert s[8] < 8 * s[1]

    def test_scaling_monotone_devices(self, gen):
        s = scaling(gen, "GEMM-NN", 4096, (1, 2, 4))
        assert s[1] < s[2] < s[4]

    def test_uneven_timing_models_largest_panel(self, pair):
        # Regression: the split dimension was floored, so an uneven split
        # modeled less work than exists (513 columns on 2 devices timed a
        # 256-wide panel) and over-reported GFLOPS.  Ceil division makes
        # the modeled time strictly dominate the divisible neighbor's.
        uneven = pair.timing("GEMM-NN", 513)
        even = pair.timing("GEMM-NN", 512)
        assert max(uneven.per_device_s.values()) > max(even.per_device_s.values())
        assert uneven.time_s > even.time_s

    def test_uneven_timing_panels_cover_all_work(self, gen):
        lib = DistLibrary(GTX_285, single_node(4), generator=gen)
        t = lib.timing("SYMM-LL", 514)  # 514 = 4*129 - 2: panels 129/129/129/127
        assert sorted(t.per_device_s) == [0, 1, 2, 3]
        # the last device's smaller panel cannot model more time
        assert t.per_device_s[3] <= t.per_device_s[0]

    def test_broadcast_bytes_follow_dtype(self, pair):
        # Regression: the broadcast element size was a hard-coded 4.0
        # instead of the spec dtype's itemsize.
        spec = get_spec("GEMM-NN")
        arr = next(a for a in spec.arrays if a.name == "A")
        itemsize = np.dtype(arr.dtype).itemsize
        sizes = spec.make_sizes(512)
        elems = 1
        for d in arr.dims:
            elems *= d.evaluate(sizes)
        want = elems * itemsize / (PCIE_BANDWIDTH_GBS * 1e9)
        assert pair.timing("GEMM-NN", 512).comm_s == pytest.approx(want)


class TestFunctional2D:
    @pytest.mark.parametrize("name", ["GEMM-NN", "GEMM-NT", "GEMM-TN", "GEMM-TT"])
    @pytest.mark.parametrize("cyclic", [1, 2])
    def test_2d_matches_reference(self, cluster, name, cyclic):
        plan = DistPlan(name, "2d", (2, 2), "MN", cyclic=cyclic)
        inputs = random_inputs(name, {"M": 32, "N": 32, "K": 16}, seed=35)
        got = cluster.run(name, plan=plan, alpha=1.5, beta=-0.5, **inputs)
        np.testing.assert_allclose(
            got,
            reference(name, inputs, alpha=1.5, beta=-0.5),
            rtol=4e-3,
            atol=4e-3,
        )

    def test_2d_uneven_matches_reference(self, cluster):
        plan = DistPlan("GEMM-NN", "2d", (2, 2), "MN")
        inputs = random_inputs("GEMM-NN", {"M": 33, "N": 31, "K": 16}, seed=36)
        got = cluster.run("GEMM-NN", plan=plan, **inputs)
        np.testing.assert_allclose(
            got, reference("GEMM-NN", inputs), rtol=4e-3, atol=4e-3
        )

    def test_2d_and_1d_agree(self, cluster):
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 32, "K": 16}, seed=37)
        one = cluster.run("GEMM-NN", plan=cluster.default_plan("GEMM-NN"), **inputs)
        two = cluster.run(
            "GEMM-NN", plan=DistPlan("GEMM-NN", "2d", (2, 2), "MN"), **inputs
        )
        np.testing.assert_allclose(one, two, rtol=2e-3, atol=2e-3)


class TestTiming:
    def test_single_node_matches_legacy_account(self, gen):
        # On the legacy substrate every broadcast copy shares one peer
        # channel, so the overlapped makespan equals the old serial
        # charge — the legacy multi-GPU numbers are unchanged.
        lib = DistLibrary(GTX_285, single_node(2), generator=gen)
        t = lib.timing("GEMM-NN", 512)
        serial = sum(t.transfer_s) + max(t.per_device_s.values())
        assert t.time_s == pytest.approx(serial)

    def test_multi_node_overlap_beats_serial(self, gen):
        # Peer and fabric channels run concurrently: the event timeline
        # reclaims time the serial account charges.
        lib = DistLibrary(GTX_285, multi_node(2, 2), generator=gen)
        t = lib.timing("GEMM-NN", 512)
        serial = sum(t.transfer_s) + max(t.per_device_s.values())
        assert t.time_s < serial

    def test_2d_moves_fewer_bytes_than_1d(self, gen):
        lib = DistLibrary(GTX_285, multi_node(4, 4), generator=gen)
        sizes = {"M": 1024, "N": 1024, "K": 1024}
        one = lib.transfers(lib.default_plan("GEMM-NN"), sizes)
        two = lib.transfers(DistPlan("GEMM-NN", "2d", (4, 4), "MN"), sizes)
        assert sum(op.nbytes for op in two) < sum(op.nbytes for op in one)
        # ... at the price of more messages
        assert len(two) > len(one)

    def test_timing_requires_n_or_sizes(self, cluster):
        with pytest.raises(ValueError):
            cluster.timing("GEMM-NN")


class TestPlanSearch:
    def test_small_n_keeps_1d(self, gen):
        lib = DistLibrary(GTX_285, multi_node(4, 4), generator=gen)
        result = lib.generate("GEMM-NN", 128)
        assert result.winner.kind == "1d"

    def test_large_n_crosses_to_2d(self, gen):
        lib = DistLibrary(GTX_285, multi_node(4, 4), generator=gen)
        result = lib.generate("GEMM-NN", 2048)
        assert result.winner.kind == "2d"
        assert result.timing.time_s < result.baseline.time_s
        assert result.baseline.time_s / result.timing.time_s > 1.0

    def test_baseline_always_evaluated(self, gen):
        lib = DistLibrary(GTX_285, multi_node(4, 4), generator=gen)
        result = lib.generate("GEMM-NN", 256)
        kinds = [p.kind for p, _ in result.evaluated]
        assert "1d" in kinds and "2d" in kinds
        assert result.baseline is not None

    def test_structured_variants_only_search_1d(self, gen):
        lib = DistLibrary(GTX_285, multi_node(4, 4), generator=gen)
        result = lib.generate("SYMM-LL", 256)
        assert result.winner.kind == "1d"
        assert len(result.evaluated) == 1

    def test_generate_memoizes(self, gen):
        telemetry = Telemetry()
        lib = DistLibrary(
            GTX_285, multi_node(2, 2), generator=gen, telemetry=telemetry
        )
        first = lib.generate("GEMM-NN", 256)
        count = telemetry.count("search.dist_plans")
        assert lib.generate("GEMM-NN", 256) is first
        assert telemetry.count("search.dist_plans") == count

    @pytest.mark.parametrize("topology", [single_node(2), multi_node(4, 4)])
    def test_baseline_is_first_candidate(self, gen, topology):
        # rank() takes its first candidate as the baseline, and every
        # plan list leads with the 1D split by construction.
        lib = DistLibrary(GTX_285, topology, generator=gen)
        result = lib.generate("GEMM-NN", 256)
        assert result.evaluated[0][0] == lib.default_plan("GEMM-NN")
        assert result.baseline is result.evaluated[0][1]


class TestTelemetry:
    def test_dist_spans_and_counters(self, gen):
        telemetry = Telemetry()
        lib = DistLibrary(
            GTX_285, multi_node(2, 2), generator=gen, telemetry=telemetry
        )
        lib.timing("GEMM-NN", 512)
        (span,) = telemetry.find("dist.timing")
        assert span.tags["plan"] == "1d[N/4]"
        assert telemetry.count("dist.timings") == 1
        assert telemetry.count("dist.transfers") == 3
        assert telemetry.count("dist.bytes") > 0

    def test_run_span_and_counter(self, gen):
        telemetry = Telemetry()
        lib = DistLibrary(
            GTX_285, single_node(2), generator=gen, telemetry=telemetry
        )
        inputs = random_inputs("GEMM-NN", {"M": 32, "N": 32, "K": 16}, seed=38)
        lib.run("GEMM-NN", plan=lib.default_plan("GEMM-NN"), **inputs)
        assert telemetry.find("dist.run")
        assert telemetry.count("dist.runs") == 1

    def test_plan_selection_counters(self, gen):
        telemetry = Telemetry()
        lib = DistLibrary(
            GTX_285, multi_node(4, 4), generator=gen, telemetry=telemetry
        )
        lib.generate("GEMM-NN", 128)
        assert telemetry.count("dist.plan_1d_selected") == 1
        lib.generate("GEMM-NN", 2048)
        assert telemetry.count("dist.plan_2d_selected") == 1


class TestShimEquivalence:
    """What the retired single-node multi-GPU wrapper reported, read
    straight off a :func:`single_node` :class:`DistLibrary`."""

    def test_shim_timing_exposes_both_accounts(self, gen):
        lib = DistLibrary(GTX_285, single_node(2), generator=gen)
        t = lib.timing("GEMM-NN", 512)
        # single-node uniform split: overlap reclaims nothing, the
        # timeline equals the serial charge (legacy numbers unchanged)
        serial = max(t.per_device_s.values()) + t.comm_s
        assert t.time_s == pytest.approx(serial)

    def test_batched_variant_splits_correctly(self, gen):
        # The derived broadcast set makes BGEMM work through the
        # multi-device path: the split dim is M (per-problem rows), the
        # replicated operand is B — the old hardcoded "A" both
        # broadcast and failed to split A, mismatching C's panels.
        lib = DistLibrary(GTX_285, single_node(2), generator=gen)
        inputs = random_inputs("BGEMM-NN", {"P": 3, "M": 16, "N": 16, "K": 8}, seed=40)
        plan = lib.default_plan("BGEMM-NN")
        got = lib.run("BGEMM-NN", plan=plan, **inputs)
        np.testing.assert_allclose(
            got, reference("BGEMM-NN", inputs), rtol=4e-3, atol=4e-3
        )
        assert broadcast_operands(get_spec("BGEMM-NN"), plan.split) == ("B",)
