"""Tests for distribution plans: splits, broadcast derivation, grids."""

import pytest

from repro.blas3.naming import ALL_VARIANTS
from repro.blas3.routines import get_spec
from repro.dist.plan import (
    DistPlan,
    broadcast_operands,
    enumerate_plans,
    owned_tiles,
    panel_bounds,
    plan_1d,
    split_axis,
    split_dim,
    tile_bounds,
)
from repro.dist.topology import multi_node, single_node


class TestSplitDim:
    def test_matches_legacy_rule(self):
        assert split_dim(get_spec("GEMM-NN")) == "N"
        assert split_dim(get_spec("SYMM-LL")) == "N"
        assert split_dim(get_spec("TRSM-LL-N")) == "N"
        assert split_dim(get_spec("SYMM-RL")) == "M"
        assert split_dim(get_spec("TRMM-RU-N")) == "M"


class TestBroadcastOperands:
    @pytest.mark.parametrize("name", [v.name for v in ALL_VARIANTS])
    def test_derived_operand_lacks_the_split_dim(self, name):
        # Regression for the dead conditional in the old
        # multi-GPU _broadcast_array, whose branches both returned "A":
        # the replicated set is now *derived* — operands whose declared
        # dims do not carry the split dimension.
        spec = get_spec(name)
        split = split_dim(spec)
        names = broadcast_operands(spec, split)
        for arr in spec.arrays:
            if arr.name in names:
                assert split_axis(arr, split) is None
            else:
                assert split_axis(arr, split) is not None
        # for every BLAS3 variant that turns out to be exactly A — the
        # shared/structured operand the old hardcoded answer named
        assert names == ("A",)

    def test_split_axis_follows_declared_dims(self):
        # GEMM-NT stores B as (N, K): a column split slices axis 0, not
        # the axis-1 slice the old run() hardcoded.
        spec = get_spec("GEMM-NT")
        b = next(a for a in spec.arrays if a.name == "B")
        assert split_axis(b, "N") == 0
        assert split_axis(b, "K") == 1
        assert split_axis(b, "M") is None


class TestPanelBounds:
    def test_even_split(self):
        assert panel_bounds(8, 2) == [(0, 4), (4, 8)]

    def test_uneven_split_is_ceil_sized(self):
        assert panel_bounds(31, 2) == [(0, 16), (16, 31)]

    def test_more_parts_than_length_drops_empty_panels(self):
        # num_devices > length: the surplus ranks get no panel at all.
        assert panel_bounds(4, 8) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert panel_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_part(self):
        assert panel_bounds(7, 1) == [(0, 7)]

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            panel_bounds(4, 0)


class TestOwnedTiles:
    def test_block_distribution_covers_output_once(self):
        plan = DistPlan("GEMM-NN", "2d", (2, 2), "MN")
        owned = owned_tiles(plan, {"M": 8, "N": 8, "K": 4})
        assert sorted(owned) == [0, 1, 2, 3]
        cells = set()
        for tiles in owned.values():
            for (rlo, rhi), (clo, chi) in tiles:
                for i in range(rlo, rhi):
                    for j in range(clo, chi):
                        assert (i, j) not in cells
                        cells.add((i, j))
        assert len(cells) == 64

    def test_cyclic_factor_gives_each_rank_multiple_tiles(self):
        plan = DistPlan("GEMM-NN", "2d", (2, 2), "MN", cyclic=2)
        owned = owned_tiles(plan, {"M": 8, "N": 8, "K": 4})
        assert all(len(tiles) == 4 for tiles in owned.values())

    def test_rank_layout_is_grid_row_major(self):
        plan = DistPlan("GEMM-NN", "2d", (2, 2), "MN")
        owned = owned_tiles(plan, {"M": 4, "N": 4, "K": 2})
        assert owned[0] == [((0, 2), (0, 2))]
        assert owned[1] == [((0, 2), (2, 4))]
        assert owned[2] == [((2, 4), (0, 2))]
        assert owned[3] == [((2, 4), (2, 4))]

    def test_tiny_problem_leaves_ranks_empty(self):
        plan = DistPlan("GEMM-NN", "2d", (2, 2), "MN")
        owned = owned_tiles(plan, {"M": 1, "N": 1, "K": 2})
        assert sorted(owned) == [0]


class TestEnumeratePlans:
    def test_1d_always_first(self):
        for name in ("GEMM-NN", "SYMM-RL", "TRSM-LL-N"):
            plans = enumerate_plans(get_spec(name), multi_node(2, 2))
            assert plans[0].kind == "1d"

    def test_2d_grids_only_for_gemm(self):
        top = multi_node(2, 2)
        gemm = enumerate_plans(get_spec("GEMM-NN"), top)
        assert any(p.kind == "2d" for p in gemm)
        symm = enumerate_plans(get_spec("SYMM-LL"), top)
        assert all(p.kind == "1d" for p in symm)

    def test_small_device_counts_stay_1d(self):
        plans = enumerate_plans(get_spec("GEMM-NN"), single_node(2))
        assert [p.kind for p in plans] == ["1d"]

    def test_grids_multiply_to_device_count(self):
        plans = enumerate_plans(get_spec("GEMM-NN"), multi_node(4, 4))
        for p in plans:
            assert p.devices == 16
        grids = {p.grid for p in plans if p.kind == "2d"}
        assert (4, 4) in grids and (2, 8) in grids and (8, 2) in grids

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            DistPlan("GEMM-NN", "3d", (2, 2), "MN")
        with pytest.raises(ValueError):
            DistPlan("GEMM-NN", "2d", (0, 2), "MN")
        with pytest.raises(ValueError):
            DistPlan("GEMM-NN", "2d", (2, 2), "MN", cyclic=0)

    def test_plan_1d_grid_orientation(self):
        assert plan_1d(get_spec("GEMM-NN"), 4).grid == (1, 4)
        assert plan_1d(get_spec("SYMM-RL"), 4).grid == (4, 1)

    def test_describe(self):
        assert plan_1d(get_spec("GEMM-NN"), 4).describe() == "1d[N/4]"
        assert DistPlan("GEMM-NN", "2d", (2, 2), "MN", cyclic=2).describe() == "2d[2x2x2]"

    def test_tile_bounds_is_finer_panel_bounds(self):
        assert tile_bounds(8, 2, 2) == panel_bounds(8, 4)
