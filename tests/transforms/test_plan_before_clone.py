"""A transform that fails plans on its read-only input and never clones it.

``SM_alloc``, ``Reg_alloc`` and ``loop_unroll`` decide whether they
apply from their input alone and clone the computation only once they
know they do; about a third of their calls in a search fail.  Each test
counts ``Computation.clone`` calls around one failing call.
"""

import pytest

from repro.ir import Computation
from repro.transforms import (
    LoopTiling,
    LoopUnroll,
    RegAlloc,
    SMAlloc,
    ThreadGrouping,
    TransformFailure,
)

from .conftest import PARAMS, gemm_comp, symm_comp


@pytest.fixture
def clones(monkeypatch):
    """The number of ``Computation.clone`` calls made so far."""
    count = [0]
    clone = Computation.clone

    def counted(self):
        count[0] += 1
        return clone(self)

    monkeypatch.setattr(Computation, "clone", counted)
    return count


def tiled_gemm():
    r1 = ThreadGrouping().apply(gemm_comp(), ("Li", "Lj"), PARAMS)
    return LoopTiling().apply(r1.comp, (*r1.labels, "Lk"), {}).comp


def test_sm_alloc_without_a_read_only_tile_does_not_clone(clones):
    comp = tiled_gemm()
    before = clones[0]
    with pytest.raises(TransformFailure, match="no stageable read-only references to C"):
        SMAlloc().apply(comp, ("C", "NoChange"), {})
    assert clones[0] == before


def test_reg_alloc_with_non_uniform_refs_does_not_clone(clones):
    comp = ThreadGrouping().apply(symm_comp(), ("Li", "Lj"), PARAMS).comp
    before = clones[0]
    with pytest.raises(TransformFailure, match="not uniform"):
        RegAlloc().apply(comp, ("C",), {})
    assert clones[0] == before


def test_loop_unroll_of_a_symbolic_trip_does_not_clone(clones):
    comp = tiled_gemm()
    before = clones[0]
    with pytest.raises(TransformFailure, match="non-constant trip count"):
        LoopUnroll().apply(comp, (comp.main_stage.meta["kk_label"],), {})
    assert clones[0] == before


def test_the_applying_calls_clone_once(clones):
    comp = tiled_gemm()
    labels = [loop.label for loop in comp.main_stage.loops() if loop.var in ("a", "b")]
    for transform, args in (
        (SMAlloc(), ("A", "NoChange")),
        (RegAlloc(), ("C",)),
        (LoopUnroll(), tuple(labels)),
    ):
        before = clones[0]
        transform.apply(comp, args, {})
        assert clones[0] == before + 1, transform
