"""Generated routines keep no losing candidate's kernel.

The search scores every (script, config) unit but only the kernels the
verifier touches survive it: per routine the winner, its fallback and
the routine's source computation.  Before scores became scalar records
every ok unit kept its translated IR and its analytic models for the
life of the routine — hundreds of kernels per library.
"""

import gc
import tracemalloc

import pytest

from repro.blas3.routines import build_routine
from repro.codegen.cuda import emit_cuda
from repro.epod.translator import EpodTranslator
from repro.gpu import GTX_285
from repro.gpu.simulator import SimulatedGPU
from repro.ir.ast import Computation
from repro.tuner import LibraryGenerator, TuningOptions

#: the pinned space of tests/tuner/test_dependence_memo.py
SPACE = [
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
]
ROUTINES = ["GEMM-TN", "SYMM-RL", "TRMM-RL-T", "TRSM-LL-T"]


def _generator():
    return LibraryGenerator(GTX_285, options=TuningOptions(jobs=1, space=SPACE))


def _reachable(root, kind):
    """Every ``kind`` instance reachable from ``root`` through the GC's
    referent graph (classes and modules are not followed)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.fixture(scope="module")
def generated():
    gen = _generator()
    for name in ROUTINES:
        gen.generate(name)
    gc.collect()
    return gen


def test_only_winner_fallback_and_source_stay_alive(generated):
    routines = [generated.generate(name) for name in ROUTINES]
    allowed = sum(3 if r.fallback is not None else 2 for r in routines)
    # the searches themselves held far more units than that
    assert sum(len(r.search.scores) for r in routines) > 10 * allowed

    comps = _reachable(generated, Computation)
    assert len(comps) <= allowed
    live = [o for o in gc.get_objects() if isinstance(o, Computation)]
    assert {id(c) for c in comps} <= {id(c) for c in live}
    for tuned in routines:
        assert any(c is tuned.comp for c in comps)


def test_winners_match_a_fresh_translation(generated):
    """Kernels rebuilt from scalar scores are the kernels the search
    ranked: same effective script, same modeled GFLOPS, same CUDA."""
    gpu = SimulatedGPU(GTX_285)
    for name in ROUTINES:
        tuned = generated.generate(name)
        sizes = tuned.spec.make_sizes(generated.tune_size)
        for routine in filter(None, (tuned, tuned.fallback)):
            fresh = EpodTranslator(dict(routine.config)).translate(
                build_routine(name), routine.script.script, mode="filter"
            )
            assert fresh.applied_key == routine.applied_key
            assert emit_cuda(fresh.comp, routine.config) == routine.cuda_source()
            run = gpu.profile(
                fresh.comp, sizes, nominal_flops=tuned.spec.nominal_flops(sizes)
            )
            assert run.gflops == routine.tuned_gflops


def test_generator_retains_little_memory():
    # one routine keeps the traced run short; TRSM-LL-T scores 120 units
    gc.collect()
    tracemalloc.start()
    try:
        gen = _generator()
        gen.generate("TRSM-LL-T")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del gen
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # every ok unit's kernel and models used to stay: ~2.6 MB
    assert retained < 1_000_000
