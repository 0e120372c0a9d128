"""The dependence memo changes no plan choice.

Every legality check the tuner runs (thread grouping, batch grid,
interchange, fusion, JIT vectorization) goes through the memoized
:func:`repro.ir.dependence.analyze_dependences`.  Generating a routine
with the memo cleared before every analysis must pick the same winner,
with the same effective script, the same modeled GFLOPS and the same
output bits, as generating it normally.
"""

import numpy as np
import pytest

from repro import jit
from repro.blas3.reference import random_inputs
from repro.gpu import GTX_285
from repro.ir import dependence
from repro.tuner import LibraryGenerator, TuningOptions

SPACE = [
    {"BM": 16, "BN": 16, "KT": 16, "TX": 16, "TY": 4},
    {"BM": 16, "BN": 16, "KT": 8, "TX": 16, "TY": 2},
    {"BM": 32, "BN": 16, "KT": 8, "TX": 32, "TY": 2},
    {"BM": 32, "BN": 32, "KT": 8, "TX": 32, "TY": 2},
]


def _generate_and_run(name):
    jit.clear_cache()
    tuned = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1, space=SPACE)).generate(name)
    arrays = random_inputs(name, tuned.spec.make_sizes(16), seed=3)
    return tuned, tuned.run(**arrays)


@pytest.mark.parametrize("name", ["GEMM-TN", "SYMM-RL", "TRMM-RL-T", "TRSM-LL-T", "BGEMM-NN"])
def test_uncached_analysis_picks_the_same_plan(name, monkeypatch):
    memoized, memoized_out = _generate_and_run(name)

    analyses, traces = [], []
    analyze, trace = dependence.analyze_dependences, dependence._trace_dependences

    def cold_analyze(*args, **kwargs):
        analyses.append(1)
        dependence.clear_cache()
        return analyze(*args, **kwargs)

    def counting_trace(*args):
        traces.append(1)
        return trace(*args)

    monkeypatch.setattr(dependence, "analyze_dependences", cold_analyze)
    monkeypatch.setattr(dependence, "_trace_dependences", counting_trace)
    cold, cold_out = _generate_and_run(name)
    monkeypatch.undo()

    assert analyses and len(traces) == len(analyses)
    assert cold.config == memoized.config
    assert cold.applied_key == memoized.applied_key
    assert cold.tuned_gflops == memoized.tuned_gflops
    assert np.array_equal(cold_out, memoized_out)
