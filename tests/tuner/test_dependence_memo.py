"""The dependence memo changes no plan choice.

Every carrying question the tuner asks (thread grouping, batch grid,
JIT vectorization) goes through the memo in :mod:`repro.ir.dependence`
unless a loop's own cells prove the answer.  Generating a routine with
the memo cleared before every question must pick the same winner, with the same
effective script, the same modeled GFLOPS and the same output bits, as
generating it normally.
"""

import numpy as np
import pytest

from repro import jit
from repro.blas3.reference import random_inputs
from repro.gpu import GTX_285
from repro.ir import dependence
from repro.jit import lower as jit_lower
from repro.transforms import batch, thread_grouping
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

    questions, lookups, computes = [], [], []
    asking, memo = dependence.carrying_loops, dependence._memoized

    def cold_question(*args, **kwargs):
        questions.append(1)
        dependence.clear_cache()
        return asking(*args, **kwargs)

    def counting_memo(body, question, compute):
        lookups.append(1)
        return memo(body, question, lambda: computes.append(1) or compute())

    for module in (batch, jit_lower, thread_grouping):
        monkeypatch.setattr(module, "carrying_loops", cold_question)
    monkeypatch.setattr(dependence, "_memoized", counting_memo)
    cold, cold_out = _generate_and_run(name)
    monkeypatch.undo()

    assert questions and len(computes) == len(lookups)
    assert cold.config == memoized.config
    assert cold.applied_key == memoized.applied_key
    assert cold.tuned_gflops == memoized.tuned_gflops
    assert np.array_equal(cold_out, memoized_out)
