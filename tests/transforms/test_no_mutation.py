"""No transform mutates its input.

The EPOD translator's step memo keeps the computation after every
step it applied and feeds it to every later invocation that reaches
it, so one computation is the input of many sibling invocations.  That
is only sound if ``apply`` never changes its input, on success or on
:class:`TransformFailure` — ``Stage.clone`` copies ``meta`` shallowly,
so a transform that edited a meta value in place would corrupt every
sibling branch, and ``clone`` shares the (immutable) expression and
predicate nodes.

Every component the candidate scripts of five routines invoke is
applied at every distinct step of those scripts, and the three loop
components no composed script uses at the shallow steps; the input is
compared before and after: its label-free fingerprint, printed IR (labels included),
arrays, params, flags and every stage's ``meta``, down to the
``orig_body`` nodes.
"""

import pytest

from repro.epod import EpodTranslator
from repro.gpu import GTX_285
from repro.ir import Computation
from repro.ir.ast import Assign, Barrier, Guard, Loop
from repro.ir.fingerprint import UnsupportedIR, computation_fingerprint
from repro.ir.printer import print_body, print_computation
from repro.transforms import TransformError, TransformFailure
from repro.transforms.registry import REGISTRY
from repro.tuner import LibraryGenerator, TuningOptions
from repro.blas3.routines import build_routine

ROUTINES = ["GEMM-TN", "SYMM-RL", "TRMM-RL-T", "TRSM-LL-T", "BGEMM-NT"]
CONFIG = {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2}
NODES = (Loop, Assign, Guard, Barrier)


def frozen(value):
    """A comparable deep copy of a meta value: IR nodes by their printed
    text, containers element-wise, everything else by ``repr``."""
    if isinstance(value, NODES):
        return ("node", print_body([value]))
    if isinstance(value, dict):
        return ("dict", tuple(sorted((repr(k), frozen(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return (type(value).__name__, tuple(frozen(v) for v in items))
    return repr(value)


def snapshot(comp: Computation):
    try:
        fingerprint = computation_fingerprint(comp)
    except UnsupportedIR:
        fingerprint = None
    return {
        "fingerprint": fingerprint,
        "printed": print_computation(comp),
        "arrays": dict(comp.arrays),
        "params": dict(comp.params),
        "flags": dict(comp.flags),
        "meta": [(stage.name, frozen(stage.meta)) for stage in comp.stages],
    }


def loop_op_args(comp: Computation):
    """Arguments for the loop components no composed script uses: the
    first nested pair of the main stage for ``loop_interchange``, its
    first sibling pair for ``loop_fusion`` and its first loop with more
    than one child for ``loop_fission``."""
    nested, siblings, multi = [], [], []
    for loop in comp.main_stage.loops():
        inner = [child for child in loop.body if isinstance(child, Loop)]
        nested += [(loop.label, child.label) for child in inner[:1]]
        siblings += [(a.label, b.label) for a, b in zip(inner, inner[1:])]
        if len(loop.body) > 1:
            multi.append((loop.label,))
    return {
        "loop_interchange": nested[:1],
        "loop_fusion": siblings[:1],
        "loop_fission": multi[:1],
    }


def steps(routine: str):
    """``(params, state, component, args)`` for every distinct state along
    the routine's candidate scripts (distinct by label-free kernel key),
    with every invocation of the script that reached it resolved through
    the state's label environment.  The loop components no script uses
    are applied to the states at most one applied step deep."""
    source = build_routine(routine)
    candidates = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1)).candidates(routine)
    params = dict(CONFIG, BP=2) if "P" in source.dim_symbols else dict(CONFIG)
    translator = EpodTranslator(params)
    seen = set()
    for cand in candidates:
        invs = list(cand.script)
        for k in range(len(invs) + 1):
            prefix = type(cand.script)(invs[:k])
            state = translator.translate(source, prefix, mode="filter", validate_result=False)
            if state.kernel_key in seen:
                continue
            seen.add(state.kernel_key)
            for inv in invs:
                yield params, state.comp, inv.component, tuple(
                    state.env.get(a, a) for a in inv.args
                )
            if len(state.kernel_key) > 1:
                continue  # legality checks on deep nests cost ~0.1 s each
            for component, arg_lists in loop_op_args(state.comp).items():
                for args in arg_lists:
                    yield params, state.comp, component, args


@pytest.fixture(scope="module")
def outcomes():
    """Per component: how often ``apply`` succeeded and failed; asserts
    the input is untouched after every call."""
    tally = {name: {"ok": 0, "failure": 0, "error": 0} for name in REGISTRY}
    mutated = []
    for routine in ROUTINES:
        for params, comp, component, args in steps(routine):
            before = snapshot(comp)
            try:
                REGISTRY[component].apply(comp, args, params)
                outcome = "ok"
            except TransformFailure:
                outcome = "failure"
            except TransformError:
                outcome = "error"
            tally[component][outcome] += 1
            after = snapshot(comp)
            if after != before:
                changed = sorted(k for k in before if before[k] != after[k])
                mutated.append((routine, component, args, outcome, changed))
    return tally, mutated


def test_no_component_mutates_its_input(outcomes):
    _, mutated = outcomes
    assert not mutated, mutated[:5]


def test_every_component_is_exercised(outcomes):
    tally, _ = outcomes
    assert all(sum(counts.values()) for counts in tally.values()), tally
    # both halves of the contract: the success path and the
    # TransformFailure path of most components
    assert sum(counts["ok"] > 0 for counts in tally.values()) >= 10, tally
    assert sum(counts["failure"] > 0 for counts in tally.values()) >= 10, tally


def test_meta_snapshot_sees_in_place_edits():
    """The comparison is deep enough to catch the hazard it guards: a
    meta value shared by a shallow ``Stage.clone`` and edited in place."""
    comp = build_routine("TRSM-LL-T")
    out = REGISTRY["thread_grouping"].apply(comp, ("Li", "Lj"), CONFIG).comp
    before = snapshot(out)
    twin = out.clone()
    shared = [v for v in twin.main_stage.meta.values() if isinstance(v, (list, dict))]
    assert shared, twin.main_stage.meta
    if isinstance(shared[0], list):
        shared[0].append(None)
    else:
        shared[0]["edited"] = True
    assert snapshot(out) != before
