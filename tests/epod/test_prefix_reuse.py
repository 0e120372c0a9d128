"""The EPOD translator's step memo is invisible.

One translator reuses every transform step it has already applied to
the same computation with the same component, arguments and output
arity, so a shared prefix and a tail reached again past an omitted
component are not applied twice.  Whatever order the scripts arrive
in, every result must equal a fresh translator's: the same
applied and omitted invocations (with reasons), label environment,
notes, kernel key, fingerprint, arrays, params and flags — up to the
names of synthesised loop labels, which come from a global counter and
differ between any two translations anyway.  Errors must be raised
exactly as before, and a translator handed a different source, params
or mode must start over.  The expressions the memoised computations
share cannot be edited.
"""

import re

import pytest

from repro.blas3 import BASE_GEMM_SCRIPT, build_routine
from repro.epod import EpodScript, EpodTranslator, Invocation, ScriptError, parse_script
from repro.gpu import GTX_285
from repro.ir.ast import ArrayRef, BinOp, Cmp, Const
from repro.ir.fingerprint import computation_fingerprint
from repro.ir.printer import print_computation
from repro.transforms import TransformError, TransformFailure
from repro.transforms.registry import REGISTRY
from repro.tuner import LibraryGenerator, TuningOptions

CONFIG = {"BM": 32, "BN": 16, "KT": 8, "TX": 16, "TY": 2}
ROUTINES = ["GEMM-TN", "SYMM-RL", "TRMM-RL-T", "TRSM-LL-T", "BGEMM-NT"]

_COUNTER = re.compile(r"_(\d+)")


def canonical(result):
    """Everything a translation produced, with each synthesised label's
    counter replaced by its order of first appearance."""
    parts = {
        "printed": print_computation(result.comp),
        "env": sorted(result.env.items()),
        "notes": list(result.notes),
        "omitted": [(inv.render(), reason) for inv, reason in result.omitted],
    }
    ordinals = {}

    def rename(text):
        return _COUNTER.sub(
            lambda m: "_#%d" % ordinals.setdefault(m.group(1), len(ordinals)), text
        )

    text = rename(repr(parts))
    return {
        "text": text,
        "applied": [inv.render() for inv in result.applied],
        "applied_key": result.applied_key,
        "kernel_key": result.kernel_key,
        "fingerprint": computation_fingerprint(result.comp),
        "arrays": dict(result.comp.arrays),
        "params": dict(result.comp.params),
        "flags": dict(result.comp.flags),
    }


def outcome(translator, source, script, mode="filter"):
    """``("ok", canonical result)`` or ``("raise", type, message)``."""
    try:
        result = translator.translate(source, script, mode=mode)
    except Exception as exc:  # compared, not swallowed
        return ("raise", type(exc), str(exc))
    return ("ok", canonical(result))


def fresh(params, source, script, mode="filter"):
    return outcome(EpodTranslator(params), source, script, mode)


def params_for(source):
    return dict(CONFIG, BP=2) if "P" in source.dim_symbols else dict(CONFIG)


@pytest.fixture(scope="module")
def gen():
    return LibraryGenerator(GTX_285, options=TuningOptions(jobs=1))


@pytest.mark.parametrize("routine", ROUTINES)
@pytest.mark.parametrize("order", ["given", "sorted", "reversed"])
def test_reused_translator_matches_fresh(gen, routine, order):
    source = build_routine(routine)
    params = params_for(source)
    scripts = [c.script for c in gen.candidates(routine)]
    if order == "sorted":
        scripts.sort(key=EpodScript.key)
    elif order == "reversed":
        scripts.reverse()
    reused = EpodTranslator(params)
    for script in scripts:
        assert outcome(reused, source, script) == fresh(params, source, script)


def test_equal_kernel_keys_mean_equal_kernels(gen):
    """The kernel key is label-free: scripts that degenerate to the same
    applied steps get the same key and the same fingerprint."""
    source = build_routine("TRSM-LL-T")
    translator = EpodTranslator(CONFIG)
    by_key = {}
    for cand in gen.candidates("TRSM-LL-T"):
        result = translator.translate(source, cand.script, mode="filter")
        by_key.setdefault(result.kernel_key, set()).add(
            computation_fingerprint(result.comp)
        )
    assert len(by_key) < len(gen.candidates("TRSM-LL-T"))
    assert all(len(prints) == 1 for prints in by_key.values())


def test_resumes_only_a_matching_path():
    source = build_routine("GEMM-NN")
    script = parse_script(BASE_GEMM_SCRIPT)
    translator = EpodTranslator(CONFIG)
    first = translator.translate(source, script)
    # the same script again resumes the whole path ...
    assert translator.translate(source, script).comp is first.comp
    # ... and a strict prefix resumes part of it
    shorter = EpodScript(list(script)[:2])
    assert outcome(translator, source, shorter, "strict") == fresh(CONFIG, source, shorter, "strict")


@pytest.fixture
def applications(monkeypatch):
    """A one-element list counting every ``Transform.apply`` call."""
    tally = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in {type(t) for t in REGISTRY.values()}:
        monkeypatch.setattr(cls, "apply", counted(cls.apply))
    return tally


class TestTailPastAnOmittedComponent:
    """GEMM-NN has no triangular operand, so ``padding_triangular`` is
    omitted and the computation after it is the one before it: a tail
    after it was already applied to that computation."""

    def setup_method(self):
        self.source = build_routine("GEMM-NN")
        self.invs = list(parse_script(BASE_GEMM_SCRIPT))

    def with_middle(self, *outputs):
        middle = Invocation("padding_triangular", ("A",), outputs)
        return EpodScript(self.invs[:2] + [middle] + self.invs[2:])

    def check(self, applications, first, second):
        translator = EpodTranslator(CONFIG)
        omitted = translator.translate(self.source, first, "filter").omitted
        assert [inv.component for inv, _ in omitted] == ["padding_triangular"]
        applications[0] = 0
        got = outcome(translator, self.source, second)
        assert applications[0] == 0
        assert got == fresh(CONFIG, self.source, second)

    def test_a_script_without_the_omitted_component(self, applications):
        self.check(applications, self.with_middle(), EpodScript(self.invs))

    def test_an_omitted_component_binding_other_names(self, applications):
        self.check(applications, self.with_middle("La"), self.with_middle("Lb"))


@pytest.mark.parametrize(
    "node, field",
    [
        (ArrayRef("A", ["i", "k"]), "region"),
        (BinOp("*", Const(2.0), ArrayRef("B", ["k", "j"])), "left"),
        (Cmp("i", "<", "M"), "rhs"),
    ],
)
def test_shared_expressions_are_immutable(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, getattr(node, field))
    assert node.clone() is node


class TestErrors:
    def setup_method(self):
        self.source = build_routine("GEMM-NN")
        self.good = parse_script(BASE_GEMM_SCRIPT)
        invs = list(self.good)
        # the second invocation binds two names to loop_tiling's three labels
        tiling = invs[1]
        self.script_error = EpodScript(
            invs[:1] + [Invocation(tiling.component, tiling.args, tiling.outputs[:2])] + invs[2:]
        )
        # a component called with the wrong number of labels
        self.transform_error = EpodScript(invs[:2] + [Invocation("loop_interchange", ("Li",))])

    def check(self, scripts, mode="filter"):
        reused = EpodTranslator(CONFIG)
        got = [outcome(reused, self.source, s, mode) for s in scripts]
        want = [fresh(CONFIG, self.source, s, mode) for s in scripts]
        assert got == want
        return got

    def test_script_error_after_shared_prefix(self):
        got = self.check([self.good, self.script_error, self.good, self.script_error])
        assert got[1][:2] == ("raise", ScriptError)
        assert got[0][0] == got[2][0] == "ok"

    def test_transform_error_after_shared_prefix(self):
        got = self.check([self.transform_error, self.good, self.transform_error])
        assert got[0][:2] == ("raise", TransformError)
        assert got[1][0] == "ok"

    def test_strict_mode_raises_as_before(self):
        source = build_routine("TRMM-LL-N")
        failing = parse_script(
            "(Lii, Ljj) = thread_grouping((Li, Lj));\nGM_map(A, Transpose);\n"
        )
        sibling = EpodScript(list(failing)[:1])
        reused = EpodTranslator(CONFIG)
        for script in (failing, sibling, failing):
            got = outcome(reused, source, script, "strict")
            assert got == fresh(CONFIG, source, script, "strict")
        assert outcome(reused, source, failing, "strict")[:2] == ("raise", TransformFailure)
        # the filter-mode translation of the same script omits instead
        assert outcome(reused, source, failing, "filter") == fresh(CONFIG, source, failing)


class TestDoesNotResumeAcross:
    def setup_method(self):
        self.script = parse_script(BASE_GEMM_SCRIPT)
        self.source = build_routine("GEMM-NN")
        self.translator = EpodTranslator(CONFIG)
        self.first = self.translator.translate(self.source, self.script)

    def test_a_different_source(self):
        for other in (self.source.clone(), build_routine("GEMM-TN")):
            again = self.translator.translate(other, self.script)
            assert again.comp is not self.first.comp
            assert canonical(again) == canonical(EpodTranslator(CONFIG).translate(other, self.script))

    def test_different_params(self):
        params = dict(CONFIG, BM=64, TX=32)
        self.translator.params = params
        again = self.translator.translate(self.source, self.script)
        assert again.comp is not self.first.comp
        assert canonical(again) == canonical(EpodTranslator(params).translate(self.source, self.script))
        assert canonical(again)["fingerprint"] != canonical(self.first)["fingerprint"]

    def test_a_different_mode(self):
        again = self.translator.translate(self.source, self.script, mode="filter")
        assert again.comp is not self.first.comp
        assert canonical(again) == canonical(
            EpodTranslator(CONFIG).translate(self.source, self.script, mode="filter")
        )
