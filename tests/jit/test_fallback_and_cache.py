"""Fallback contract, cache-key stability and telemetry counters."""

import dataclasses

import numpy as np
import pytest

from repro import jit
from repro.blas3 import BASE_GEMM_SCRIPT, build_routine, random_inputs
from repro.epod import parse_script, translate
from repro.gpu import GTX_285
from repro.ir.ast import Assign, BinOp
from repro.ir.interpret import interpret
from repro.ir.visitors import iter_statements
from repro.telemetry import Telemetry
from repro.tuner import (
    GeneratedLibrary,
    LibraryGenerator,
    TuningOptions,
    load_library,
    save_library,
)

PARAMS = {"BM": 8, "BN": 8, "KT": 4, "TX": 4, "TY": 2}


def gemm_comp():
    return translate(
        build_routine("GEMM-NN"), parse_script(BASE_GEMM_SCRIPT), params=PARAMS,
        mode="filter",
    ).comp


def small_sizes(comp, n=16):
    sizes = {"M": n, "N": n}
    if "K" in comp.dim_symbols:
        sizes["K"] = n
    return sizes


class _AlienNode:
    """A node shape the compiler has never heard of."""


# ---------------------------------------------------------------------------
# Fingerprint / cache-key stability
# ---------------------------------------------------------------------------


def test_fingerprint_stable_across_clone():
    comp = gemm_comp()
    # clone() re-labels every loop through the global counter; the
    # fingerprint must not care, or no two translations would ever share
    # a compiled kernel.
    assert jit.computation_fingerprint(comp) == jit.computation_fingerprint(
        comp.clone()
    )


def test_fingerprint_stable_across_retranslation():
    assert jit.computation_fingerprint(gemm_comp()) == jit.computation_fingerprint(
        gemm_comp()
    )


def test_fingerprint_distinguishes_different_kernels():
    gemm = gemm_comp()
    trmm = translate(
        build_routine("TRMM-LL-N"),
        parse_script(
            """
            (Lii, Ljj) = thread_grouping((Li, Lj));
            (Liii, Ljjj, Lkkk) = loop_tiling(Lii, Ljj, Lk);
            SM_alloc(B, Transpose);
            """
        ),
        params=PARAMS,
        mode="filter",
    ).comp
    assert jit.computation_fingerprint(gemm) != jit.computation_fingerprint(trmm)


def test_cache_hits_across_equivalent_computations():
    jit.clear_cache()
    comp = gemm_comp()
    telemetry = Telemetry()
    k1 = jit.compile_computation(comp, telemetry=telemetry)
    k2 = jit.compile_computation(comp.clone(), telemetry=telemetry)
    assert k1 is k2
    counters = telemetry.document()["counters"]
    assert counters.get("jit.compile") == 1
    assert counters.get("jit.cache_hit") == 1


def test_thread_orders_compile_separately():
    jit.clear_cache()
    comp = gemm_comp()
    k_asc = jit.compile_computation(comp, "asc")
    k_desc = jit.compile_computation(comp, "desc")
    assert k_asc is not k_desc
    info = jit.cache_info()
    assert info["entries"] == 2 and info["compiled"] == 2


# ---------------------------------------------------------------------------
# Fallback contract
# ---------------------------------------------------------------------------


def test_unsupported_node_falls_back_to_interpreter():
    comp = gemm_comp()
    comp.stages[0].body.append(_AlienNode())
    assert jit.compile_computation(comp) is None


def test_unsupported_shape_still_executes_via_interpreter(monkeypatch):
    # Force the lowering to reject everything: execute() must transparently
    # interpret and still return bit-identical buffers.
    comp = gemm_comp()
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=9)
    ref = interpret(comp, sizes, inputs)

    def refuse(*args, **kwargs):
        raise jit.UnsupportedIR("rejected for the test")

    monkeypatch.setattr(jit.registry, "lower_computation", refuse)
    jit.clear_cache()
    telemetry = Telemetry()
    got = jit.execute(comp, sizes, inputs, telemetry=telemetry)
    assert telemetry.document()["counters"].get("jit.fallback") == 1
    for arr in ref:
        assert np.array_equal(ref[arr], got[arr])
    jit.clear_cache()


def test_uncompilable_verdict_is_cached(monkeypatch):
    jit.clear_cache()
    comp = gemm_comp()
    calls = []

    def refuse(*args, **kwargs):
        calls.append(1)
        raise jit.UnsupportedIR("rejected for the test")

    monkeypatch.setattr(jit.registry, "lower_computation", refuse)
    telemetry = Telemetry()
    assert jit.compile_computation(comp, telemetry=telemetry) is None
    assert jit.compile_computation(comp, telemetry=telemetry) is None
    # the second probe answers from the cache without re-lowering
    assert len(calls) == 1
    assert telemetry.document()["counters"].get("jit.cache_hit") == 1
    assert jit.cache_info()["uncompilable"] == 1
    jit.clear_cache()


# ---------------------------------------------------------------------------
# Operator guards (the interpreter bugfix, mirrored in the compiler)
# ---------------------------------------------------------------------------


def _corrupt_first_binop(comp):
    for stage in comp.stages:
        for stmt in iter_statements(stage.body):
            stack = [stmt.expr]
            while stack:
                node = stack.pop()
                if isinstance(node, BinOp):
                    # past the immutability guard, like a bad transform
                    object.__setattr__(node, "op", "%")
                    return comp
                if hasattr(node, "left"):
                    stack.extend([node.left, node.right])
    raise AssertionError("no BinOp found")


def test_interpreter_rejects_unknown_binop():
    comp = _corrupt_first_binop(gemm_comp())
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=2)
    with pytest.raises(ValueError, match="unknown binary operator"):
        interpret(comp, sizes, inputs)


def test_compiler_rejects_unknown_binop():
    comp = _corrupt_first_binop(gemm_comp())
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=2)
    jit.clear_cache()
    with pytest.raises(ValueError, match="unknown binary operator"):
        jit.execute(comp, sizes, inputs)
    jit.clear_cache()


def test_lowering_rejects_unknown_assign_op():
    comp = gemm_comp()
    stmt = next(iter_statements(comp.stages[0].body))
    assert isinstance(stmt, Assign)
    stmt.op = "@="  # bypasses the constructor guard, like a bad transform
    with pytest.raises(ValueError, match="unknown assignment operator"):
        jit.lower_computation(comp)


# ---------------------------------------------------------------------------
# Telemetry integration
# ---------------------------------------------------------------------------


def test_compile_emits_lower_span_and_counters():
    jit.clear_cache()
    comp = gemm_comp()
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=1)
    telemetry = Telemetry()
    jit.execute(comp, sizes, inputs, telemetry=telemetry)
    jit.execute(comp, sizes, inputs, telemetry=telemetry)
    doc = telemetry.document()
    counters = doc["counters"]
    assert counters.get("jit.compile") == 1
    assert counters.get("jit.cache_hit") == 1
    assert counters.get("jit.vectorized_loops", 0) > 0
    assert "jit.fallback" not in counters
    assert len(telemetry.find("jit.lower")) == 1
    jit.clear_cache()


# ---------------------------------------------------------------------------
# A caller-held kernel (execute(kernel=...), the serving path)
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    """Calls of ``repro.jit.registry.<name>`` from here on."""
    calls = []
    original = getattr(jit.registry, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jit.registry, name, counting)
    return calls


def _assert_interpreted(comp, sizes, inputs, got):
    ref = interpret(comp, sizes, inputs)
    for arr in ref:
        assert np.array_equal(ref[arr], got[arr])


def _refusing_kernel(kernel):
    def refuse(*args):
        raise AssertionError("this kernel must not run")

    return dataclasses.replace(kernel, fn=refuse)


def test_given_kernel_skips_the_fingerprint(monkeypatch):
    comp = gemm_comp()
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=5)
    kernel = jit.compile_computation(comp)
    calls = _count_calls(monkeypatch, "computation_fingerprint")
    telemetry = Telemetry()
    got = jit.execute(comp, sizes, inputs, telemetry=telemetry, kernel=kernel)
    assert calls == []
    assert telemetry.document()["counters"] == {}
    _assert_interpreted(comp, sizes, inputs, got)


def test_disabled_wins_over_a_given_kernel():
    comp = gemm_comp()
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=6)
    kernel = _refusing_kernel(jit.compile_computation(comp))
    telemetry = Telemetry()
    with jit.disabled():
        got = jit.execute(comp, sizes, inputs, telemetry=telemetry, kernel=kernel)
    assert telemetry.document()["counters"].get("jit.fallback") == 1
    _assert_interpreted(comp, sizes, inputs, got)


def test_kernel_of_the_other_thread_order_is_ignored(monkeypatch):
    comp = gemm_comp()
    sizes = small_sizes(comp)
    inputs = random_inputs("GEMM-NN", sizes, seed=7)
    desc = _refusing_kernel(jit.compile_computation(comp, "desc"))
    calls = _count_calls(monkeypatch, "computation_fingerprint")
    got = jit.execute(comp, sizes, inputs, thread_order="asc", kernel=desc)
    assert len(calls) == 1  # looked up the asc kernel instead
    _assert_interpreted(comp, sizes, inputs, got)


SMALL_SPACE = [{"BM": 16, "BN": 16, "KT": 8, "TX": 8, "TY": 2}]
GEMM_SIZES = {"M": 32, "N": 32, "K": 16}


@pytest.fixture(scope="module")
def gemm_routine():
    return LibraryGenerator(
        GTX_285, options=TuningOptions(space=SMALL_SPACE)
    ).generate("GEMM-NN")


def test_uncompilable_routine_interprets_every_call(monkeypatch, gemm_routine):
    inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=8)
    with jit.disabled():
        want = gemm_routine.run(alpha=2.0, beta=0.5, **inputs)

    def refuse(*args, **kwargs):
        raise jit.UnsupportedIR("rejected for the test")

    monkeypatch.setattr(jit.registry, "lower_computation", refuse)
    jit.clear_cache()
    telemetry = Telemetry()
    tuned = dataclasses.replace(gemm_routine, telemetry=telemetry)
    for calls in (1, 2):
        got = tuned.run(alpha=2.0, beta=0.5, **inputs)
        assert telemetry.document()["counters"].get("jit.fallback") == calls
        assert np.array_equal(got, want)
    jit.clear_cache()


def test_disabled_run_binds_nothing(monkeypatch, gemm_routine):
    tuned = dataclasses.replace(gemm_routine)  # a fresh, unbound kernel slot
    inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=10)
    binds = _count_calls(monkeypatch, "compile_computation")
    with jit.disabled():
        tuned.run(**inputs)
    assert binds == []
    tuned.run(**inputs)
    assert len(binds) == 1


def _assert_binds_once(binds, original, loaded):
    inputs = random_inputs("GEMM-NN", GEMM_SIZES, seed=9)
    want = original.run(alpha=2.0, beta=0.5, **inputs)
    binds.clear()
    for _ in range(2):
        got = loaded.run(alpha=2.0, beta=0.5, **inputs)
        assert np.array_equal(got, want)
    assert len(binds) == 1


def test_cache_loaded_routine_binds_lazily(monkeypatch, tmp_path):
    options = TuningOptions(space=SMALL_SPACE, cache_dir=tmp_path)
    original = LibraryGenerator(GTX_285, options=options).generate("GEMM-NN")
    binds = _count_calls(monkeypatch, "compile_computation")
    loaded = LibraryGenerator(GTX_285, options=options).generate("GEMM-NN")
    assert loaded is not original
    assert binds == []  # loading compiled nothing
    _assert_binds_once(binds, original, loaded)


def test_library_loaded_routine_binds_lazily(monkeypatch, tmp_path, gemm_routine):
    path = tmp_path / "lib.json"
    save_library(GeneratedLibrary(GTX_285, {"GEMM-NN": gemm_routine}), path)
    binds = _count_calls(monkeypatch, "compile_computation")
    loaded = load_library(path)["GEMM-NN"]
    assert binds == []
    _assert_binds_once(binds, gemm_routine, loaded)
