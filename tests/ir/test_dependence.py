"""Tests for the PolyDeps-like dependence analysis."""

import pytest

from repro.ir import (
    ArrayRef,
    analyze_dependences,
    carries_dependence,
    fusion_legal,
    gcd_test,
    interchange_legal,
    parse_labeled_source,
    var,
)


class TestGCD:
    def test_same_cell_possible(self):
        a = ArrayRef("A", [var("i"), var("k")])
        b = ArrayRef("A", [var("i"), var("k")])
        assert gcd_test(a, b)

    def test_different_arrays_independent(self):
        assert not gcd_test(ArrayRef("A", [var("i")]), ArrayRef("B", [var("i")]))

    def test_constant_offset_parity(self):
        # A[2i] vs A[2i+1] can never alias: 2x - 2y = 1 has no integer solution.
        a = ArrayRef("A", [var("i") * 2])
        b = ArrayRef("A", [var("i") * 2 + 1])
        assert not gcd_test(a, b)

    def test_distinct_constants(self):
        assert not gcd_test(ArrayRef("A", [var("i") * 0 + 3]), ArrayRef("A", [var("i") * 0 + 4]))

    def test_shifted_alias_possible(self):
        a = ArrayRef("A", [var("i")])
        b = ArrayRef("A", [var("i") + 1])
        assert gcd_test(a, b)


class TestAnalyze:
    def test_gemm_reduction_carried_by_k(self):
        body = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < N; j++)
            Lk:     for (k = 0; k < K; k++)
                      C[i][j] += A[i][k] * B[k][j];
            """
        )
        deps = analyze_dependences(body, {"M": 4, "N": 4, "K": 4})
        flows = [d for d in deps if d.kind == "flow" and d.loop_carried()]
        assert flows, "the k reduction must carry a flow dependence"
        assert all(d.direction[0] == "=" and d.direction[1] == "=" for d in flows)
        assert not carries_dependence(body, 0)
        assert not carries_dependence(body, 1)
        assert carries_dependence(body, 2)

    def test_trsm_carried_by_i(self):
        body = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < N; j++)
            Lk:     for (k = 0; k < i; k++)
                      B[i][j] -= A[i][k] * B[k][j];
            """
        )
        # B[i][j] written at iteration i is read at iterations i' > i (as B[k][j]).
        assert carries_dependence(body, 0)
        assert not carries_dependence(body, 1)

    def test_stream_no_deps(self):
        body = parse_labeled_source(
            "Li: for (i = 0; i < M; i++) C[i][0] = A[i][0];"
        )
        deps = analyze_dependences(body)
        assert all(not d.loop_carried() for d in deps)


class TestInterchange:
    def test_gemm_ij_interchange_legal(self):
        body = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < N; j++)
            Lk:     for (k = 0; k < K; k++)
                      C[i][j] += A[i][k] * B[k][j];
            """
        )
        assert interchange_legal(body, 0, 1)
        assert interchange_legal(body, 0, 2)

    def test_wavefront_interchange_illegal(self):
        # A[i][j] depends on A[i-1][j+1]: direction (<, >) blocks interchange.
        body = parse_labeled_source(
            """
            Li: for (i = 1; i < M; i++)
            Lj:   for (j = 0; j < N - 1; j++)
                    A[i][j] = A[i-1][j+1];
            """
        )
        assert not interchange_legal(body, 0, 1)


class TestFusion:
    def test_independent_loops_fusable(self):
        a, b = parse_labeled_source(
            """
            L1: for (i = 0; i < M; i++)
                  C[i][0] = A[i][0];
            L2: for (i = 0; i < M; i++)
                  D[i][0] = B[i][0];
            """
        )
        assert fusion_legal(a, b)

    def test_producer_consumer_fusable(self):
        # Same-iteration flow: C produced at i consumed at i — fusion keeps order.
        a, b = parse_labeled_source(
            """
            L1: for (i = 0; i < M; i++)
                  C[i][0] = A[i][0];
            L2: for (i = 0; i < M; i++)
                  D[i][0] = C[i][0];
            """
        )
        assert fusion_legal(a, b)

    def test_backward_flow_blocks_fusion(self):
        # Second loop at iteration i reads C[i+1], produced by the first loop
        # at iteration i+1: fusing reverses that dependence.
        a, b = parse_labeled_source(
            """
            L1: for (i = 0; i < M; i++)
                  C[i][0] = A[i][0];
            L2: for (i = 0; i < M - 1; i++)
                  D[i][0] = C[i+1][0];
            """
        )
        assert not fusion_legal(a, b)

    def test_mismatched_bounds_rejected(self):
        a, b = parse_labeled_source(
            """
            L1: for (i = 0; i < M; i++)
                  C[i][0] = A[i][0];
            L2: for (i = 0; i < N; i++)
                  D[i][0] = B[i][0];
            """
        )
        assert not fusion_legal(a, b)

    def test_renamed_var_domains_align(self):
        a, b = parse_labeled_source(
            """
            L1: for (i = 0; i < M; i++)
                  C[i][0] = A[i][0];
            L2: for (k = 0; k < M; k++)
                  D[k][0] = C[k][0];
            """
        )
        assert fusion_legal(a, b)


class TestBanerjee:
    def test_disjoint_ranges_proven_independent(self):
        from repro.ir import banerjee_test, may_alias
        from repro.ir import ArrayRef, var

        # A[i] with i in [0,7] vs A[j+16] with j in [0,7]: never equal.
        a = ArrayRef("A", [var("i")])
        b = ArrayRef("A", [var("j") + 16])
        bounds = {"i": (0, 7), "j": (0, 7)}
        assert not banerjee_test(a, b, bounds)
        assert not may_alias(a, b, bounds)

    def test_overlapping_ranges_possible(self):
        from repro.ir import banerjee_test
        from repro.ir import ArrayRef, var

        a = ArrayRef("A", [var("i")])
        b = ArrayRef("A", [var("j") + 4])
        assert banerjee_test(a, b, {"i": (0, 7), "j": (0, 7)})

    def test_negative_coefficients(self):
        from repro.ir import banerjee_test
        from repro.ir import ArrayRef, var

        # A[8 - i] vs A[j]: ranges overlap for i,j in [0,8].
        a = ArrayRef("A", [8 - var("i")])
        b = ArrayRef("A", [var("j")])
        assert banerjee_test(a, b, {"i": (0, 8), "j": (0, 8)})
        # But not when j is forced above the reachable range.
        assert not banerjee_test(a, b, {"i": (0, 3), "j": (10, 12)})

    def test_complements_gcd(self):
        from repro.ir import banerjee_test, gcd_test, may_alias
        from repro.ir import ArrayRef, var

        # Same parity (GCD passes) but disjoint ranges (Banerjee refutes).
        a = ArrayRef("A", [var("i") * 2])
        b = ArrayRef("A", [var("j") * 2 + 100])
        bounds = {"i": (0, 10), "j": (0, 10)}
        assert gcd_test(a, b)
        assert not banerjee_test(a, b, bounds)
        assert not may_alias(a, b, bounds)

    def test_unbounded_vars_conservative(self):
        from repro.ir import banerjee_test
        from repro.ir import ArrayRef, var

        a = ArrayRef("A", [var("i")])
        b = ArrayRef("A", [var("z") + 1000])
        assert banerjee_test(a, b, {"i": (0, 4)})  # z unbounded: cannot rule out


# ---------------------------------------------------------------------------
# The structural memo in front of the exhaustive trace
# ---------------------------------------------------------------------------


def _memo_body(upper="M", step=1, var_name="j", cmp_op="<", op="+="):
    """``for i: for j: if (j < i) C[i][j] += A[i][j] * 2`` with knobs for
    every structural field the memo key must see."""
    from repro.ir import Assign, BinOp, Cmp, Const, Guard, Loop

    j = var(var_name)
    stmt = Assign(
        ArrayRef("C", [var("i"), j]),
        BinOp("*", ArrayRef("A", [var("i"), j]), Const(2.0)),
        op,
    )
    guard = Guard(Cmp(j, cmp_op, var("i")), [stmt])
    inner = Loop(var_name, 0, "N", [guard], step=step)
    return [Loop("i", 0, upper, [inner])]


def _relabel(nodes):
    from repro.ir import Guard, Loop, fresh_label

    for node in nodes:
        if isinstance(node, Loop):
            node.label = fresh_label("R")
            _relabel(node.body)
        elif isinstance(node, Guard):
            _relabel(node.body)
            _relabel(node.else_body)
    return nodes


class _OddPredicate:
    """A guard predicate outside the structural encoder's subset."""


class TestMemo:
    @pytest.fixture
    def traces(self, monkeypatch):
        """Count the exhaustive traces behind a cold memo."""
        from repro.ir import dependence

        dependence.clear_cache()
        calls = []
        original = dependence._trace_dependences

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dependence, "_trace_dependences", counting)
        yield calls
        dependence.clear_cache()

    def test_relabelled_clone_hits(self, traces):
        body = _memo_body()
        first = analyze_dependences(body, {"M": 4, "N": 4})
        clone = _relabel([node.clone() for node in body])
        assert clone[0].label != body[0].label
        assert analyze_dependences(clone, {"N": 4, "M": 4}) == first
        assert len(traces) == 1

    @pytest.mark.parametrize(
        "variant, sizes, default_size",
        [
            (dict(upper="N"), {"M": 4, "N": 4}, 6),
            (dict(step=2), {"M": 4, "N": 4}, 6),
            (dict(var_name="jj"), {"M": 4, "N": 4}, 6),
            (dict(cmp_op="<="), {"M": 4, "N": 4}, 6),
            (dict(op="="), {"M": 4, "N": 4}, 6),
            ({}, {"M": 5, "N": 4}, 6),
            ({}, {"M": 4, "N": 4}, 5),
        ],
        ids=["bound", "step", "loop-var", "guard", "assign-op", "sizes", "default-size"],
    )
    def test_structural_change_misses(self, traces, variant, sizes, default_size):
        analyze_dependences(_memo_body(), {"M": 4, "N": 4}, 6)
        analyze_dependences(_memo_body(**variant), sizes, default_size)
        assert len(traces) == 2

    def test_results_independent(self, traces):
        body = _memo_body()
        first = analyze_dependences(body)
        expected = list(first)
        first.clear()
        second = analyze_dependences(body)
        third = analyze_dependences(body)
        assert second == expected and second is not third
        second.append("junk")
        assert analyze_dependences(body) == expected
        assert len(traces) == 1

    def test_unsupported_node_uncached(self, traces):
        from repro.ir import Guard, dependence
        from repro.ir.fingerprint import UnsupportedIR, encode_body

        body = _memo_body()
        body[0].body[0].body = [Guard(_OddPredicate(), body[0].body[0].body[0].body)]
        with pytest.raises(UnsupportedIR):
            encode_body(body)
        first = analyze_dependences(body)
        assert analyze_dependences(body) == first
        assert len(traces) == 2
        assert len(dependence._MEMO) == 0

    def test_concurrent_callers_agree(self, traces):
        import sys
        import threading

        from repro.ir import dependence

        body = _memo_body()
        expected = dependence._trace_dependences(body, None, 6)
        start = threading.Barrier(8)
        results = []

        def worker():
            start.wait(timeout=30)
            for _ in range(25):
                results.append(analyze_dependences(_relabel([n.clone() for n in body])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 200
        assert all(r == expected for r in results)
        assert len(dependence._MEMO) == 1

    def test_memo_is_bounded(self, traces, monkeypatch):
        from repro.ir import dependence

        monkeypatch.setattr(dependence, "_MAX_ENTRIES", 2)
        for size in (3, 4, 5):
            analyze_dependences(_memo_body(), {"M": size, "N": 4})
            assert len(dependence._MEMO) <= 2

    def test_jit_clear_cache_empties_memo(self, traces):
        from repro import jit
        from repro.ir import dependence

        analyze_dependences(_memo_body())
        assert len(dependence._MEMO) == 1
        jit.clear_cache()
        assert len(dependence._MEMO) == 0
        analyze_dependences(_memo_body())
        assert len(traces) == 2
