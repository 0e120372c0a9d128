"""Tests for the PolyDeps-like dependence analysis."""

import pytest

from repro.ir import (
    ArrayRef,
    Assign,
    BinOp,
    Loop,
    carrying_loops,
    fusion_legal,
    interchange_legal,
    parse_labeled_source,
    var,
)
from repro.ir.affine import AffineExpr, MinExpr


def carried_vars(nest, enclosing=()):
    return {loop.var for loop in carrying_loops(nest, enclosing)}


class TestAnalyze:
    def test_gemm_reduction_carried_by_k(self):
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < N; j++)
            Lk:     for (k = 0; k < K; k++)
                      C[i][j] += A[i][k] * B[k][j];
            """
        )
        assert carried_vars(nest) == {"k"}

    def test_trsm_carried_by_i(self):
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < N; j++)
            Lk:     for (k = 0; k < i; k++)
                      B[i][j] -= A[i][k] * B[k][j];
            """
        )
        # B[i][j] written at iteration i is read at iterations i' > i (as B[k][j]).
        assert carried_vars(nest) == {"i", "k"}

    def test_stream_no_deps(self):
        (nest,) = parse_labeled_source("Li: for (i = 0; i < M; i++) C[i][0] = A[i][0];")
        assert not carrying_loops(nest)

    def test_size_symbol_offset_checked_for_every_size(self):
        # At the trace size (M = 6 = N) the references never meet; at
        # M = 1 iteration j reads A[j], written one iteration earlier.
        (loop,) = parse_labeled_source("Lj: for (j = 0; j < N; j++) A[j+M][0] = A[j][0] + A[j+M][0];")
        assert carrying_loops(loop) == {loop}

    def test_offset_past_six_is_traced_far_enough(self):
        # iteration j + 6 reads what iteration j wrote: N must exceed 6
        (loop,) = parse_labeled_source("Lj: for (j = 0; j < N; j++) A[j+6][0] = A[j][0];")
        assert carrying_loops(loop) == {loop}

    def test_triangular_loop_is_traced_far_enough(self):
        # j reaches 8 only at i = 9, so only for M > 9
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < i; j++)
                    A[j+8][0] += A[j][0];
            """
        )
        assert carried_vars(nest) == {"i", "j"}

    def test_size_symbol_in_a_lower_bound_runs_over_a_range(self):
        # n writes C[M+n] and reads C[n]: at M = 1, iteration n + 1
        # reads what iteration n wrote
        (nest,) = parse_labeled_source(
            """
            Ln: for (n = 0; n < 4; n++) {
            Lx:   for (x = M + n; x < M + n + 1; x++)
                    C[x][0] = 1;
                  D[n][0] = C[n][0];
                }
            """
        )
        assert carried_vars(nest) == {"n"}

    def test_scaled_subscript_over_a_wide_step_is_traced_far_enough(self):
        # write B[5][2j-w0+7], read B[2n-j+8][4]: they meet at j = 7 and
        # j = 13 of one i only when w0 = 29, so for M >= 31; the extent is
        # 36 (it was 24 when it took the largest step, 12, not their lcm, 24)
        write = ArrayRef("B", [AffineExpr.constant(5), AffineExpr({"j": 2, "w0": -1}, 7)])
        read = ArrayRef("B", [AffineExpr({"j": -1, "n": 2}, 8), AffineExpr.constant(4)])
        j = Loop("j", 1, MinExpr((var("w0"), var("M"))), [Assign(write, read, "-=")], step=6)
        nest = Loop("n", 2, 4, [Loop("i", var("w0") + 1, var("M"), [j], step=8)])
        w1 = Loop("w1", var("w0"), var("w0") + 7, [nest], step=3)
        w0 = Loop("w0", 1, var("N") + 1, [w1])
        assert carried_vars(nest, [w0, w1]) == {"n", "i", "j"}

    def test_scaled_enclosing_subscript_is_traced_far_enough(self):
        # write A[i-1] (i = 2, 5, 8, ...), read A[2*w0+2] (w0 = 0, 2, 4, ...):
        # they first meet at A[10] (w0 = 4, i = 11), so for M >= 13; the
        # extent is 19 (it was 12 when it took the largest step, 4, not
        # their lcm, 12); the brute-force property in
        # test_dependence_vectorized.py drew this nest
        stmt = Assign(ArrayRef("A", [var("i") - 1]), ArrayRef("A", [var("w0") * 2 + 2]))
        nest = Loop("n", 0, var("M"), [Loop("i", 2, var("n"), [stmt], step=3)])
        w0 = Loop("w0", 0, var("M"), [nest], step=2)
        assert carried_vars(nest, [w0]) == {"n", "i"}

    def test_only_the_asked_loops_answer(self):
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lk:   for (k = 0; k < K; k++)
                    C[i][0] += A[i][k];
            """
        )
        assert carrying_loops(nest, among=[nest]) == set()
        assert carrying_loops(nest, among=nest.body) == set(nest.body)


class TestTraceBudget:
    """Steps 7, 8, 9 and 5 size the trace at their lcm, N = 2,521: four
    loops over it would enumerate ~1.6e10 instances.  Past the budget
    the questions get the conservative answer instead.  No subscript is
    shared by the write and the read, so every loop is asked."""

    SOURCE = """
        Li: for (i = 0; i < N; i += 7)
        Lj:   for (j = 0; j < N; j += 8)
        Lk:     for (k = 0; k < N; k += 9)
        Ll:       for (l = 0; l < N; l += 5)
                    C[i][j][k][l] = C[i+1][j+1][k+1][l+1];
        """

    def test_every_loop_asked_about_carries(self):
        (nest,) = parse_labeled_source(self.SOURCE)
        # the exact answer is none: i + 1 is never a multiple of 7
        assert carried_vars(nest) == {"i", "j", "k", "l"}

    def test_no_reordering_is_kept(self):
        (nest,) = parse_labeled_source(self.SOURCE)
        # the exact answer is that i and j may swap
        assert not interchange_legal(nest)


class TestChunkBudget:
    """Each loop level of this trace stays under the level budget (the
    offset 800 sizes it at N = 801, 641,601 instances), but its six
    references make an access matrix of 5 x 3,849,606 cells, past the
    chunk budget.  Past it the questions get the conservative answer.
    No subscript of ``C`` is shared, so both loops are asked."""

    SOURCE = """
        Li: for (i = 0; i < N; i++)
        Lj:   for (j = 0; j < N; j++)
                C[i][j] = C[i+1][j+800] + D[i][j] + D[i][j+1] + D[i][j+2] + D[i][j+3];
        """

    def test_every_loop_asked_about_carries(self):
        (nest,) = parse_labeled_source(self.SOURCE)
        # the exact answer is only i (an anti dependence)
        assert carried_vars(nest) == {"i", "j"}

    def test_no_reordering_is_kept(self):
        (nest,) = parse_labeled_source(self.SOURCE)
        # the exact answer is that i and j may swap
        assert not interchange_legal(nest)


class TestInterchange:
    def test_gemm_ij_interchange_legal(self):
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 0; i < M; i++)
            Lj:   for (j = 0; j < N; j++)
            Lk:     for (k = 0; k < K; k++)
                      C[i][j] += A[i][k] * B[k][j];
            """
        )
        assert interchange_legal(nest)
        assert interchange_legal(nest.body[0], [nest])

    def test_wavefront_interchange_illegal(self):
        # A[i][j] depends on A[i-1][j+1]: direction (<, >) blocks interchange.
        (nest,) = parse_labeled_source(
            """
            Li: for (i = 1; i < M; i++)
            Lj:   for (j = 0; j < N - 1; j++)
                    A[i][j] = A[i-1][j+1];
            """
        )
        assert not interchange_legal(nest)

    def test_enclosing_loop_carries_the_wavefront(self):
        # The (<, >) dependence on (i, j) is carried by t: within one t
        # iteration no cell is both written and read, so i and j may swap.
        (nest,) = parse_labeled_source(
            """
            Lt: for (t = 0; t < T; t++)
            Li:   for (i = 0; i < M; i++)
            Lj:     for (j = 0; j < N; j++)
                      A[t+1][i+1][j] = A[t][i][j+1];
            """
        )
        assert carried_vars(nest) == {"t"}
        assert interchange_legal(nest.body[0], [nest])


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
            L2: for (i = 0; i < M; i++)
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

    def test_size_symbol_offset_checked_for_every_size(self):
        # At the trace size (M = 6) the second loop reads C[i+6], which the
        # first never writes; at M = 1 it reads C[i+1], written one
        # iteration later.
        a, b = parse_labeled_source(
            """
            L1: for (i = 0; i < N; i++)
                  C[i][0] = A[i][0];
            L2: for (i = 0; i < N; i++)
                  D[i][0] = C[i+M][0];
            """
        )
        assert not fusion_legal(a, b)


# ---------------------------------------------------------------------------
# The structural memo in front of the trace
# ---------------------------------------------------------------------------


def _memo_body(upper="M", step=1, var_name="j", cmp_op="<", op="+=", shift=0):
    """``for i: for j: if (j < i) C[i][j] += C[j][i] * 2`` with knobs for
    every structural field the memo key must see; ``shift`` adds that
    many ``M`` to the read's row."""
    from repro.ir import Assign, BinOp, Cmp, Const, Guard, Loop

    j = var(var_name)
    stmt = Assign(
        ArrayRef("C", [var("i"), j]),
        BinOp("*", ArrayRef("C", [j + var("M") * shift, var("i")]), Const(2.0)),
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


def _positions(body, carrying):
    """Pre-order positions of the ``carrying`` loops in ``body``."""
    from repro.ir.visitors import iter_loops

    return {i for i, loop in enumerate(iter_loops(body)) if loop in carrying}


class _OddPredicate:
    """A guard predicate outside the structural encoder's subset."""


@pytest.fixture
def traces(monkeypatch):
    """Count the traces behind a cold memo."""
    from repro.ir import dependence

    dependence.clear_cache()
    calls = []
    original = dependence._trace_carrying

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dependence, "_trace_carrying", counting)
    yield calls
    dependence.clear_cache()


class TestSharedSubscript:
    """A loop whose written arrays each share one subscript that moves
    with it, in every reference inside it, needs no trace."""

    def test_shared_column_answers_without_a_trace(self, traces):
        # the TRSM diagonal solve: B[si][sj] and B[k][sj] share sj
        si, sj, k = var("si"), var("sj"), var("k")
        product = BinOp("*", ArrayRef("A", [si, k]), ArrayRef("B", [k, sj]))
        update = Assign(ArrayRef("B", [si, sj]), product, "-=")
        quotient = BinOp("/", ArrayRef("B", [si, sj]), ArrayRef("A", [si, si]))
        scale = Assign(ArrayRef("B", [si, sj]), quotient)
        inner = Loop("sj", 0, "N", [Loop("k", 0, si, [update]), scale])
        outer = Loop("si", 0, "M", [inner])
        assert carrying_loops(inner, [outer], among=[inner]) == set()
        assert traces == []

    def test_shared_subscript_reading_an_inner_loop_traces(self, traces):
        # A[j+k] is shared, but moves with k inside j: iterations overlap
        j, k = var("j"), var("k")
        stmt = Assign(ArrayRef("A", [j + k]), BinOp("*", ArrayRef("A", [j + k]), ArrayRef("B", [k])))
        nest = Loop("j", 0, "N", [Loop("k", 0, 3, [stmt])])
        assert carrying_loops(nest, among=[nest]) == {nest}
        assert len(traces) == 1


class TestMemo:
    def test_relabelled_clone_hits(self, traces):
        body = _memo_body()
        first = _positions(body, carrying_loops(body[0]))
        clone = _relabel([node.clone() for node in body])
        assert clone[0].label != body[0].label
        assert _positions(clone, carrying_loops(clone[0])) == first == {0}
        assert len(traces) == 1

    @pytest.mark.parametrize(
        "variant, enclosing, asked",
        [
            (dict(upper="N"), False, None),
            (dict(step=2), False, None),
            (dict(var_name="jj"), False, None),
            (dict(cmp_op="<="), False, None),
            (dict(op="="), False, None),
            (dict(shift=1), False, None),
            ({}, True, None),
            ({}, False, "outer"),
        ],
        ids=["bound", "step", "loop-var", "guard", "assign-op", "sizes", "enclosing", "asked"],
    )
    def test_structural_change_misses(self, traces, variant, enclosing, asked):
        from repro.ir import Loop

        carrying_loops(_memo_body()[0])
        (nest,) = _memo_body(**variant)
        outer = [Loop("s", 0, "N", [nest])] if enclosing else []
        if enclosing:  # the nest's bound now runs with s
            nest.upper = var("s")
        carrying_loops(nest, outer, [nest] if asked else None)
        assert len(traces) == 2  # one trace per question

    def test_results_independent(self, traces):
        body = _memo_body()
        first = carrying_loops(body[0])
        expected = set(first)
        first.clear()
        second = carrying_loops(body[0])
        third = carrying_loops(body[0])
        assert second == expected and second is not third
        second.add("junk")
        assert carrying_loops(body[0]) == expected
        assert len(traces) == 1

    def test_unsupported_node_uncached(self, traces):
        from repro.ir import Guard, dependence
        from repro.ir.fingerprint import UnsupportedIR, encode_body

        body = _memo_body()
        body[0].body[0].body = [Guard(_OddPredicate(), body[0].body[0].body[0].body)]
        with pytest.raises(UnsupportedIR):
            encode_body(body)
        first = carrying_loops(body[0])
        assert carrying_loops(body[0]) == first
        assert len(traces) == 2
        assert len(dependence._MEMO) == 0

    def test_concurrent_callers_agree(self, traces):
        import sys
        import threading

        from repro.ir import dependence

        body = _memo_body()
        expected = _positions(body, carrying_loops(body[0]))
        dependence.clear_cache()
        start = threading.Barrier(8)
        results = []

        def worker():
            start.wait(timeout=30)
            for _ in range(25):
                clone = _relabel([n.clone() for n in body])
                results.append(_positions(clone, carrying_loops(clone[0])))

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
        for step in (1, 2, 3):
            carrying_loops(_memo_body(step=step)[0])
            assert len(dependence._MEMO) <= 2

    def test_jit_clear_cache_empties_memo(self, traces):
        from repro import jit
        from repro.ir import dependence

        carrying_loops(_memo_body()[0])
        assert len(dependence._MEMO) == 1
        jit.clear_cache()
        assert len(dependence._MEMO) == 0
        carrying_loops(_memo_body()[0])
        assert len(traces) == 2

    def test_reordering_answers_are_memoized(self, traces, monkeypatch):
        from repro.ir import dependence

        orders = []
        original = dependence._order_kept
        monkeypatch.setattr(dependence, "_order_kept", lambda *a: orders.append(1) or original(*a))
        (nest,) = _memo_body()
        (clone,) = _relabel([nest.clone()])
        assert interchange_legal(nest) == interchange_legal(clone)
        assert len(orders) == 1
