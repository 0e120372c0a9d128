"""Tests for IR traversal helpers and the C-like printer."""

import pytest

from repro.ir import (
    Array,
    Assign,
    Barrier,
    Cmp,
    Guard,
    Loop,
    parse_labeled_source,
    print_body,
    print_computation,
    print_stmt,
    var,
)
from repro.ir.builder import build_computation
from repro.ir.visitors import (
    find_loop,
    find_loop_path,
    iter_loops,
    iter_statements,
    locate,
    map_statements,
    replace_node,
    walk,
    walk_with_context,
)

SRC = """
Li: for (i = 0; i < M; i++)
Lj:   for (j = 0; j < N; j++)
Lk:     for (k = 0; k < K; k++)
          C[i][j] += A[i][k] * B[k][j];
"""


@pytest.fixture
def body():
    return parse_labeled_source(SRC)


class TestTraversal:
    def test_walk_order(self, body):
        kinds = [type(n).__name__ for n in walk(body)]
        assert kinds == ["Loop", "Loop", "Loop", "Assign"]

    def test_walk_with_context_depths(self, body):
        depths = [len(loops) for _n, loops in walk_with_context(body)]
        assert depths == [0, 1, 2, 3]

    def test_iter_statements(self, body):
        assert len(list(iter_statements(body))) == 1

    def test_iter_loops(self, body):
        assert [lp.label for lp in iter_loops(body)] == ["Li", "Lj", "Lk"]

    def test_find_loop(self, body):
        assert find_loop(body, "Lk").var == "k"
        assert find_loop(body, "Lz") is None

    def test_find_loop_path(self, body):
        path = find_loop_path(body, "Lk")
        assert [lp.label for lp in path] == ["Li", "Lj", "Lk"]

    def test_enclosing_loop_vars(self, body):
        stmt = next(iter_statements(body))
        loops, container, idx = locate(body, stmt)
        assert tuple(lp.var for lp in loops) == ("i", "j", "k")
        assert container is find_loop(body, "Lk").body and idx == 0

    def test_locate_descends_both_branches_of_a_guard(self, body):
        other = Barrier()
        guard = Guard(Cmp(var("i"), "==", 0), [Barrier()], [Barrier(), other])
        find_loop(body, "Lj").body.append(guard)
        loops, container, idx = locate(body, other)
        assert [lp.label for lp in loops] == ["Li", "Lj"]
        assert container is guard.else_body and idx == 1
        assert locate(body, Barrier()) is None

    def test_walk_into_guards(self):
        inner = parse_labeled_source("Lx: for (x = 0; x < M; x++) C[x][0] = A[x][0];")
        guard = Guard(Cmp(var("x"), "==", 0), inner)
        assert len(list(iter_loops([guard]))) == 1


class TestRewriting:
    def test_replace_node(self, body):
        stmt = next(iter_statements(body))
        replaced = replace_node(body, stmt, [Barrier()])
        assert replaced
        assert isinstance(find_loop(body, "Lk").body[0], Barrier)

    def test_replace_missing_returns_false(self, body):
        assert not replace_node(body, Barrier(), [])

    def test_map_statements(self, body):
        map_statements(body, lambda s: Assign(s.target, s.expr, "-=", s.label))
        assert next(iter_statements(body)).op == "-="


class TestPrinter:
    def test_stmt(self, body):
        stmt = next(iter_statements(body))
        assert print_stmt(stmt) == "C[i][j] += (A[i][k] * B[k][j]);"

    def test_body_roundtrippable(self, body):
        text = print_body(body)
        again = parse_labeled_source(text)
        assert print_body(again) == text

    def test_annotations_shown(self):
        loop = Loop("i", 0, 16, [], step=4, mapped_to="block.x", unroll=2)
        text = print_body([loop])
        assert "mapped:block.x" in text and "unroll:2" in text and "i += 4" in text

    def test_computation_header(self):
        comp = build_computation(
            "demo",
            "Li: for (i = 0; i < M; i++) C[i][0] = A[i][0];",
            [Array("A", (var("M"), 1)), Array("C", (var("M"), 1))],
        )
        text = print_computation(comp)
        assert "// computation demo" in text
        assert "// A: M x 1" in text

    def test_guard_printing(self):
        guard = Guard(Cmp(var("i"), "<", 4), [Barrier()], note="hello")
        text = print_body([guard])
        assert "if (" in text and "hello" in text and "__syncthreads" in text
