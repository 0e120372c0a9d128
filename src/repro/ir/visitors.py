"""Traversal and rewriting helpers for the loop-nest IR.

Transforms in :mod:`repro.transforms` are written against these utilities so
each one stays focused on its own loop-level logic.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .ast import Assign, Guard, Loop, Node

__all__ = [
    "walk",
    "walk_with_context",
    "iter_statements",
    "iter_loops",
    "find_loop",
    "find_loop_path",
    "replace_node",
    "enclosing_loop_vars",
    "loop_nest_chain",
    "perfect_nest",
    "map_statements",
    "count_nodes",
]


def walk(body: Sequence[Node]) -> Iterator[Node]:
    """Yield every node in ``body``, preorder."""
    stack: List[Node] = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Loop):
            stack.extend(reversed(node.body))
        elif isinstance(node, Guard):
            stack.extend(reversed(node.body + node.else_body))


def walk_with_context(
    body: Sequence[Node], _loops: Tuple[Loop, ...] = ()
) -> Iterator[Tuple[Node, Tuple[Loop, ...]]]:
    """Yield ``(node, enclosing_loops)`` pairs, preorder."""
    for node in body:
        yield node, _loops
        if isinstance(node, Loop):
            yield from walk_with_context(node.body, _loops + (node,))
        elif isinstance(node, Guard):
            yield from walk_with_context(node.body, _loops)
            yield from walk_with_context(node.else_body, _loops)


def iter_statements(body: Sequence[Node]) -> Iterator[Assign]:
    for node in walk(body):
        if isinstance(node, Assign):
            yield node


def iter_loops(body: Sequence[Node]) -> Iterator[Loop]:
    for node in walk(body):
        if isinstance(node, Loop):
            yield node


def find_loop(body: Sequence[Node], label: str) -> Optional[Loop]:
    for loop in iter_loops(body):
        if loop.label == label:
            return loop
    return None


def find_loop_path(body: Sequence[Node], label: str) -> Optional[Tuple[Loop, ...]]:
    """Return the chain of loops from outermost down to the labeled loop."""
    for node, loops in walk_with_context(body):
        if isinstance(node, Loop) and node.label == label:
            return loops + (node,)
    return None


def replace_node(body: List[Node], old: Node, new: Sequence[Node]) -> bool:
    """Replace ``old`` (by identity) with the nodes in ``new``. In place.

    Returns True when a replacement happened.
    """
    for idx, node in enumerate(body):
        if node is old:
            body[idx : idx + 1] = list(new)
            return True
        if isinstance(node, Loop):
            if replace_node(node.body, old, new):
                return True
        elif isinstance(node, Guard):
            if replace_node(node.body, old, new):
                return True
            if replace_node(node.else_body, old, new):
                return True
    return False


def enclosing_loop_vars(body: Sequence[Node], target: Node) -> Optional[Tuple[str, ...]]:
    """Loop variables of all loops enclosing ``target`` (identity match)."""
    for node, loops in walk_with_context(body):
        if node is target:
            return tuple(loop.var for loop in loops)
    return None


def loop_nest_chain(loop: Loop) -> List[Loop]:
    """The maximal chain of singly-nested loops starting at ``loop``."""
    chain = [loop]
    current = loop
    while len(current.body) == 1 and isinstance(current.body[0], Loop):
        current = current.body[0]
        chain.append(current)
    return chain


def perfect_nest(loop: Loop) -> Tuple[List[Loop], List[Node]]:
    """Split a perfectly nested chain into its loops and the innermost body."""
    chain = loop_nest_chain(loop)
    return chain, chain[-1].body


def map_statements(body: List[Node], fn: Callable[[Assign], Assign]) -> None:
    """Rewrite every statement with ``fn``. In place."""
    for idx, node in enumerate(body):
        if isinstance(node, Assign):
            body[idx] = fn(node)
        elif isinstance(node, Loop):
            map_statements(node.body, fn)
        elif isinstance(node, Guard):
            map_statements(node.body, fn)
            map_statements(node.else_body, fn)


def count_nodes(body: Sequence[Node]) -> int:
    return sum(1 for _ in walk(body))
