"""Traversal and rewriting helpers for the loop-nest IR.

This is the one module that knows which nodes hold children: loops hold
``body``, guards ``body`` and ``else_body``.  Transforms in
:mod:`repro.transforms` find, splice and rewrite nodes through these
helpers so each one stays focused on its own loop-level logic.
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
    "locate",
    "replace_node",
    "map_statements",
]


def walk(
    body: Sequence[Node], descend: Optional[Callable[[Node], bool]] = None
) -> Iterator[Node]:
    """Yield every node in ``body``, preorder; with ``descend``, only the
    children of the nodes it accepts."""
    stack: List[Node] = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if descend is not None and not descend(node):
            continue
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


def locate(
    body: List[Node], node: Node, _loops: Tuple[Loop, ...] = ()
) -> Optional[Tuple[Tuple[Loop, ...], List[Node], int]]:
    """Where ``node`` (by identity) sits in ``body``: the loops enclosing
    it, outermost first, the list that holds it and its index there.

    Descends loops and both branches of a guard; ``None`` when absent.
    """
    for idx, child in enumerate(body):
        if child is node:
            return _loops, body, idx
        if isinstance(child, Loop):
            found = locate(child.body, node, _loops + (child,))
        elif isinstance(child, Guard):
            found = locate(child.body, node, _loops) or locate(child.else_body, node, _loops)
        else:
            continue
        if found is not None:
            return found
    return None


def replace_node(body: List[Node], old: Node, new: Sequence[Node]) -> bool:
    """Replace ``old`` (by identity) with the nodes in ``new``. In place.

    Returns True when a replacement happened.
    """
    found = locate(body, old)
    if found is None:
        return False
    _loops, container, idx = found
    container[idx : idx + 1] = list(new)
    return True


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

