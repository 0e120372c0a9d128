"""Shared helpers: the canonical kernel structure transforms build and query.

After ``thread_grouping`` every compute stage has the *canonical* shape::

    [block loops]               # mapped block.x / block.y, possibly 1 or 2
      [block-level items]       # sequential loops (kk, ibb), phases, barriers

where a **phase** is a thread-mapped nest::

    Ltx (mapped thread.x)
      Lty (mapped thread.y)
        ... per-thread loops and statements ...

Phases execute with an implicit barrier between them (the printer/codegen
makes it explicit).  Later transforms (loop_tiling, SM_alloc, Reg_alloc,
peel/padding/binding_triangular) navigate and rewrite this shape through
:class:`KernelStructure`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..ir.ast import Guard, Loop, Node, Stage, fresh_label
from .base import TransformError, TransformFailure

__all__ = [
    "KernelStructure",
    "make_phase",
    "phase_thread_vars",
    "phase_inner_body",
    "default_params",
    "require",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`TransformFailure` (detection failure) unless true."""
    if not condition:
        raise TransformFailure(message)


def default_params(params: Dict[str, int]) -> Dict[str, int]:
    """Fill in the standard tunable parameters (Volkov-style defaults)."""
    out = dict(params)
    out.setdefault("BM", 64)   # block tile rows
    out.setdefault("BN", 16)   # block tile cols
    out.setdefault("KT", 16)   # k (reduction) tile
    out.setdefault("TX", 16)   # threads along x
    out.setdefault("TY", 4)    # threads along y
    return out


def make_phase(
    body: Sequence[Node], tx_count: int, ty_count: int, kind: str = "compute"
) -> Loop:
    """Wrap ``body`` into a thread-mapped nest (the canonical phase shape).

    ``kind`` tags the phase's purpose ("compute", "copy", "regload",
    "regstore") in its label so later transforms and the performance model
    can tell data movement from arithmetic.
    """
    inner = Loop(
        "ty", 0, ty_count, list(body), label=fresh_label("Lty"), mapped_to="thread.y"
    )
    outer = Loop(
        "tx", 0, tx_count, [inner], label=fresh_label(f"Ltx@{kind}"), mapped_to="thread.x"
    )
    return outer


def phase_kind(phase: Loop) -> str:
    """The purpose tag a phase was created with (default "compute")."""
    if "@" in phase.label:
        return phase.label.split("@", 1)[1].split("_", 1)[0]
    return "compute"


def phase_thread_vars(phase: Loop) -> Tuple[str, str]:
    """Return (tx var, ty var) of a phase."""
    if phase.mapped_to != "thread.x":
        raise TransformError(f"{phase!r} is not a phase (thread.x expected)")
    inner = phase.body[0]
    if not isinstance(inner, Loop) or inner.mapped_to != "thread.y":
        raise TransformError(f"{phase!r} lacks a thread.y loop")
    return phase.var, inner.var


def phase_inner_body(phase: Loop) -> List[Node]:
    """The per-thread body list of a phase (inside both thread loops)."""
    inner = phase.body[0]
    if not isinstance(inner, Loop) or inner.mapped_to != "thread.y":
        raise TransformError(f"{phase!r} lacks a thread.y loop")
    return inner.body


class KernelStructure:
    """View over the canonical structure of a compute stage.

    Attributes:
        block_loops: outer block-mapped loops, outermost first (1 or 2).
        host: the innermost block loop (its ``body`` holds block-level items).
    """

    def __init__(self, stage: Stage):
        self.stage = stage
        self.block_loops: List[Loop] = []
        # Batch loops (a block.z grid level plus an optional serial BP
        # strip from batch_grid) sit above the x/y block loops; descend
        # through them so `host`/`items` keep meaning "the per-tile
        # block-level item list".
        batch_labels = tuple(stage.meta.get("batch_labels", ()))
        node_list = stage.body
        while (
            len(node_list) == 1
            and isinstance(node_list[0], Loop)
            and (
                node_list[0].mapped_to in ("block.x", "block.y", "block.z")
                or node_list[0].label in batch_labels
            )
        ):
            self.block_loops.append(node_list[0])
            node_list = node_list[0].body
        if not self.block_loops:
            raise TransformFailure("stage has no block-mapped loops (thread_grouping not applied)")

    @property
    def host(self) -> Loop:
        return self.block_loops[-1]

    @property
    def items(self) -> List[Node]:
        return self.host.body

    def block_vars(self) -> List[str]:
        return [loop.var for loop in self.block_loops]

    def _block_level_loops(self) -> List[Tuple[Loop, Tuple[Loop, ...]]]:
        """Loops of ``items`` that no mapped loop (within ``items``) encloses,
        preorder, each with the unmapped loops enclosing it, outermost
        first.  A clone of the stage lists them at the same positions."""
        out: List[Tuple[Loop, Tuple[Loop, ...]]] = []

        def visit(body: Sequence[Node], enclosing: Tuple[Loop, ...]) -> None:
            for node in body:
                if isinstance(node, Loop):
                    out.append((node, enclosing))
                    if node.mapped_to is None:
                        visit(node.body, enclosing + (node,))
                elif isinstance(node, Guard):
                    visit(node.body + node.else_body, enclosing)

        visit(self.items, ())
        return out

    def phases(self) -> List[Loop]:
        """All phases in block order, descending into sequential block loops."""
        return [lp for lp, _enclosing in self._block_level_loops() if lp.mapped_to == "thread.x"]

    def sequential_block_loops(self) -> List[Loop]:
        """Block-level sequential loops (kk tile loop, ibb row-block loop)."""
        return [lp for lp, _enclosing in self._block_level_loops() if lp.mapped_to is None]

    def compute_phases(self) -> List[Loop]:
        """Phases tagged as compute (excludes copy / register staging)."""
        return [phase for phase, _enclosing in self.scoped_compute_phases()]

    def scoped_compute_phases(self) -> List[Tuple[Loop, Tuple[Loop, ...]]]:
        """:meth:`compute_phases`, each with the block-level sequential
        loops enclosing it, outermost first: a transform can plan on its
        read-only input and apply the plan to a clone made afterwards,
        which lists its phases at the same positions."""
        return [
            (lp, enclosing)
            for lp, enclosing in self._block_level_loops()
            if lp.mapped_to == "thread.x" and phase_kind(lp) == "compute"
        ]
