"""``format_iteration`` — remove mixed-mode accesses to symmetric matrices.

Paper §IV-A.2, three steps:

1. **Loop fission** splits the reduction loop so each of the real-area /
   shadow-area accesses gets its own loop (the diagonal access already
   stands alone).
2. **Triangular interchange**: a fissioned loop that traverses the matrix
   in column-major order (inner variable in the first subscript) has its
   two triangular loop dimensions interchanged — ``(i, k) : k < i`` becomes
   ``(i, k) : k > i`` with the statement's variables swapped — turning the
   traversal row-major.  The interchange is only kept when it makes the
   statement identical to the real-area statement (that is what enables
   step 3); reductions commute, so reordering accumulations is legal.
3. **Loop fusion** merges adjacent loops (and the diagonal statement)
   whose statements are identical and whose domains exactly partition a
   contiguous interval — producing the standard GEMM-NN nest.

When fusion is impossible (rule 3 of Adaptor_Symmetry: no GM_map ran, the
statements differ) the component "degenerates into a simple loop fission",
exactly as the paper specifies — it does not fail.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.affine import AffineExpr, var
from ..ir.ast import Assign, Computation, Loop, Node, fresh_label
from ..ir.visitors import iter_loops, locate
from .base import (
    POOL_POLYHEDRAL,
    Transform,
    TransformError,
    TransformFailure,
    TransformResult,
)
from .gm_map import derived_names
from .util import require

__all__ = ["FormatIteration"]


def _stmt_equal(a: Assign, b: Assign) -> bool:
    return a.op == b.op and a.target == b.target and a.expr == b.expr


class FormatIteration(Transform):
    name = "format_iteration"
    pool = POOL_POLYHEDRAL
    returns = 0

    def apply(self, comp: Computation, args: Sequence[str], params: Dict[str, int]) -> TransformResult:
        if len(args) != 2:
            raise TransformError(f"format_iteration expects (array, mode), got {args}")
        target, mode = args
        if mode != "Symmetry":
            raise TransformError(f"format_iteration supports Symmetry, got {mode!r}")
        comp = comp.clone()
        stage = comp.main_stage
        require(
            not stage.meta.get("grouped"),
            "format_iteration operates on the un-grouped loop nest",
        )
        names = set(derived_names(comp, target))

        # -- locate the mixed-mode reduction loop --------------------------
        kloop = self._find_mixed_loop(stage.body, names)
        outer_loops, parent_body, pos = locate(stage.body, kloop)
        notes: List[str] = []

        # -- step 1: fission ------------------------------------------------
        pieces: List[Loop] = []
        for idx, stmt in enumerate(kloop.body):
            if not isinstance(stmt, Assign):
                raise TransformFailure(
                    "mixed-mode loop contains non-statement nodes; fission fails"
                )
            label = kloop.label if idx == 0 else fresh_label(kloop.label)
            pieces.append(
                Loop(kloop.var, kloop.lower, kloop.upper, [stmt], label=label, step=kloop.step)
            )
        parent_body[pos : pos + 1] = pieces
        notes.append(f"fission: {len(pieces)} loops")

        # -- step 2: triangular interchange ---------------------------------
        reference = self._reference_stmt(pieces, names)
        for piece in pieces:
            stmt = piece.body[0]
            if _stmt_equal(stmt, reference):
                continue
            swapped = self._try_interchange(piece, outer_loops)
            if swapped is not None and _stmt_equal(swapped.body[0], reference):
                piece.lower = swapped.lower
                piece.upper = swapped.upper
                piece.body = swapped.body
                notes.append(f"interchange: {piece.label}")

        # -- step 3: fusion --------------------------------------------------
        fused = self._try_fuse(parent_body, pieces, names)
        notes.append("fusion: ok" if fused else "fusion: failed (degenerates to fission)")
        return TransformResult(comp, notes=notes)

    # ------------------------------------------------------------------
    def _find_mixed_loop(self, body: Sequence[Node], names: set) -> Loop:
        for node in iter_loops(body):
            stmts = [c for c in node.body if isinstance(c, Assign)]
            regions = {
                r.region
                for s in stmts
                for r in s.all_refs()
                if r.array in names and r.region
            }
            if len(stmts) >= 2 and {"real", "shadow"} <= regions:
                return node
        raise TransformFailure("no mixed-mode (real+shadow) reduction loop found")

    @staticmethod
    def _reference_stmt(pieces: List[Loop], names: set) -> Assign:
        """The statement the others should be interchanged to match.

        The canonical accumulation is the one whose *target* does not move
        with the reduction variable (it writes the (i, j) cell the loop
        nest is centred on); which of real/shadow that is depends on the
        storage side (lower vs upper), so the target test is the robust
        criterion.
        """
        for piece in pieces:
            stmt = piece.body[0]
            if not any(idx.depends_on(piece.var) for idx in stmt.target.indices):
                return stmt
        for piece in pieces:
            stmt = piece.body[0]
            for ref in stmt.all_refs():
                if ref.array in names and ref.region == "real":
                    return stmt
        return pieces[0].body[0]

    # ------------------------------------------------------------------
    def _try_interchange(self, piece: Loop, outer_loops: Sequence[Loop]) -> Optional[Loop]:
        """Interchange the triangular (outer, k) pair of ``piece``.

        Requires ``k ∈ [0, v + c)`` with ``v`` an enclosing loop variable and
        the enclosing loop rectangular ``v ∈ [0, U)``; produces
        ``k ∈ [v + 1 - c, U)`` with the statement's ``v``/``k`` swapped.
        Only reductions (``+=`` / ``-=``) may be reordered.
        """
        stmt = piece.body[0]
        if stmt.op not in ("+=", "-="):
            return None
        if not isinstance(piece.upper, AffineExpr) or not isinstance(piece.lower, AffineExpr):
            return None
        if not (piece.lower.is_constant and piece.lower.constant_value == 0):
            return None
        outer_vars = {lp.var: lp for lp in outer_loops}
        dep_vars = [v for v in piece.upper.free_vars() if v in outer_vars]
        if len(dep_vars) != 1:
            return None
        v = dep_vars[0]
        if piece.upper.coeff(v) != 1:
            return None
        c = piece.upper - var(v)
        if not c.is_constant:
            return None
        outer = outer_vars[v]
        if not isinstance(outer.upper, AffineExpr) or not (
            isinstance(outer.lower, AffineExpr)
            and outer.lower.is_constant
            and outer.lower.constant_value == 0
        ):
            return None
        new_lower = var(v) + (1 - c.constant_value)
        new_upper = outer.upper
        new_stmt = stmt.substitute({v: var(piece.var), piece.var: var(v)})
        return Loop(
            piece.var, new_lower, new_upper, [new_stmt], label=piece.label, step=piece.step
        )

    # ------------------------------------------------------------------
    def _try_fuse(self, parent_body: List[Node], pieces: List[Loop], names: set) -> bool:
        """Fuse pieces (plus an adjacent diagonal statement) whose statements
        are identical and whose domains partition a contiguous interval."""
        # Collect candidate segments: the fissioned loops plus any sibling
        # diagonal statements in the same body.
        segments: List[Tuple[object, AffineExpr, AffineExpr, Assign]] = []
        ref_stmt = pieces[0].body[0]
        kvar = pieces[0].var
        for node in list(parent_body):
            if isinstance(node, Loop) and node in pieces:
                if len(node.body) != 1 or not isinstance(node.body[0], Assign):
                    return False
                if not isinstance(node.lower, AffineExpr) or not isinstance(
                    node.upper, AffineExpr
                ):
                    return False
                segments.append((node, node.lower, node.upper, node.body[0]))
            elif isinstance(node, Assign):
                # A diagonal statement: equivalent to one loop iteration at
                # some point p — recover p by matching against the reference.
                p = self._match_point(ref_stmt, node, kvar)
                if p is not None:
                    segments.append((node, p, p + 1, ref_stmt.substitute({})))
        if len(segments) < 2:
            return False

        # All loop statements must be identical (modulo the loop variable).
        for _node, _lo, _up, stmt in segments:
            if isinstance(_node, Loop) and not _stmt_equal(stmt, ref_stmt):
                return False

        # Chain the intervals greedily starting from lower == 0.
        remaining = list(segments)
        start = next(
            (s for s in remaining if s[1].is_constant and s[1].constant_value == 0),
            None,
        )
        if start is None:
            return False
        chain = [start]
        remaining.remove(start)
        end = start[2]
        while remaining:
            nxt = next((s for s in remaining if s[1] == end), None)
            if nxt is None:
                break
            chain.append(nxt)
            remaining.remove(nxt)
            end = nxt[2]
        if remaining:
            return False

        fused = Loop(kvar, 0, end, [ref_stmt.clone()], label=pieces[0].label)
        first_idx = min(parent_body.index(s[0]) for s in chain)
        for s in chain:
            parent_body.remove(s[0])
        parent_body.insert(first_idx, fused)
        return True

    @staticmethod
    def _match_point(ref_stmt: Assign, stmt: Assign, kvar: str) -> Optional[AffineExpr]:
        """If ``stmt`` equals ``ref_stmt`` with ``kvar := p``, return ``p``.

        The diagonal statements in BLAS3 are always ``k := i`` instances, so
        try the variables appearing in the statement as candidates.
        """
        candidates = set()
        for ref in stmt.all_refs():
            for idx in ref.indices:
                candidates |= set(idx.free_vars())
        for name in sorted(candidates):
            p = var(name)
            if _stmt_equal(ref_stmt.substitute({kvar: p}), stmt):
                return p
        return None
