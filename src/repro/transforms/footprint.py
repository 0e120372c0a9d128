"""Affine range / footprint analysis over the canonical kernel structure.

Used by ``loop_tiling`` (to hoist a reduction-tile loop to block level it
must bound the reduction range over all threads) and by ``SM_alloc`` (to
size the shared-memory tile and synthesise the copy-in loops): given an
affine subscript and the ranges of the "local" variables (thread indices
and intra-tile loop variables), split it into

    subscript = base + local,   local ∈ [0, span]

where ``base`` is affine in the remaining (block-level) variables and
``span`` is a compile-time constant.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from ..ir.affine import AffineExpr, Bound, MaxExpr, MinExpr
from ..ir.ast import Loop
from .base import TransformFailure

__all__ = [
    "VarRange",
    "collect_var_ranges",
    "const_difference",
    "split_base_span",
    "max_over",
    "min_over",
]


class VarRange(NamedTuple):
    """A loop variable's range: ``value = lower + delta*step, delta ∈ [0, trip)``."""

    lower: AffineExpr  # may reference block-level variables
    trip: int
    step: int

    @property
    def span(self) -> int:
        """Largest offset above ``lower`` the variable can reach."""
        return (self.trip - 1) * self.step


def const_difference(upper: AffineExpr, lower: AffineExpr) -> Optional[int]:
    """``upper - lower`` when it is a compile-time constant, else ``None``
    (the two expressions then have equal variable terms)."""
    return upper.offset - lower.offset if upper.terms == lower.terms else None


def _const_trip(loop: Loop) -> Optional[int]:
    """Trip count when (upper - lower) is constant (bounds may be affine)."""
    if isinstance(loop.lower, (MinExpr, MaxExpr)) or isinstance(
        loop.upper, (MinExpr, MaxExpr)
    ):
        return None
    diff = const_difference(loop.upper, loop.lower)
    if diff is None:
        return None
    return max(0, -(-diff // loop.step))


def _bound_candidates(bound: Bound) -> Sequence[AffineExpr]:
    if isinstance(bound, (MinExpr, MaxExpr)):
        return bound.operands
    return (bound,)


def max_trip(loop: Loop) -> Optional[int]:
    """Compile-time *upper bound* on the trip count.

    For a min-bounded upper (``min(kk+KT, i+1)``) any constant-difference
    candidate bounds the trip from above; the smallest such bound is
    returned.  ``None`` when no candidate pair has a constant difference.
    """
    best: Optional[int] = None
    for lo in _bound_candidates(loop.lower):
        for up in _bound_candidates(loop.upper):
            diff = const_difference(up, lo)
            if diff is not None:
                trip = max(0, -(-diff // loop.step))
                best = trip if best is None else min(best, trip)
    return best


def _range_lower(loop: Loop) -> AffineExpr:
    """A safe affine lower base for the loop variable.

    For a ``max``-bounded lower, prefer the single non-constant operand
    (e.g. ``max(0, kk)`` → ``kk``); using an operand can only *undershoot*
    the true minimum, which enlarges the modeled footprint — safe.
    """
    lower = loop.lower
    if isinstance(lower, AffineExpr):
        return lower
    if isinstance(lower, MaxExpr):
        nonconst = [op for op in lower.operands if not op.is_constant]
        if len(nonconst) == 1:
            return nonconst[0]
        if nonconst:
            # Several candidates (e.g. max(i+1, kk)): prefer the bare tile
            # base — any operand only *undershoots* the true minimum, which
            # merely enlarges the modeled footprint (safe superset).
            bare = [op for op in nonconst if op.is_single_var()]
            if bare:
                return bare[0]
            return min(nonconst, key=lambda e: len(e.terms))
        consts = [op for op in lower.operands if op.is_constant]
        if consts:
            return max(consts, key=lambda e: e.constant_value)
    raise TransformFailure(f"loop {loop.label}: cannot derive affine lower base")


def collect_var_ranges(
    loops: Sequence[Loop], optimistic: bool = False
) -> Dict[str, VarRange]:
    """Var ranges for a chain of loops with constant trip counts.

    With ``optimistic=True``, min/max bounds are tolerated: the trip count
    becomes a compile-time *upper bound* (the footprint is a superset of
    the touched region — safe for sizing and copy generation).

    Raises :class:`TransformFailure` when a loop's trip count cannot be
    bounded at compile time.
    """
    out: Dict[str, VarRange] = {}
    for loop in loops:
        trip = max_trip(loop) if optimistic else _const_trip(loop)
        if trip is None:
            raise TransformFailure(
                f"loop {loop.label} ({loop.var}) has a non-constant trip count"
            )
        lower = _range_lower(loop) if optimistic else loop.lower
        if not isinstance(lower, AffineExpr):
            raise TransformFailure(
                f"loop {loop.label} ({loop.var}) has a non-affine lower bound"
            )
        out[loop.var] = VarRange(lower, trip, loop.step)
    return out


def split_base_span(
    expr: AffineExpr, local: Dict[str, VarRange]
) -> Tuple[AffineExpr, int]:
    """Split ``expr`` into (base, span) over the local-variable box.

    ``base`` is ``expr`` with each local variable replaced by its lower
    bound; ``span`` bounds ``expr - base`` from above (assuming non-negative
    travel, i.e. positive coefficients; negative coefficients shift the base
    down instead so the result range is still [base, base+span]).
    """
    base = expr
    span = 0
    for name, coeff in list(expr.terms.items()):
        if name not in local:
            continue
        rng = local[name]
        # Substituting v -> lower removes the local var from base.
        base = base.substitute({name: rng.lower})
        travel = coeff * rng.span
        if travel >= 0:
            span += travel
        else:
            base = base + travel  # variable moves the index downward
            span += -travel
    # base may still contain local vars transitively through lower bounds —
    # recurse until fixed point (e.g. inner k's lower bound is `kk`).
    if any(name in local for name in base.terms):
        inner_base, inner_span = split_base_span(base, local)
        return inner_base, span + inner_span
    return base, span


def max_over(expr: AffineExpr, local: Dict[str, VarRange]) -> AffineExpr:
    """Upper bound (inclusive) of ``expr`` over the local box, as an affine
    expression in the remaining variables."""
    base, span = split_base_span(expr, local)
    return base + span


def min_over(expr: AffineExpr, local: Dict[str, VarRange]) -> AffineExpr:
    base, _span = split_base_span(expr, local)
    return base
