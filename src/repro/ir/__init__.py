"""Polyhedral-lite loop-nest IR (the substrate the EPOD translator rewrites).

Public surface:

* :mod:`repro.ir.affine` — affine expressions and min/max bounds.
* :mod:`repro.ir.ast` — loops, statements, guards, arrays, computations.
* :mod:`repro.ir.builder` — programmatic builders and the labeled-source
  parser used to write routines the way the paper prints them.
* :mod:`repro.ir.printer` — C-like pretty printer.
* :mod:`repro.ir.dependence` — PolyDeps-like dependence analysis: which
  loops carry a dependence, and whether a reordering keeps each cell's
  accesses in order.
* :mod:`repro.ir.fingerprint` — label-free structural encoding (JIT and
  dependence-memo key).
* :mod:`repro.ir.interpret` — sequential functional oracle.
* :mod:`repro.ir.validate` — structural invariants.
"""

from .affine import AffineExpr, Bound, MaxExpr, MinExpr, aff, bound_max, bound_min, const, var
from .ast import (
    And,
    Array,
    ArrayRef,
    Assign,
    Barrier,
    BinOp,
    Cmp,
    Computation,
    Const,
    Expr,
    Flag,
    GRID_DIMS,
    Guard,
    Loop,
    Neg,
    Node,
    Predicate,
    Recip,
    ScalarRef,
    Stage,
    THREAD_DIMS,
    fresh_label,
)
from .builder import (
    ParseError,
    build_computation,
    parse_affine,
    parse_expr,
    parse_labeled_source,
)
from .dependence import carrying_loops, fusion_legal, interchange_legal
from .interpret import allocate_arrays, interpret
from .printer import print_body, print_computation, print_stage, print_stmt
from .rename import rename_computation
from .validate import ValidationError, validate

__all__ = [
    # affine
    "AffineExpr",
    "Bound",
    "MaxExpr",
    "MinExpr",
    "aff",
    "bound_max",
    "bound_min",
    "const",
    "var",
    # ast
    "And",
    "Array",
    "ArrayRef",
    "Assign",
    "Barrier",
    "BinOp",
    "Cmp",
    "Computation",
    "Const",
    "Expr",
    "Flag",
    "GRID_DIMS",
    "Guard",
    "Loop",
    "Neg",
    "Node",
    "Predicate",
    "Recip",
    "ScalarRef",
    "Stage",
    "THREAD_DIMS",
    "fresh_label",
    # builder
    "ParseError",
    "build_computation",
    "parse_affine",
    "parse_expr",
    "parse_labeled_source",
    # dependence
    "carrying_loops",
    "fusion_legal",
    "interchange_legal",
    # interpret
    "allocate_arrays",
    "interpret",
    # rename
    "rename_computation",
    # printer
    "print_body",
    "print_computation",
    "print_stage",
    "print_stmt",
    # validate
    "ValidationError",
    "validate",
]
