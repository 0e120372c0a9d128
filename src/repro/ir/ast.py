"""The polyhedral-lite loop-nest IR the EPOD translator transforms.

The IR mirrors what the paper's WRaP-IT/URUK layer exposes: labeled loop
nests with affine bounds (plus ``min``/``max`` forms produced by tiling),
statements whose array subscripts are affine, and enough annotation surface
for the traditional pool (storage classes, thread mappings, unroll factors,
guards for multi-versioned code).

Node kinds
----------
Expressions (statement right-hand sides):
    :class:`Const`, :class:`ScalarRef`, :class:`ArrayRef`, :class:`BinOp`,
    :class:`Neg`, :class:`Recip`.  These and the guard predicates
    (:class:`Cmp`, :class:`And`, :class:`Flag`) are immutable, so clones
    share them; statements, loops and containers are copied.
Statements:
    :class:`Assign` (``=``, ``+=``, ``-=``).
Structure:
    :class:`Loop` (optionally mapped to a CUDA grid/thread dimension and/or
    annotated with an unroll factor), :class:`Guard` (predicated region for
    padding/binding/multi-versioning), :class:`Barrier` (``__syncthreads``).
Containers:
    :class:`Array` (symbolic shape + storage class + layout + padding),
    :class:`Stage` (one kernel-to-be), :class:`Computation` (a routine:
    declarations plus an ordered list of stages).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .affine import AffineExpr, AffineLike, Bound, MaxExpr, MinExpr, aff

__all__ = [
    "Expr",
    "Const",
    "ScalarRef",
    "ArrayRef",
    "BinOp",
    "Neg",
    "Recip",
    "Assign",
    "Loop",
    "Guard",
    "Barrier",
    "Cmp",
    "And",
    "Flag",
    "Array",
    "Stage",
    "Computation",
    "Node",
    "Predicate",
    "GRID_DIMS",
    "THREAD_DIMS",
    "fresh_label",
]

GRID_DIMS = ("block.x", "block.y", "block.z")
THREAD_DIMS = ("thread.x", "thread.y")
_BOUNDS = (AffineExpr, MinExpr, MaxExpr)

_label_counter = itertools.count()


def fresh_label(prefix: str = "L") -> str:
    """Generate a unique loop label (used when transforms synthesise loops)."""
    return f"{prefix}_{next(_label_counter)}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_set = object.__setattr__


def _rebuild(cls, values):
    """Unpickle an immutable node: set its slots past the guard."""
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _set(node, name, value)
    return node


class _Immutable:
    """Base of the expression and predicate nodes.  Their fields are set
    once, in ``__init__``, like :class:`~repro.ir.affine.AffineExpr`'s:
    rewriting builds new nodes, so :meth:`clone` returns the node itself
    and a cloned computation shares every expression with its source."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Default slot-state pickling restores via setattr, which the
        # guard rejects (see AffineExpr.__reduce__).
        return (_rebuild, (type(self), tuple(getattr(self, n) for n in self.__slots__)))

    def clone(self):
        return self


class Expr(_Immutable):
    """Base class for statement right-hand-side expressions."""

    #: ``(array refs, flop count, uses division)`` of the expression,
    #: found by one walk on first use: clones share expressions, so every
    #: state of a search (and every profile of it) reads the one record
    __slots__ = ("_facts",)

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def map_refs(self, fn: Callable[["ArrayRef"], "ArrayRef"]) -> "Expr":
        """This expression with every :class:`ArrayRef` replaced by ``fn`` of
        it; the expression itself when ``fn`` returns every ref unchanged."""
        return self

    def _summary(self) -> Tuple[Tuple["ArrayRef", ...], int, bool]:
        try:
            return self._facts
        except AttributeError:
            pass
        refs: List[ArrayRef] = []
        flops = 0
        division = False
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ArrayRef):
                refs.append(node)
            elif isinstance(node, (BinOp, Neg, Recip)):
                flops += 1
                division = division or isinstance(node, Recip) or (
                    isinstance(node, BinOp) and node.op == "/"
                )
            stack.extend(node.children())
        facts = (tuple(refs), flops, division)
        _set(self, "_facts", facts)
        return facts

    def array_refs(self) -> List["ArrayRef"]:
        return list(self._summary()[0])

    def uses_division(self) -> bool:
        """Whether evaluating the expression divides (a ``/`` or a
        :class:`Recip` anywhere in it)."""
        return self._summary()[2]

    def flop_count(self) -> int:
        """Number of floating-point operations in one evaluation."""
        return self._summary()[1]


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", float(value))

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self):
        return hash(("Const", self.value))

    def __repr__(self):
        return f"Const({self.value})"


class ScalarRef(Expr):
    """Reference to a runtime scalar parameter (e.g. ``alpha``, ``beta``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __eq__(self, other):
        return isinstance(other, ScalarRef) and self.name == other.name

    def __hash__(self):
        return hash(("ScalarRef", self.name))

    def __repr__(self):
        return f"ScalarRef({self.name!r})"


class ArrayRef(Expr):
    """``array[idx0][idx1]...`` with affine subscripts.

    ``region`` is developer-supplied metadata for symmetric-storage
    accesses — the paper's ``// for real area`` / ``// for shadow area``
    comments: ``GM_map(X, Symmetry)`` rewrites shadow references with
    swapped subscripts.  It does not participate in equality.
    """

    __slots__ = ("array", "indices", "region", "_vars")

    def __init__(self, array: str, indices: Sequence[AffineLike], region: Optional[str] = None):
        if region not in (None, "real", "shadow", "diag"):
            raise ValueError(f"unknown access region {region!r}")
        _set(self, "array", array)
        indices = [i if isinstance(i, AffineExpr) else aff(i) for i in indices]
        _set(self, "indices", tuple(indices))
        _set(self, "region", region)

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "ArrayRef":
        return ArrayRef(
            self.array, tuple(i.substitute(mapping) for i in self.indices), self.region
        )

    def map_refs(self, fn: Callable[["ArrayRef"], "ArrayRef"]) -> "ArrayRef":
        return fn(self)

    def index_vars(self) -> frozenset:
        """The variables the subscripts read (found once per reference)."""
        try:
            return self._vars
        except AttributeError:
            names = frozenset(name for idx in self.indices for name in idx.terms)
            _set(self, "_vars", names)
            return names

    def __reduce__(self):
        return (ArrayRef, (self.array, self.indices, self.region))

    def __eq__(self, other):
        return (
            isinstance(other, ArrayRef)
            and self.array == other.array
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash(("ArrayRef", self.array, self.indices))

    def __repr__(self):
        idx = "".join(f"[{i}]" for i in self.indices)
        return f"{self.array}{idx}"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")
    OPS = ("+", "-", "*", "/")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self.OPS:
            raise ValueError(f"unsupported operator {op!r}")
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def map_refs(self, fn: Callable[[ArrayRef], ArrayRef]) -> "BinOp":
        left, right = self.left.map_refs(fn), self.right.map_refs(fn)
        if left is self.left and right is self.right:
            return self
        return BinOp(self.op, left, right)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __eq__(self, other):
        return (
            isinstance(other, BinOp)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("BinOp", self.op, self.left, self.right))

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        _set(self, "operand", operand)

    def map_refs(self, fn: Callable[[ArrayRef], ArrayRef]) -> "Neg":
        operand = self.operand.map_refs(fn)
        return self if operand is self.operand else Neg(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __eq__(self, other):
        return isinstance(other, Neg) and self.operand == other.operand

    def __hash__(self):
        return hash(("Neg", self.operand))

    def __repr__(self):
        return f"(-{self.operand!r})"


class Recip(Expr):
    """``1 / operand`` — needed by TRSM's diagonal division."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        _set(self, "operand", operand)

    def map_refs(self, fn: Callable[[ArrayRef], ArrayRef]) -> "Recip":
        operand = self.operand.map_refs(fn)
        return self if operand is self.operand else Recip(operand)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __eq__(self, other):
        return isinstance(other, Recip) and self.operand == other.operand

    def __hash__(self):
        return hash(("Recip", self.operand))

    def __repr__(self):
        return f"(1/{self.operand!r})"


# ---------------------------------------------------------------------------
# Predicates (for Guard nodes)
# ---------------------------------------------------------------------------


class Predicate(_Immutable):
    __slots__ = ()


class Cmp(Predicate):
    """``lhs OP rhs`` over affine expressions (loop/thread variables)."""

    __slots__ = ("lhs", "op", "rhs")
    OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __init__(self, lhs: AffineLike, op: str, rhs: AffineLike):
        if op not in self.OPS:
            raise ValueError(f"unsupported comparison {op!r}")
        _set(self, "lhs", aff(lhs))
        _set(self, "op", op)
        _set(self, "rhs", aff(rhs))

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Cmp":
        return Cmp(self.lhs.substitute(mapping), self.op, self.rhs.substitute(mapping))

    def evaluate(self, env: Mapping[str, int]) -> bool:
        a, b = self.lhs.evaluate(env), self.rhs.evaluate(env)
        return {
            "==": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[self.op]

    def __repr__(self):
        return f"({self.lhs} {self.op} {self.rhs})"


class And(Predicate):
    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[Predicate]):
        operands = tuple(operands)
        if not operands:
            raise ValueError("And needs at least one operand")
        _set(self, "operands", operands)

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "And":
        return And(o.substitute(mapping) for o in self.operands)

    def __repr__(self):
        return " && ".join(repr(o) for o in self.operands)


class Flag(Predicate):
    """A runtime boolean flag (e.g. ``blank_zero`` for multi-versioned code)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Flag":
        return self

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# Statements and structure
# ---------------------------------------------------------------------------


class Assign:
    """``target op= expr`` where ``op`` ∈ {``=``, ``+=``, ``-=``}."""

    __slots__ = ("target", "expr", "op", "label")
    OPS = ("=", "+=", "-=")

    def __init__(self, target: ArrayRef, expr: Expr, op: str = "=", label: Optional[str] = None):
        if op not in self.OPS:
            raise ValueError(f"unsupported assignment operator {op!r}")
        self.target = target
        self.expr = expr
        self.op = op
        self.label = label

    def clone(self) -> "Assign":
        stmt = object.__new__(Assign)
        stmt.target, stmt.expr, stmt.op, stmt.label = self.target, self.expr, self.op, self.label
        return stmt

    def reads(self) -> List[ArrayRef]:
        refs = self.expr.array_refs()
        if self.op in ("+=", "-="):
            refs.append(self.target)
        return refs

    def writes(self) -> List[ArrayRef]:
        return [self.target]

    def all_refs(self) -> List[ArrayRef]:
        return self.expr.array_refs() + [self.target]

    def map_refs(self, fn: Callable[[ArrayRef], ArrayRef]) -> "Assign":
        """A new statement with ``fn`` applied to the target and to every
        :class:`ArrayRef` of the expression."""
        return Assign(fn(self.target), self.expr.map_refs(fn), self.op, self.label)

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Assign":
        return self.map_refs(lambda ref: ref.substitute(mapping))

    def flop_count(self) -> int:
        return self.expr.flop_count() + (1 if self.op in ("+=", "-=") else 0)

    def __repr__(self):
        return f"{self.target!r} {self.op} {self.expr!r}"


class Loop:
    """``for (var = lower; var < upper; var += step)`` with a label.

    ``mapped_to`` marks the loop as distributed over a CUDA grid/thread
    dimension by ``thread_grouping`` — the loop variable then *is* the
    (scaled) block/thread index.  ``unroll`` is a code-generation annotation
    set by ``loop_unroll``; it does not change semantics.
    ``sequential_marker`` is set by ``binding_triangular`` to record that the
    loop body must execute in a single thread.
    """

    __slots__ = ("var", "lower", "upper", "step", "body", "label", "mapped_to", "unroll")

    def __init__(
        self,
        var: str,
        lower: Union[Bound, int, str],
        upper: Union[Bound, int, str],
        body: Sequence["Node"],
        label: Optional[str] = None,
        step: int = 1,
        mapped_to: Optional[str] = None,
        unroll: int = 1,
    ):
        if step < 1:
            raise ValueError("step must be >= 1")
        self.var = var
        self.lower = lower if isinstance(lower, _BOUNDS) else aff(lower)
        self.upper = upper if isinstance(upper, _BOUNDS) else aff(upper)
        self.step = step
        self.body: List[Node] = list(body)
        self.label = label or fresh_label()
        if mapped_to is not None and mapped_to not in GRID_DIMS + THREAD_DIMS:
            raise ValueError(f"unknown mapping target {mapped_to!r}")
        self.mapped_to = mapped_to
        self.unroll = unroll

    def _copy(self, lower: Bound, upper: Bound, body: List["Node"]) -> "Loop":
        """This loop with other bounds and body; the bounds are already
        :data:`Bound` values, so the constructor's coercion is skipped."""
        loop = object.__new__(Loop)
        loop.var, loop.lower, loop.upper, loop.step = self.var, lower, upper, self.step
        loop.body, loop.label = body, self.label
        loop.mapped_to, loop.unroll = self.mapped_to, self.unroll
        return loop

    def clone(self) -> "Loop":
        loop = object.__new__(Loop)
        loop.var, loop.lower, loop.upper, loop.step = self.var, self.lower, self.upper, self.step
        loop.body = [child.clone() for child in self.body]
        loop.label, loop.mapped_to, loop.unroll = self.label, self.mapped_to, self.unroll
        return loop

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Loop":
        """A copy with ``mapping`` applied, except where the body rebinds ``var``."""
        inner = {name: value for name, value in mapping.items() if name != self.var}
        return self._copy(
            self.lower.substitute(mapping),
            self.upper.substitute(mapping),
            [child.substitute(inner) for child in self.body],
        )

    def trip_count(self) -> Optional[int]:
        """Constant trip count if bounds are constant, else ``None``."""
        if self.lower.is_constant and self.upper.is_constant:
            span = self.upper.constant_value - self.lower.constant_value
            return max(0, -(-span // self.step))
        return None

    def is_rectangular(self, outer_vars: Iterable[str]) -> bool:
        """True when the bounds do not depend on any enclosing loop variable."""
        outer = set(outer_vars)
        return not (self.lower.free_vars() & outer) and not (self.upper.free_vars() & outer)

    def __repr__(self):
        head = f"Loop[{self.label}] {self.var} in [{self.lower}, {self.upper})"
        if self.step != 1:
            head += f" step {self.step}"
        if self.mapped_to:
            head += f" -> {self.mapped_to}"
        if self.unroll > 1:
            head += f" unroll {self.unroll}"
        return head


class Guard:
    """Predicated region; ``else_body`` supports multi-versioned code."""

    __slots__ = ("cond", "body", "else_body", "note")

    def __init__(
        self,
        cond: Predicate,
        body: Sequence["Node"],
        else_body: Sequence["Node"] = (),
        note: str = "",
    ):
        self.cond = cond
        self.body: List[Node] = list(body)
        self.else_body: List[Node] = list(else_body)
        self.note = note

    def clone(self) -> "Guard":
        return Guard(
            self.cond,
            [n.clone() for n in self.body],
            [n.clone() for n in self.else_body],
            self.note,
        )

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Guard":
        return Guard(
            self.cond.substitute(mapping),
            [n.substitute(mapping) for n in self.body],
            [n.substitute(mapping) for n in self.else_body],
            self.note,
        )

    def __repr__(self):
        return f"Guard({self.cond!r})"


class Barrier:
    """A ``__syncthreads()`` point, inserted by SM_alloc's data movement."""

    __slots__ = ("note",)

    def __init__(self, note: str = ""):
        self.note = note

    def clone(self) -> "Barrier":
        return Barrier(self.note)

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Barrier":
        return self.clone()

    def __repr__(self):
        return "Barrier()"


Node = Union[Loop, Assign, Guard, Barrier]


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

STORAGE_CLASSES = ("global", "shared", "register")
LAYOUTS = ("col", "row")


@dataclass(frozen=True)
class Array:
    """Declaration of an array visible to a computation.

    ``dims`` are symbolic sizes (affine in the problem-size symbols).
    ``layout`` follows BLAS convention: ``col`` means the *first* subscript
    is the contiguous (stride-1) one.  ``pad`` extends the minor dimension of
    shared arrays to dodge bank conflicts.  ``zero_blank`` records the
    ``blank(X).zero`` property Adaptor_Triangular's padding rule requires.
    ``triangular``/``symmetric`` record structural facts used by detection
    steps ("lower"/"upper"/None). ``unit_diag`` marks unit-diagonal
    triangular matrices.
    """

    name: str
    dims: Tuple[AffineExpr, ...]
    storage: str = "global"
    layout: str = "col"
    pad: int = 0
    dtype: str = "float32"
    symmetric: Optional[str] = None
    triangular: Optional[str] = None
    unit_diag: bool = False
    zero_blank: bool = False
    source: Optional[str] = None  # for derived arrays: name of the origin

    def __post_init__(self):
        if self.storage not in STORAGE_CLASSES:
            raise ValueError(f"unknown storage class {self.storage!r}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        object.__setattr__(self, "dims", tuple(aff(d) for d in self.dims))

    def with_(self, **kwargs) -> "Array":
        return replace(self, **kwargs)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class Stage:
    """One kernel-to-be: a loop nest plus stage-local shared/register arrays.

    ``GM_map`` prepends a data-remapping stage in front of the main compute
    stage; each stage becomes a separate CUDA kernel launch.
    """

    name: str
    body: List[Node]
    role: str = "compute"  # "compute" | "remap" | "check"
    # Structural metadata recorded by transforms (e.g. thread_grouping's
    # index decomposition) and consumed by later ones (binding_triangular).
    meta: Dict[str, object] = field(default_factory=dict)

    def clone(self) -> "Stage":
        return Stage(self.name, [n.clone() for n in self.body], self.role, dict(self.meta))

    def loops(self) -> List[Loop]:
        """All loops in the stage, preorder."""
        from .visitors import iter_loops  # visitors imports this module

        return list(iter_loops(self.body))


@dataclass
class Computation:
    """A whole routine: symbol declarations plus an ordered list of stages."""

    name: str
    arrays: Dict[str, Array]
    stages: List[Stage]
    scalars: Tuple[str, ...] = ("alpha", "beta")
    dim_symbols: Tuple[str, ...] = ("M", "N", "K")
    flags: Dict[str, bool] = field(default_factory=dict)
    # Tunable optimization parameters (tile sizes, thread-block shape, ...),
    # filled in by thread_grouping/loop_tiling and swept by the auto-tuner.
    params: Dict[str, int] = field(default_factory=dict)

    def clone(self) -> "Computation":
        return Computation(
            self.name,
            dict(self.arrays),
            [s.clone() for s in self.stages],
            self.scalars,
            self.dim_symbols,
            dict(self.flags),
            dict(self.params),
        )

    @property
    def main_stage(self) -> Stage:
        for stage in self.stages:
            if stage.role == "compute":
                return stage
        raise ValueError(f"computation {self.name!r} has no compute stage")

    def add_array(self, array: Array) -> None:
        if array.name in self.arrays:
            raise ValueError(f"array {array.name!r} already declared")
        self.arrays[array.name] = array

    def array(self, name: str) -> Array:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"unknown array {name!r} in {self.name}") from None

    def find_loop(self, label: str) -> Loop:
        for stage in self.stages:
            for loop in stage.loops():
                if loop.label == label:
                    return loop
        raise KeyError(f"no loop labeled {label!r} in {self.name}")
