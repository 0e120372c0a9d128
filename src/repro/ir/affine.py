"""Affine expressions over loop variables and symbolic problem dimensions.

The polyhedral pool of the EPOD translator operates on loop nests whose
bounds and subscripts are affine in the enclosing loop variables and the
symbolic problem sizes (M, N, K).  This module provides the small affine
algebra those transformations are written against:

* :class:`AffineExpr` — ``c0 + sum(ci * vi)`` with integer coefficients.
* :class:`MinExpr` / :class:`MaxExpr` — the only non-affine bound forms the
  BLAS3 nests need (they arise from tiling triangular iteration spaces).

Variables are plain strings.  By convention lower-case names (``i``, ``k``,
``ii``) are loop variables and upper-case names (``M``, ``N``, ``K``) are
problem-size symbols, but nothing in this module depends on that.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Mapping, Union

__all__ = [
    "AffineExpr",
    "MinExpr",
    "MaxExpr",
    "Bound",
    "aff",
    "const",
    "var",
    "bound_min",
    "bound_max",
]


class AffineExpr:
    """An affine expression ``const + Σ coeff[v] * v``.

    Immutable.  Zero coefficients are never stored, so two equal expressions
    always have identical internal dictionaries, which makes ``__eq__`` and
    ``__hash__`` structural.
    """

    __slots__ = ("terms", "offset", "_hash")

    def __init__(self, terms: Mapping[str, int] | None = None, offset: int = 0):
        clean: Dict[str, int] = {}
        if terms:
            for name, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient for {name!r} must be int, got {coeff!r}")
                if coeff != 0:
                    clean[name] = coeff
        if not isinstance(offset, int):
            raise TypeError(f"offset must be int, got {offset!r}")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("AffineExpr is immutable")

    def __reduce__(self):
        # Default slot-state pickling restores via setattr, which the
        # immutability guard rejects; rebuild through __init__ instead.
        # Without this, a translated Computation could not cross the
        # search pool's process boundary.
        return (AffineExpr, (dict(self.terms), self.offset))

    # -- constructors -----------------------------------------------------
    @staticmethod
    def _make(terms: Dict[str, int], offset: int) -> "AffineExpr":
        """An expression from already clean ``terms`` (int, nonzero
        coefficients; the dict is taken over) without re-checking them."""
        expr = object.__new__(AffineExpr)
        object.__setattr__(expr, "terms", terms)
        object.__setattr__(expr, "offset", offset)
        return expr

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return _interned_constant(value)

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        return _interned_variable(name)

    @staticmethod
    def coerce(value: "AffineLike") -> "AffineExpr":
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a valid affine operand")
        if isinstance(value, int):
            return AffineExpr.constant(value)
        if isinstance(value, str):
            return AffineExpr.variable(value)
        raise TypeError(f"cannot coerce {value!r} to AffineExpr")

    # -- queries -----------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.terms

    @property
    def constant_value(self) -> int:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.offset

    def free_vars(self) -> frozenset:
        return frozenset(self.terms)

    def coeff(self, name: str) -> int:
        return self.terms.get(name, 0)

    def depends_on(self, name: str) -> bool:
        return name in self.terms

    def is_single_var(self) -> bool:
        """True for expressions of the exact form ``v`` (coefficient 1, offset 0)."""
        return self.offset == 0 and len(self.terms) == 1 and next(iter(self.terms.values())) == 1

    def single_var(self) -> str:
        if not self.is_single_var():
            raise ValueError(f"{self} is not a bare variable")
        return next(iter(self.terms))

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "AffineLike") -> "AffineExpr":
        other = AffineExpr.coerce(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms, 1)
        return AffineExpr._make(terms, self.offset + other.offset)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr._make({n: -c for n, c in self.terms.items()}, -self.offset)

    def __sub__(self, other: "AffineLike") -> "AffineExpr":
        other = AffineExpr.coerce(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms, -1)
        return AffineExpr._make(terms, self.offset - other.offset)

    def __rsub__(self, other: "AffineLike") -> "AffineExpr":
        return AffineExpr.coerce(other) - self

    def __mul__(self, scalar: int) -> "AffineExpr":
        if not isinstance(scalar, int):
            raise TypeError("AffineExpr may only be scaled by an int")
        return AffineExpr({n: c * scalar for n, c in self.terms.items()}, self.offset * scalar)

    __rmul__ = __mul__

    def substitute(self, mapping: Mapping[str, "AffineLike"]) -> "AffineExpr":
        """Replace each variable in ``mapping`` by its (affine) value."""
        terms: Dict[str, int] = {}
        offset = self.offset
        for name, coeff in self.terms.items():
            if name in mapping:
                value = mapping[name]
                if not isinstance(value, AffineExpr):
                    value = AffineExpr.coerce(value)
                _accumulate(terms, value.terms, coeff)
                offset += value.offset * coeff
            else:
                _accumulate(terms, {name: coeff}, 1)
        return AffineExpr._make(terms, offset)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.offset
        for name, coeff in self.terms.items():
            try:
                total += coeff * env[name]
            except KeyError:
                raise KeyError(f"unbound variable {name!r} while evaluating {self}") from None
        return total

    # -- protocol ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineExpr)
            and self.terms == other.terms
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first hash of this expression: remember it
            value = hash((frozenset(self.terms.items()), self.offset))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        return f"AffineExpr({self})"

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.terms):
            coeff = self.terms[name]
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self.offset or not parts:
            parts.append(str(self.offset))
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


AffineLike = Union[AffineExpr, int, str]


# Expressions are immutable, so the constants and bare variables that
# transforms and the nest parser synthesise over and over are shared.
@lru_cache(maxsize=4096, typed=True)
def _interned_constant(value: int) -> AffineExpr:
    return AffineExpr({}, value)


@lru_cache(maxsize=4096)
def _interned_variable(name: str) -> AffineExpr:
    return AffineExpr({name: 1}, 0)


def _accumulate(terms: Dict[str, int], more: Mapping[str, int], scale: int) -> None:
    """Add ``scale * more`` into ``terms`` in place, dropping a term the
    moment it cancels (so a later one re-enters at the end, as it did
    when each addition built a new expression)."""
    for name, coeff in more.items():
        total = terms.get(name, 0) + coeff * scale
        if total:
            terms[name] = total
        else:
            terms.pop(name, None)


class _MinMaxExpr:
    """Common machinery for :class:`MinExpr` and :class:`MaxExpr`."""

    __slots__ = ("operands",)
    _pick = None  # min or max builtin, set by subclass
    _name = ""

    def __init__(self, operands: Iterable[AffineLike]):
        ops = tuple(AffineExpr.coerce(o) for o in operands)
        if len(ops) < 2:
            raise ValueError(f"{self._name} needs at least two operands")
        object.__setattr__(self, "operands", ops)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # See AffineExpr.__reduce__: the guard breaks slot-state pickling.
        return (type(self), (self.operands,))

    @property
    def is_constant(self) -> bool:
        return all(o.is_constant for o in self.operands)

    @property
    def constant_value(self) -> int:
        return type(self)._pick(o.constant_value for o in self.operands)

    def free_vars(self) -> frozenset:
        out: frozenset = frozenset()
        for o in self.operands:
            out |= o.free_vars()
        return out

    def depends_on(self, name: str) -> bool:
        return any(o.depends_on(name) for o in self.operands)

    def substitute(self, mapping: Mapping[str, AffineLike]):
        return simplify_bound(type(self)(o.substitute(mapping) for o in self.operands))

    def evaluate(self, env: Mapping[str, int]) -> int:
        return type(self)._pick(o.evaluate(env) for o in self.operands)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and set(self.operands) == set(other.operands)

    def __hash__(self) -> int:
        return hash((type(self).__name__, frozenset(self.operands)))

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        return f"{self._name}({', '.join(str(o) for o in self.operands)})"


class MinExpr(_MinMaxExpr):
    """``min(e1, e2, ...)`` — arises as the upper bound of tiled loops."""

    __slots__ = ()
    _pick = staticmethod(min)
    _name = "min"


class MaxExpr(_MinMaxExpr):
    """``max(e1, e2, ...)`` — arises as the lower bound of tiled loops."""

    __slots__ = ()
    _pick = staticmethod(max)
    _name = "max"


Bound = Union[AffineExpr, MinExpr, MaxExpr]


def simplify_bound(bound: Bound) -> Bound:
    """Collapse constant-redundant min/max operands where provable.

    Only two safe simplifications are applied: deduplication of equal
    operands, and a single-operand result degrading to that operand.
    """
    if isinstance(bound, AffineExpr):
        return bound
    seen = []
    for op in bound.operands:
        if op not in seen:
            seen.append(op)
    if len(seen) == 1:
        return seen[0]
    return type(bound)(seen)


# -- convenience constructors ---------------------------------------------

#: Coerce an int/str/AffineExpr into an :class:`AffineExpr`.
aff = AffineExpr.coerce


def const(value: int) -> AffineExpr:
    return AffineExpr.constant(value)


def var(name: str) -> AffineExpr:
    return AffineExpr.variable(name)


def bound_min(*operands: AffineLike) -> Bound:
    return simplify_bound(MinExpr(operands)) if len(operands) > 1 else aff(operands[0])


def bound_max(*operands: AffineLike) -> Bound:
    return simplify_bound(MaxExpr(operands)) if len(operands) > 1 else aff(operands[0])
