"""The EPOD translator: apply a script's optimization scheme to a routine.

Mirrors Fig. 2's flow for our substrate: the labeled source (already parsed
into the loop-nest IR) is rewritten component by component in script order.
Each component is resolved from the two pools
(:mod:`repro.transforms.registry`), its script-level arguments are resolved
through the label environment built up by earlier tuple-assignments, and
its result labels are bound for later invocations.

Two failure disciplines:

* ``strict`` — a :class:`TransformFailure` aborts translation (used when a
  developer runs a hand-written script).
* ``filter`` — the failing component is *omitted* and translation continues
  (§IV-B.2: "If a specific constraint for some component is not satisfied,
  then the corresponding component is omitted"), which is how composed
  sequences degenerate.  The omitted invocations are reported so the
  composer can deduplicate degenerate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir.ast import Computation
from ..ir.validate import validate
from ..transforms.base import TransformFailure
from ..transforms.registry import get_transform
from .script import EpodScript, Invocation, ScriptError

__all__ = ["TranslationResult", "translate", "EpodTranslator"]


@dataclass
class TranslationResult:
    """Outcome of applying a script to a computation."""

    comp: Computation
    applied: List[Invocation] = field(default_factory=list)
    omitted: List[Tuple[Invocation, str]] = field(default_factory=list)
    env: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Label-free identity of the kernel: each applied invocation's
    #: component and resolved arguments, where a label returned by an
    #: earlier applied step is renamed ``(applied index, output
    #: position)``.  Two translations of one source under one set of
    #: params with equal keys built the same kernel up to loop labels.
    kernel_key: Tuple = ()

    @property
    def applied_key(self) -> Tuple:
        """Identity of the effective (post-degeneration) sequence."""
        return tuple(inv.key() for inv in self.applied)


@dataclass(frozen=True)
class _Step:
    """What one component did to ``source`` with resolved ``args``: the
    computation after it, plus the failure reason when it was omitted,
    or the labels and notes it produced when it was applied.  Holding
    ``source`` keeps the object whose ``id`` keys the step alive."""

    source: Computation
    args: Tuple[str, ...]
    comp: Computation
    failure: Optional[str] = None
    labels: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()


class EpodTranslator:
    """Applies EPOD scripts to computations.

    A translator keeps one memo of transform steps: for each input
    computation (by identity), component, resolved arguments and output
    arity it has applied, the step's outcome.  Every later invocation
    with the same key, in any script, reuses it instead of applying the
    component again, so scripts sharing a prefix, or converging on one
    computation after an omitted component, share their states.  That
    is sound because no transform mutates its input, a step keeps its
    input alive (an ``id`` is never reused while the memo holds it) and
    the expressions computations share are immutable; and it is
    invisible: results equal a fresh translator's up to the names of
    synthesised loop labels.  Errors are raised, never memoised.  The
    memo, and the set of results already validated, start over when the
    source object, params or mode change.  Results of one translator
    may share their computations with each other, so callers must treat
    ``result.comp`` as read-only.

    ``metrics`` (a :class:`repro.telemetry.Metrics`) counts each
    component omitted in ``filter`` mode as
    ``translate.components_omitted`` — once per translation that omits
    it, whether its steps came from the memo or not.  Inside a search
    worker that is the worker-local registry shipped back with the
    config's results.
    """

    def __init__(self, params: Optional[Dict[str, int]] = None, metrics=None):
        self.params = dict(params or {})
        self.metrics = metrics
        self._origin: Optional[Tuple] = None
        self._root: Optional[Computation] = None
        self._memo: Dict[Tuple, _Step] = {}
        self._validated: Set[int] = set()

    def translate(
        self,
        comp: Computation,
        script: EpodScript,
        mode: str = "strict",
        validate_result: bool = True,
    ) -> TranslationResult:
        if mode not in ("strict", "filter"):
            raise ValueError(f"unknown mode {mode!r}")
        origin = (comp, dict(self.params), mode)
        if self._origin is None or self._origin[0] is not comp or self._origin[1:] != origin[1:]:
            self._origin, self._root = origin, comp.clone()
            self._memo, self._validated = {}, set()
        result = TranslationResult(comp=self._root)
        env: Dict[str, str] = result.env
        fresh: Dict[str, Tuple[int, int]] = {}
        kernel_key = []
        for inv in script:
            args = tuple(env.get(a, a) for a in inv.args)
            key = (id(result.comp), inv.component, args, len(inv.outputs))
            step = self._memo.get(key)
            if step is None:
                step = self._memo[key] = self._apply(result.comp, inv, args, mode)
            if step.failure is not None:
                result.omitted.append((inv, step.failure))
                if self.metrics is not None:
                    self.metrics.incr("translate.components_omitted")
                # Outputs of an omitted component alias its inputs when the
                # arity matches (the loops were not restructured), so later
                # invocations can still resolve them.
                if inv.outputs and len(inv.outputs) == len(step.args):
                    env.update(zip(inv.outputs, step.args))
                continue
            kernel_key.append((inv.component, tuple(fresh.get(a, a) for a in step.args)))
            for position, label in enumerate(step.labels):
                fresh[label] = (len(result.applied), position)
            if inv.outputs:
                env.update(zip(inv.outputs, step.labels))
            result.comp = step.comp
            result.applied.append(inv)
            result.notes.extend(f"{inv.component}: {n}" for n in step.notes)
        result.kernel_key = tuple(kernel_key)
        if validate_result and id(result.comp) not in self._validated:
            validate(result.comp)
            self._validated.add(id(result.comp))
        return result

    def _apply(
        self, comp: Computation, inv: Invocation, args: Tuple[str, ...], mode: str
    ) -> _Step:
        """Apply one invocation to ``comp`` (never mutated)."""
        transform = get_transform(inv.component)
        try:
            out = transform.apply(comp, args, self.params)
        except TransformFailure as failure:
            if mode == "strict":
                raise
            return _Step(comp, args, comp, failure=str(failure))
        if inv.outputs and len(out.labels) != len(inv.outputs):
            raise ScriptError(
                f"{inv.component} returned {len(out.labels)} labels, "
                f"script binds {len(inv.outputs)}"
            )
        return _Step(comp, args, out.comp, labels=tuple(out.labels), notes=tuple(out.notes))


def translate(
    comp: Computation,
    script: EpodScript,
    params: Optional[Dict[str, int]] = None,
    mode: str = "strict",
) -> TranslationResult:
    """Convenience wrapper around :class:`EpodTranslator`."""
    return EpodTranslator(params).translate(comp, script, mode=mode)
