"""The Composer: base script + adaptors → new EPOD scripts (§IV-B, Fig. 8).

Workflow: **splitter** separates the base script and each adaptor rule
into polyhedral and traditional parts; the **mixer** interleaves the
polyhedral parts under location constraints; the **allocator** merges the
memory declarations; the **generator** emits candidate scripts; the
**filter** applies each candidate to the routine, merges degenerated
sequences and keeps the legal ones.

Multiple adaptors compose iteratively (GEMM-TT applies Adaptor_Transpose
to both A and B): each adaptor's rules multiply the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..adl.adaptor import Adaptor
from ..epod.script import EpodScript, Invocation
from ..ir.ast import Computation
from .allocator import allocate
from .filterer import FilterReport, filter_candidates
from .generator import ComposedScript, generate
from .mixer import mix
from .splitter import split

__all__ = ["Composer", "compose_candidates"]


def compose_candidates(
    base_script: EpodScript,
    adaptations: Sequence[Tuple[Adaptor, str]],
    name: str = "",
) -> List[ComposedScript]:
    """Enumerate all composed candidate scripts (before filtering)."""
    base_poly, base_trad = split(base_script)
    # state: (poly sequence, adaptor traditional invocations, conditions, provenance)
    states: List[Tuple[Tuple[Invocation, ...], Tuple[Invocation, ...], Tuple, str]] = [
        (base_poly, (), (), "base")
    ]
    for adaptor, obj in adaptations:
        next_states = []
        for poly, extra_trad, conds, prov in states:
            for rule_idx, rule in enumerate(adaptor.instantiate(obj)):
                rule_poly, rule_trad = split(rule.invocations)
                rule_prov = f"{prov} + {adaptor.name}({obj})#{rule_idx}"
                rule_conds = conds + ((rule.condition,) if rule.condition else ())
                if not rule_poly:
                    next_states.append(
                        (poly, extra_trad + rule_trad, rule_conds, rule_prov)
                    )
                    continue
                for mixed in mix(poly, rule_poly):
                    next_states.append(
                        (mixed, extra_trad + rule_trad, rule_conds, rule_prov)
                    )
        states = next_states

    candidates = []
    for idx, (poly, extra_trad, conds, prov) in enumerate(states):
        trad = allocate(base_trad, extra_trad)
        candidates.append(
            generate(poly, trad, conds, name=f"{name or base_script.name}#{idx}", provenance=prov)
        )
    return candidates


@dataclass
class ComposeOutcome:
    """Candidates plus the filter's verdicts."""

    candidates: List[ComposedScript]
    report: FilterReport


class Composer:
    """End-to-end composer: enumerate, filter, return legal scripts."""

    def __init__(self, params: Optional[Dict[str, int]] = None, telemetry=None):
        self.params = dict(params or {})
        self.telemetry = telemetry

    def compose(
        self,
        source: Computation,
        base_script: EpodScript,
        adaptations: Sequence[Tuple[Adaptor, str]],
    ) -> ComposeOutcome:
        candidates = compose_candidates(base_script, adaptations, name=source.name)
        report = filter_candidates(
            candidates, source, self.params, telemetry=self.telemetry
        )
        return ComposeOutcome(candidates, report)
