"""Filter: apply candidates component-by-component and keep the legal ones.

Paper §IV-B.2: the filter "tries every transformation sequence generated
by the mixer and applies the transformation component by component.  If a
specific constraint for some component is not satisfied, then the
corresponding component is omitted" — degenerated sequences are merged
(the semi-output), and finally data-dependence legality is checked (the
paper uses PolyDeps; we use the stricter end-to-end oracle in
:mod:`repro.composer.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..epod.translator import EpodTranslator, TranslationResult
from ..ir.ast import Computation
from .generator import ComposedScript
from .oracle import check_equivalence

__all__ = ["FilteredCandidate", "FilterReport", "filter_candidates"]


@dataclass
class FilteredCandidate:
    """A legal candidate: the composed script and its translation."""

    candidate: ComposedScript
    result: TranslationResult


@dataclass
class FilterReport:
    """Everything the filter saw, for diagnostics and the paper's
    §IV-B.2 walkthrough tests."""

    accepted: List[FilteredCandidate] = field(default_factory=list)
    semi_output: List[FilteredCandidate] = field(default_factory=list)
    rejected: List[Tuple[ComposedScript, str]] = field(default_factory=list)
    duplicates: List[Tuple[ComposedScript, Tuple]] = field(default_factory=list)


def filter_candidates(
    candidates: List[ComposedScript],
    source: Computation,
    params: Optional[Dict[str, int]] = None,
    telemetry=None,
) -> FilterReport:
    """Run the filter over mixed candidates.

    ``semi_output`` holds the deduplicated successfully-applied sequences
    (the paper's term); ``accepted`` the subset that also passes the
    dependence/semantics oracle.
    """
    params = dict(params or {})
    translator = EpodTranslator(params)
    report = FilterReport()
    seen: Dict[Tuple, ComposedScript] = {}
    for candidate in candidates:
        try:
            result = translator.translate(source, candidate.script, mode="filter")
        except Exception as exc:  # genuine errors are rejections, not crashes
            report.rejected.append((candidate, f"translation error: {exc}"))
            continue
        key = result.applied_key
        if key in seen:
            report.duplicates.append((candidate, key))
            continue
        seen[key] = candidate
        filtered = FilteredCandidate(candidate, result)
        report.semi_output.append(filtered)
        verdict = check_equivalence(result.comp, source, params, telemetry=telemetry)
        if not verdict.ok:
            report.rejected.append((candidate, verdict.reason))
            continue
        report.accepted.append(filtered)
    return report
