"""Golden hashes of the JIT's lowered kernel sources.

Hashes every source the JIT lowers for the tuned library: each top-level
node of each stage, and each whole computation, of the 28 reference
nests and of every winner and fallback the tuner picks on the GTX 285
in the default space and in the serve space at N=16 and N=64, under
both thread orders.  The test compares the sha256 of each source with
``benchmarks/golden/lowered_kernels.json``.  A change that alters a
lowered kernel on purpose regenerates the file with

    PYTHONPATH=src python -m benchmarks.test_golden_lowered

and explains each changed entry.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.blas3 import build_routine
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.gpu import GTX_285
from repro.ir.ast import Stage
from repro.jit.lower import UnsupportedIR, lower_computation
from repro.tuner import LibraryGenerator, TuningOptions

from tests.ir.test_dependence_vectorized import SERVE_SPACE

GOLDEN = Path(__file__).parent / "golden" / "lowered_kernels.json"
SPACES = {
    "default": {},
    "serve16": dict(space=SERVE_SPACE, tune_size=16),
    "serve64": dict(space=SERVE_SPACE, tune_size=64),
}
ROUTINES = [str(v) for v in ALL_VARIANTS + BATCHED_VARIANTS]


def _lower(comp, order):
    try:
        return lower_computation(comp, order).source
    except UnsupportedIR as exc:
        return f"unsupported: {exc}"


def _sources(comp):
    """``(label, source)`` of each stage's top-level nodes, then of the
    whole computation, per thread order."""
    for order in ("asc", "desc"):
        for si, stage in enumerate(comp.stages):
            for ni, node in enumerate(stage.body):
                one = dataclasses.replace(comp, stages=[Stage(stage.name, [node], stage.role)])
                yield f"{order}/s{si}/n{ni}", _lower(one, order)
        yield f"{order}/full", _lower(comp, order)


def lowered_hashes():
    """``{key: sha256}`` of every lowered source, keyed
    ``space/kind/routine/order/piece``."""
    comps = {f"reference/nest/{name}": build_routine(name) for name in ROUTINES}
    for space, options in SPACES.items():
        generator = LibraryGenerator(GTX_285, options=TuningOptions(jobs=1, **options))
        for name in ROUTINES:
            tuned = generator.generate(name)
            for kind, plan in (("winner", tuned), ("fallback", tuned.fallback)):
                if plan is not None:
                    comps[f"{space}/{kind}/{name}"] = plan.comp
    return {
        f"{key}/{label}": hashlib.sha256(source.encode()).hexdigest()
        for key, comp in comps.items()
        for label, source in _sources(comp)
    }


def test_lowered_kernels_match_the_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    fresh = lowered_hashes()
    changed = sorted(key for key in golden.keys() | fresh.keys() if golden.get(key) != fresh.get(key))
    assert not changed, f"{len(changed)} lowered sources differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(lowered_hashes(), indent=1, sort_keys=True) + "\n")
