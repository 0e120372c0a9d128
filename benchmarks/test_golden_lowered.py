"""Golden records of the tuned library: lowered kernel hashes and plan choices.

``lowered_kernels.json`` holds the sha256 of every source the JIT lowers
for the tuned library: each top-level node of each stage, and each whole
computation, of the 28 reference nests and of every winner and fallback
the tuner picks on the GTX 285 in the default space and in the serve
space at N=16 and N=64, under both thread orders.

``plan_records.json`` holds one record per winner and fallback in those
three spaces, in ``small_space()`` at N=8 and in the default space on
the GeForce 9800 and the Fermi C2050: its config, ``applied_key``,
``tuned_gflops`` rounded to 4 places and the sha256 of its CUDA source.

Each space is generated once for both files.  A change that alters a
lowered kernel or a plan choice on purpose regenerates both with

    PYTHONPATH=src python -m benchmarks.test_golden_lowered

and explains each changed entry.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

from repro.blas3 import build_routine
from repro.blas3.naming import ALL_VARIANTS, BATCHED_VARIANTS
from repro.gpu import FERMI_C2050, GEFORCE_9800, GTX_285
from repro.ir.ast import Stage
from repro.jit.lower import UnsupportedIR, lower_computation
from repro.tuner import LibraryGenerator, TuningOptions
from repro.tuner.space import small_space

from tests.ir.test_dependence_vectorized import SERVE_SPACE

GOLDEN = Path(__file__).parent / "golden" / "lowered_kernels.json"
PLAN_GOLDEN = Path(__file__).parent / "golden" / "plan_records.json"
#: label -> (GPU, tuning options)
SPACES = {
    "default": (GTX_285, {}),
    "serve16": (GTX_285, dict(space=SERVE_SPACE, tune_size=16)),
    "serve64": (GTX_285, dict(space=SERVE_SPACE, tune_size=64)),
    "small8": (GTX_285, dict(space=tuple(small_space()), tune_size=8)),
    "geforce9800-default": (GEFORCE_9800, {}),
    "fermi-default": (FERMI_C2050, {}),
}
#: the spaces whose plans are lowered and hashed
LOWERED_SPACES = ("default", "serve16", "serve64")
ROUTINES = [str(v) for v in ALL_VARIANTS + BATCHED_VARIANTS]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def plans(space):
    """``{(kind, routine): TunedRoutine}``: every winner and fallback of
    one space, generated once per process."""
    gpu, options = SPACES[space]
    generator = LibraryGenerator(gpu, options=TuningOptions(jobs=1, **options))
    out = {}
    for name in ROUTINES:
        tuned = generator.generate(name)
        for kind, plan in (("winner", tuned), ("fallback", tuned.fallback)):
            if plan is not None:
                out[kind, name] = plan
    return out


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
    for space in LOWERED_SPACES:
        for (kind, name), plan in plans(space).items():
            comps[f"{space}/{kind}/{name}"] = plan.comp
    return {
        f"{key}/{label}": _sha256(source)
        for key, comp in comps.items()
        for label, source in _sources(comp)
    }


def plan_records():
    """``{space/kind/routine: record}`` of every plan the tuner picks, as
    JSON would read it back."""
    records = {
        f"{space}/{kind}/{name}": {
            "config": dict(plan.config),
            "applied_key": plan.applied_key,
            "tuned_gflops": round(plan.tuned_gflops, 4),
            "cuda_sha256": _sha256(plan.cuda_source()),
        }
        for space in SPACES
        for (kind, name), plan in plans(space).items()
    }
    return json.loads(json.dumps(records))


def _changed(golden, fresh):
    return sorted(key for key in golden.keys() | fresh.keys() if golden.get(key) != fresh.get(key))


def test_lowered_kernels_match_the_golden_hashes():
    changed = _changed(json.loads(GOLDEN.read_text()), lowered_hashes())
    assert not changed, f"{len(changed)} lowered sources differ from {GOLDEN.name}: {changed}"


def test_plan_choices_match_the_golden_records():
    changed = _changed(json.loads(PLAN_GOLDEN.read_text()), plan_records())
    assert not changed, f"{len(changed)} plans differ from {PLAN_GOLDEN.name}: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(lowered_hashes(), indent=1, sort_keys=True) + "\n")
    PLAN_GOLDEN.write_text(json.dumps(plan_records(), indent=1, sort_keys=True) + "\n")
