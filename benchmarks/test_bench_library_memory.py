"""Benchmark: peak memory of a full library build.

The variant search scores every (script × config) unit but keeps only
scalar scores; kernels are rebuilt on demand for the units the verifier
touches.  Before that, every ok unit's translated IR and analytic models
stayed alive for the life of its routine, and a cold build of all 24
paper variants peaked at 184 MB RSS (``jobs=1``, GTX 285, curated space).

This benchmark builds the full library in a fresh subprocess with
``jobs=2`` — the pool path, where workers ship back scalars only — and
records the builder's peak RSS (of the subprocess itself, not of its
pool workers) and its wall time in ``BENCH_library_memory.json``.  It
asserts the peak stays below 100 MB.

The peak is ``VmHWM`` from ``/proc/self/status``, which ``exec`` resets.
``ru_maxrss`` is only the fallback where ``/proc`` lacks it: Linux
carries it across ``fork``/``exec``, so after other benchmarks in one
pytest process it reports the pytest process's peak (121.8 MB against
about 50 MB for the build alone).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from .conftest import emit

BENCH_PATH = Path(__file__).parents[1] / "BENCH_library_memory.json"
SRC = Path(__file__).parents[1] / "src"
PEAK_RSS_LIMIT_MB = 100.0
JOBS = 2

BUILD = """
import json, resource, sys, time
from repro.gpu import GTX_285
from repro.tuner import LibraryGenerator, TuningOptions


def peak_rss():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024, "VmHWM"
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"


t0 = time.perf_counter()
lib = LibraryGenerator(GTX_285, options=TuningOptions(jobs=int(sys.argv[1]))).library()
wall_s = time.perf_counter() - t0
peak_rss_mb, peak_rss_source = peak_rss()
print(json.dumps({
    "routines": len(lib.routines),
    "wall_s": wall_s,
    "peak_rss_mb": peak_rss_mb,
    "peak_rss_source": peak_rss_source,
    "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
}))
"""


def test_bench_library_memory():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", BUILD, str(JOBS)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = {
        "arch": "GTX 285",
        "space": "curated",
        "jobs": JOBS,
        "clock": "VmHWM (ru_maxrss where /proc lacks it) of the build process; "
        "host wall-clock",
        "peak_rss_limit_mb": PEAK_RSS_LIMIT_MB,
        **result,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=1))
    emit(
        f"full library build, GTX 285, curated space, jobs={JOBS}\n"
        f"routines {result['routines']}   wall {result['wall_s']:.1f} s   "
        f"peak RSS {result['peak_rss_mb']:.1f} MB "
        f"(workers {result['worker_peak_rss_mb']:.1f} MB)"
    )
    assert result["routines"] == 24
    assert result["peak_rss_mb"] < PEAK_RSS_LIMIT_MB
