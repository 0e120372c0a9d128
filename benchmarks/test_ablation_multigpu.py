"""Extension study: multi-GPU scaling (the paper's §VII future work).

Column-split BLAS3 across 1/2/4 simulated GTX 285s on one node
(:class:`repro.dist.DistLibrary` over :func:`repro.dist.single_node`,
1D panel split): near-linear scaling at N=4096 while the PCIe broadcast
of the shared operand caps small problems.
"""

import pytest

from repro.dist import DistLibrary, single_node
from repro.reporting import ascii_table, generator_for

from .conftest import emit

DEVICES = (1, 2, 4)
ROUTINES = ("GEMM-NN", "SYMM-LL", "TRSM-LL-N")


@pytest.fixture(scope="module")
def scaling(gtx285):
    generator = generator_for(gtx285)
    libs = {d: DistLibrary(gtx285, single_node(d), generator=generator) for d in DEVICES}
    return {
        name: {
            n: {d: lib.gflops(name, n) for d, lib in libs.items()}
            for n in (1024, 4096)
        }
        for name in ROUTINES
    }


def test_multigpu_report(scaling, gtx285, benchmark):
    lib = DistLibrary(gtx285, single_node(2), generator=generator_for(gtx285))
    benchmark(lib.gflops, "GEMM-NN", 4096)
    rows = []
    for name, by_n in scaling.items():
        for n, per_dev in by_n.items():
            rows.append(
                (name, n)
                + tuple(per_dev[d] for d in DEVICES)
                + (f"{per_dev[4] / per_dev[1]:.2f}x",)
            )
    emit(
        ascii_table(
            ["routine", "N", "1 GPU", "2 GPUs", "4 GPUs", "4-GPU speedup"],
            rows,
            title=f"Extension — multi-GPU scaling on {gtx285.name} "
            "(paper §VII future work)",
        )
    )


def test_near_linear_at_large_n(scaling, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in ("GEMM-NN", "SYMM-LL"):
        per_dev = scaling[name][4096]
        assert per_dev[4] >= 2.5 * per_dev[1], f"{name} scales poorly at 4096"


def test_broadcast_caps_small_problems(scaling, benchmark):
    # Scaling efficiency at 1024 must be worse than at 4096.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in ROUTINES:
        eff_small = scaling[name][1024][4] / scaling[name][1024][1]
        eff_large = scaling[name][4096][4] / scaling[name][4096][1]
        assert eff_small <= eff_large + 0.05
