"""Fig. 7 — UTS strong scaling (paper §III-C1).

Series: OpenSHMEM+OpenMP (lock-based distributed balancing),
OpenSHMEM+OpenMP Tasks (coarse-grain taskwait rounds), and HiPER/AsyncSHMEM.
Strong scaling: one T1XXL-shaped geometric tree (scaled, DESIGN.md §2)
searched by growing node counts; every run must count the sequential walk's
nodes exactly.

Expected shape (paper): all three comparable at small scale;
OpenSHMEM+OpenMP degrades as lock contention from distributed balancing
grows; the Tasks variant trails HiPER due to its coarse synchronization;
HiPER scales best.
"""

from repro.apps.figures import FIGURES

FIG = FIGURES["fig7"]
NODES = [1, 2, 4, 8, 16, 32]


def test_fig7_uts_strong_scaling(sweep_runner):
    sw = sweep_runner(lambda: FIG.sweep(NODES))
    omp = sw.values["shmem_omp"]
    tasks = sw.values["omp_tasks"]
    hiper = sw.values["hiper"]
    last = NODES[-1]
    # paper shape: comparable at small scale...
    assert 0.5 < omp[1] / hiper[1] < 2.0
    # ...lock-based balancing degrades relative to HiPER at scale,
    assert omp[last] > hiper[last] * 1.1
    # and HiPER is the best (or ties) at the largest point.
    assert hiper[last] <= min(omp[last], tasks[last]) * 1.05
    # HiPER keeps strong-scaling further than the lock-based reference:
    assert hiper[last] < hiper[1]
