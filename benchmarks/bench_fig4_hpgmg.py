"""Fig. 4 — HPGMG-FV weak scaling on Titan (paper §III-B).

Series: the reference MPI+OpenMP hybrid and the HiPER (UPC++ + MPI)
composition, weak-scaled with fixed boxes per rank (the paper's
``8 boxes per rank`` advice, geometrically scaled down — DESIGN.md §2).
Every point must converge (the app's oracle in ``repro.apps.registry``).

Expected shape (paper): the two are comparable in performance across the
sweep; metric is DOF/s (higher is better), as HPGMG reports.
"""

from repro.apps.figures import FIGURES

FIG = FIGURES["fig4"]
NODES = [1, 2, 4, 8, 16]


def test_fig4_hpgmg_weak_scaling(sweep_runner):
    sw = sweep_runner(lambda: FIG.sweep(NODES))
    ref = sw.values["reference"]
    hip = sw.values["hiper"]
    # paper shape: comparable performance across the sweep
    for n in NODES:
        assert 0.5 < hip[n] / ref[n] < 2.0, (n, hip[n], ref[n])
    # throughput grows with nodes (weak scaling adds DOF)
    assert ref[NODES[-1]] > ref[1] * 2
