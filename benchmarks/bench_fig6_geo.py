"""Fig. 6 — GEO weak scaling on Titan (paper §III-B).

Series: hand-optimized MPI+CUDA (blocking transfers in the critical path) and
the HiPER future-based composition; MPI+OpenMP host-only is included for
context (the paper's §II-D walks through all three).

Expected shape (paper): HiPER consistently improves on MPI+CUDA by a small
margin ("~2% on average") by removing blocking CUDA operations; both weak-
scale flat.
"""

from repro.apps.figures import FIGURES

FIG = FIGURES["fig6"]
NODES = [1, 2, 4, 8, 16]


def test_fig6_geo_weak_scaling(sweep_runner):
    sw = sweep_runner(lambda: FIG.sweep(NODES))
    cuda = sw.values["mpi_cuda"]
    hiper = sw.values["hiper"]
    # paper shape: HiPER consistently faster than the blocking MPI+CUDA
    # baseline, by a modest margin.
    gains = [(cuda[n] - hiper[n]) / cuda[n] for n in NODES]
    assert all(g > 0 for g in gains), gains
    mean_gain = sum(gains) / len(gains)
    assert 0.005 < mean_gain < 0.6, mean_gain
    # both weak-scale: no blow-up across the sweep
    assert cuda[NODES[-1]] < cuda[2] * 2
    assert hiper[NODES[-1]] < hiper[2] * 2
