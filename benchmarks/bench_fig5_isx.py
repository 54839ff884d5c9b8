"""Fig. 5 — ISx weak scaling on Titan (paper §III-B).

Series: Flat OpenSHMEM (process per core), OpenSHMEM+OpenMP hybrid (process
per node), and HiPER/AsyncSHMEM. Weak scaling: keys per PE constant, so a
hybrid PE carries cores-per-node times a flat PE's keys.

Expected shape (paper): flat competitive at small node counts, then collapses
at large scale as every core-rank joins the global all-to-all (per-node NIC
incast); the hybrids stay flat; HiPER tracks the hybrid reference.

Workload scaling (DESIGN.md §2): keys arrays are small in memory; compute
and wire costs are charged at ``byte_scale`` times the carried size, mapping
to the paper's 2^29-keys/PE configuration.
"""

from repro.apps.figures import FIGURES

FIG = FIGURES["fig5"]
NODES = [1, 2, 4, 8, 16, 32]


def test_fig5_isx_weak_scaling(sweep_runner):
    sw = sweep_runner(lambda: FIG.sweep(NODES))
    flat = sw.values["flat"]
    hybrid = sw.values["hybrid"]
    hiper = sw.values["hiper"]
    # paper shape: flat competitive at small node counts...
    assert flat[1] < hybrid[1] * 1.6
    assert flat[2] < hybrid[2] * 1.6
    # ...collapses at the largest scale,
    assert flat[NODES[-1]] > 2.0 * hybrid[NODES[-1]]
    # hybrids weak-scale once communication exists (2+ nodes; the 1-node
    # point is network-free),
    assert hybrid[NODES[-1]] < hybrid[2] * 2
    # and HiPER tracks the hybrid reference.
    for n in NODES:
        assert 0.5 < hiper[n] / hybrid[n] < 2.0
