"""Graph500 (paper §III-C2): performance parity + programmability gains.

The paper reports "little performance improvement to-date" for the HiPER
Graph500 but large programmability benefits from replacing the reference
code's constant receive polling with ``shmem_async_when``. This bench
reproduces both: a strong-scaling timing table (parity expected; every BFS
tree passes the Graph500 validator) and a programmability table
(receive-side operations per implementation).
"""

from repro.apps.figures import FIGURES
from repro.apps.registry import APPS
from repro.bench import source_loc

FIG = FIGURES["g500"]
NODES = [1, 2, 4, 8]


def test_graph500_parity_and_programmability(sweep_runner):
    sw = sweep_runner(lambda: FIG.sweep(NODES))
    ref = sw.values["mpi"]
    hip = sw.values["hiper"]
    # paper: little performance difference either way
    for n in NODES[1:]:
        assert 0.4 < hip[n] / ref[n] < 2.5, (n, hip[n], ref[n])

    # programmability: the hiper variant has NO receive-side calls at all —
    # arrival handling is delegated to the runtime via shmem_async_when.
    stats = {v: FIG.run(v, 4)[1].merged_stats() for v, _, _ in FIG.series}
    rs, hs = stats["mpi"], stats["hiper"]
    rows = [
        ("alltoall calls", rs.counter("mpi", "alltoall"),
         hs.counter("mpi", "alltoall")),
        ("irecv calls", rs.counter("mpi", "irecv"), hs.counter("mpi", "irecv")),
        ("async_when handlers", rs.counter("shmem", "async_when"),
         hs.counter("shmem", "async_when")),
    ]
    print("\nGraph500 programmability (4 nodes):")
    print(f"{'metric':>22s} | {'mpi':>14s} | {'hiper':>10s}")
    for name, a, b in rows:
        print(f"{name:>22s} | {a:14d} | {b:10d}")
    variants = APPS[FIG.app].variants
    print(f"{'variant source LoC':>22s} | {source_loc(variants['mpi']):14d} | "
          f"{source_loc(variants['hiper']):10d}")
    assert rs.counter("mpi", "alltoall") > 0
    assert hs.counter("mpi", "alltoall") == 0
    assert hs.counter("mpi", "irecv") == 0
    assert hs.counter("shmem", "async_when") > 0
