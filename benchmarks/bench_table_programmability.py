"""Programmability table (paper §III, qualitative claims quantified).

For every app of ``repro.apps.registry``, count each variant's source LoC.
The paper argues HiPER's future-based APIs "reduce programmer burden"; LoC
is one measurable proxy (bench_graph500.py counts the receive/polling
operations each Graph500 variant performs at runtime).
"""

from repro.apps.registry import APPS
from repro.bench import source_loc


def test_programmability_loc_table(benchmark):
    table = {}

    def _collect():
        for app in APPS.values():
            for name, fn in app.variants.items():
                table[(app.name, name)] = source_loc(fn)

    benchmark.pedantic(_collect, rounds=1, iterations=1)
    print("\nProgrammability: variant implementation size (non-blank LoC)")
    print(f"{'app':>10s} | {'variant':>12s} | {'LoC':>5s}")
    for (app, name), loc in table.items():
        print(f"{app:>10s} | {name:>12s} | {loc:5d}")
        benchmark.extra_info[f"{app}/{name}"] = loc

    # The HiPER variants stay within the same order of magnitude as the
    # references while adding asynchrony — the paper's "syntactically
    # similar to their standard variants" claim. (The deeper programmability
    # win — zero receive/polling call sites — is asserted quantitatively in
    # bench_graph500.py.)
    for app in APPS.values():
        locs = {n: table[(app.name, n)] for n in app.variants}
        ref = min(v for k, v in locs.items() if k != "hiper")
        assert locs["hiper"] < 4 * ref, (app.name, locs)
