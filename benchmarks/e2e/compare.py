#!/usr/bin/env python3
"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

Both files must be runs of the same ``--seed``. One row per workload x
end-to-end metric: both medians, the ratio B/A with its base, and a verdict
against the metric's regression bound —

``better`` / ``worse``  B's median is beyond the bound from A's;
``same``                within the bound;
``unresolved``          the run-to-run spread of either side is wider than
                        the bound and the runs overlap, so the data cannot
                        tell (never reported as "same");
``changed``             ``virtual_ms`` differs at all: it is compared by
                        exact ``repr``, because a host-speed change that
                        moves simulated time changed the model.

Exit status is non-zero on any ``worse``, any ``changed``, or any rise in
``failed_share``. A is the base (the parent commit), B the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence

from run import E2E_UNITS

#: Regression bounds between two results files **of the same seed**, where
#: only the machine's noise separates runs (~1 % here; the two shards of
#: isx_sharded2 share 2 cores with their coordinator: 3.5 %). BENCHMARK.json
#: carries looser ones because its driver compares runs on *different*
#: seeds, where steal order alone moves a UTS run by 6 % (README "Bounds").
BOUNDS = {"setup_s": 0.25, "wall_s": 0.05, "peak_rss_mb": 0.10,
          "latency_p50_ms": 0.15, "latency_p99_ms": 0.15}
WORKLOAD_BOUNDS = {("isx_sharded2", "wall_s"): 0.10}
#: Below this absolute difference a relative bound is not applied: 25 % of a
#: 0.3 s set-up is less than one scheduler hiccup.
ABS_FLOOR = {"setup_s": 0.10}


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            floor: float = 0.0) -> str:
    """Lower is better for every end-to-end metric of this benchmark."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    tol = max(bound * med_a, floor)
    noisy = max(max(a) - min(a), max(b) - min(b)) > tol
    overlap = not (max(b) < min(a) or min(b) > max(a))
    if noisy and overlap:
        return "unresolved"
    if med_b > med_a + tol:
        return "worse"
    if med_b < med_a - tol:
        return "better"
    return "same"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name, wl_a in doc_a["workloads"].items():
        wl_b = doc_b["workloads"].get(name)
        if wl_b is None:
            continue
        for metric in E2E_UNITS:
            a, b = wl_a["e2e"].get(metric), wl_b["e2e"].get(metric)
            if a is None or b is None:
                continue  # the metric does not apply to this workload
            row = {"workload": name, "metric": metric, "a": a["median"],
                   "b": b["median"], "unit": E2E_UNITS[metric]}
            if metric == "virtual_ms":
                row["verdict"] = ("same" if a.get("repr") == b.get("repr")
                                  else "changed")
            elif metric == "failed_share":
                row["verdict"] = ("worse" if b["median"] > a["median"] else
                                  "better" if b["median"] < a["median"] else
                                  "same")
            else:
                row["verdict"] = verdict(
                    a["samples"], b["samples"],
                    WORKLOAD_BOUNDS.get((name, metric), BOUNDS[metric]),
                    ABS_FLOOR.get(metric, 0.0))
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0].replace("``", ""), file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    seeds = [doc["args"]["seed"] for doc in docs]
    if seeds[0] != seeds[1]:
        print(f"error: the files are runs of different seeds {seeds}; the "
              "bounds and the exact virtual_ms check hold for one seed",
              file=sys.stderr)
        return 2
    rows = compare(*docs)
    print(f"{'workload':20s} {'metric':16s} {'A median':>12s} {'B median':>12s}"
          f" {'unit':6s} {'B/A':>7s}  verdict")
    for r in rows:
        ratio = f"x{r['b'] / r['a']:.3f}" if r["a"] else "   -  "
        print(f"{r['workload']:20s} {r['metric']:16s} {r['a']:12.6g} "
              f"{r['b']:12.6g} {r['unit']:6s} {ratio:>7s}  {r['verdict']}"
              f"  (base A={r['a']:.6g})")
    bad = [r for r in rows if r["verdict"] in ("worse", "changed")]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} rows: {len(bad)} worse/changed, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
