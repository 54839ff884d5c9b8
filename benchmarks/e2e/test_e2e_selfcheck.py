"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 does not collect it:
``testpaths = ["tests"]``). It checks the benchmark's own contract — names,
units, coverage of the layer budget, determinism of virtual time, and that
the comparer flags what it must — not the program's speed.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = [w for w in WORKLOADS if run._in_process(w)]


def _run(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One whole-benchmark smoke run: two untraced repetitions and one
    traced repetition of every workload."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _run("--smoke", "--reps", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh)


def test_spec_names_and_units():
    declared = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                for m in SPEC[key]]
    assert len(declared) == len(set(declared)), "a name is used twice"
    for name in declared:
        assert NAME_RE.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]), m
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(run.E2E_UNITS)


def test_every_workload_ran_clean(results):
    assert list(results["workloads"]) == WORKLOADS
    assert results["claim"] is None
    for name, wl in results["workloads"].items():
        assert wl["failed"] == 0, (name, wl["failures"])
        assert wl["attempted"] >= 1
        assert wl["e2e"]["failed_share"]["median"] == 0


def test_emitted_names_are_the_declared_ones(results):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    emitted = set()
    for name, wl in results["workloads"].items():
        assert set(wl["e2e"]) <= set(run.E2E_UNITS), name
        layer = set(wl["layer"])
        assert layer <= per_layer, (name, sorted(layer - per_layer))
        emitted |= layer
    assert emitted | set(run.E2E_AS_LAYER) == per_layer, sorted(
        per_layer - emitted)
    e2e = set().union(*(wl["e2e"] for wl in results["workloads"].values()))
    assert e2e == set(run.E2E_UNITS)


@pytest.mark.parametrize("workload", ["taskgraph_mix", "isx_sharded2"])
def test_driver_contract(workload):
    """The driver's view: exactly the declared names, one JSON line last."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr[-2000:]
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0
        assert doc["attempted"] >= 1
        assert list(doc["metrics"]) == [m["name"] for m in SPEC[key]]
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        for name, m in doc["metrics"].items():
            assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        if trace == 0:
            assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_layer_budget_sums_to_traced_wall(results):
    for name in IN_PROCESS:
        layer = results["workloads"][name]["layer"]
        assert 0.98 <= layer["trace.coverage"]["value"] <= 1.02, name
        assert layer["trace.overhead_ratio"]["value"] > 0, name
    for name in set(WORKLOADS) - set(IN_PROCESS):
        assert "trace.coverage" not in results["workloads"][name]["layer"]


def test_virtual_time_is_bit_equal_across_runs(results):
    for name, wl in results["workloads"].items():
        if name == "gateway_closed":  # job results carry no simulated time
            assert "virtual_ms" not in wl["e2e"]
            continue
        virt = wl["e2e"]["virtual_ms"]
        assert virt["n"] == 2 and virt["min"] == virt["max"], name
        assert virt["repr"] == repr(virt["median"]), name


def _compare(tmp_path, a, b):
    paths = []
    for tag, doc in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{tag}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(doc, fh)
    return compare.main(paths), compare.compare(a, b)


def test_compare_passes_a_file_against_itself(results, tmp_path, capsys):
    code, rows = _compare(tmp_path, results, results)
    assert code == 0
    assert {r["verdict"] for r in rows} <= {"same", "unresolved"}
    assert "isx_flat_a2a" in capsys.readouterr().out


def test_compare_flags_injected_regressions(results, tmp_path):
    # every run 20 % slower, on samples tight enough to resolve it
    tight, slow = copy.deepcopy(results), copy.deepcopy(results)
    base = tight["workloads"]["isx_flat_a2a"]["e2e"]["wall_s"]
    base["samples"] = [base["median"]] * 2
    wall = slow["workloads"]["isx_flat_a2a"]["e2e"]["wall_s"]
    wall["samples"] = [base["median"] * 1.2] * 2
    wall["median"] = base["median"] * 1.2
    code, rows = _compare(tmp_path, tight, slow)
    assert code == 1
    bad = [(r["workload"], r["metric"]) for r in rows if r["verdict"] == "worse"]
    assert bad == [("isx_flat_a2a", "wall_s")]

    drift = copy.deepcopy(results)
    virt = drift["workloads"]["uts_hiper_steal"]["e2e"]["virtual_ms"]
    virt["repr"] = repr(float(virt["repr"]) * (1 + 2 ** -50))
    code, rows = _compare(tmp_path, results, drift)
    assert code == 1
    changed = [(r["workload"], r["metric"]) for r in rows
               if r["verdict"] == "changed"]
    assert changed == [("uts_hiper_steal", "virtual_ms")]

    failing = copy.deepcopy(results)
    failing["workloads"]["isx_sharded2"]["e2e"]["failed_share"]["median"] = 0.25
    code, _ = _compare(tmp_path, results, failing)
    assert code == 1


def test_verdict_unresolved_when_spread_exceeds_bound():
    assert compare.verdict([1.0, 1.3], [1.1, 1.2], 0.05) == "unresolved"
    assert compare.verdict([1.0, 1.3], [0.8, 0.9], 0.05) == "better"
    assert compare.verdict([1.0, 1.01], [1.02, 1.03], 0.05) == "same"
    assert compare.verdict([0.30, 0.31], [0.38, 0.39], 0.25, 0.10) == "same"


def test_no_file_is_named_like_a_figure_bench():
    # pytest benchmarks/ collects bench_*.py: that must stay the figure benches
    assert not [f for f in os.listdir(run.HERE) if f.startswith("bench_")]


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own directory: non-zero exit
    and no result line."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    dest = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(run.HERE, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(dest / "run.py"), "--workload", "isx_flat_a2a",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
