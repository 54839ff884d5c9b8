"""The ``python -m repro`` reproduction driver."""

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "validate" in out

    def test_platform_json(self, capsys):
        assert main(["platform", "titan", "--detail", "flat"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_workers"] == 16
        assert any(p["type"] == "gpu_mem" for p in doc["places"])

    def test_figure_small_sweep(self, capsys):
        assert main(["fig6", "--nodes", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 6" in out and "hiper" in out and "mpi_cuda" in out

    def test_g500_small_sweep(self, capsys):
        assert main(["g500", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "Graph500" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 5 and "FAIL" not in out

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_record_parser(self):
        args = build_parser().parse_args(
            ["bench-record", "--fast", "--label", "x", "--out", "l.json"])
        assert args.fast and args.label == "x" and args.out == "l.json"


class TestBenchRecordLedger:
    """Ledger mechanics of repro.bench.record (no benchmark run)."""

    RAW = {
        "datetime": "2026-08-06T00:00:00+00:00",
        "commit_info": {"id": "abc123"},
        "machine_info": {"node": "box", "python_version": "3.11.7"},
        "benchmarks": [{
            "name": "test_spawn_and_join_throughput_sim",
            "extra_info": {"tasks_per_call": 2000},
            "stats": {"ops": 100.0, "mean": 0.01, "median": 0.009,
                      "stddev": 0.001, "rounds": 42},
        }],
    }

    def test_entry_from_pytest_json_and_append(self, tmp_path):
        from repro.bench.record import (append_entry, entry_from_pytest_json,
                                        format_entry, load_ledger)

        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(self.RAW))
        entry = entry_from_pytest_json(str(raw_path), label="baseline")
        assert entry["commit"] == "abc123"
        assert entry["date"] == "2026-08-06T00:00:00+00:00"
        rec = entry["benchmarks"]["test_spawn_and_join_throughput_sim"]
        assert rec["ops_per_sec"] == 100.0 and rec["rounds"] == 42

        ledger = tmp_path / "ledger.json"
        append_entry(str(ledger), entry)
        append_entry(str(ledger), {**entry, "label": "after"})
        entries = load_ledger(str(ledger))
        assert [e["label"] for e in entries] == ["baseline", "after"]

        table = format_entry(entries[1], entries[0])
        assert "1.00x vs baseline" in table

    def test_committed_ledger_has_baseline_and_post_entries(self):
        import os

        from repro.bench.record import load_ledger, repo_root

        entries = load_ledger(
            os.path.join(repo_root(), "BENCH_scheduler.json"))
        assert len(entries) >= 2
        key = "test_spawn_and_join_throughput_sim"
        base, post = entries[0], entries[1]
        ratio = (post["benchmarks"][key]["ops_per_sec"]
                 / base["benchmarks"][key]["ops_per_sec"])
        assert ratio >= 1.5  # the overhaul's acceptance bar


class TestRunAllExitCode:
    """ISSUE 'resilience' satellite (c): ``validate`` must exit nonzero when
    any check fails (CI gates on the exit code, not the log text)."""

    def test_nonzero_on_failure(self, monkeypatch, capsys):
        import repro.distrib

        def exploding_spmd_run(*a, **kw):
            raise RuntimeError("injected validation failure")

        monkeypatch.setattr(repro.distrib, "spmd_run", exploding_spmd_run)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "OK" not in out


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "fig5"])
        assert args.plan == "mixed" and args.seed == 0
        assert args.fn.__name__ == "cmd_chaos"

    def test_unknown_plan_rejected(self, tmp_path, capsys):
        rc = main(["chaos", "fig5", "--plan", str(tmp_path / "missing.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown fault plan" in err and "mixed" in err

    def test_unknown_figure_exits_2(self):
        # argparse rejects a bad figure choice with its own exit code 2 and
        # a message listing the valid choices.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "fig99"])
        assert exc.value.code == 2

    def test_chaos_smoke_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        # Substitute a tiny target so the smoke run stays fast.
        from repro import cli as cli_mod
        from repro.apps.isx import IsxConfig, isx_main
        from repro.distrib import ClusterConfig
        from repro.platform import machine
        from repro.shmem import shmem_factory

        def tiny_target(fig, scale):
            cfg = IsxConfig(keys_per_pe=400)
            cluster = ClusterConfig(nodes=2, ranks_per_node=1,
                                    workers_per_rank=2,
                                    machine=machine("workstation"))
            return isx_main("hiper", cfg), cluster, [shmem_factory()]

        monkeypatch.setattr(cli_mod, "_profile_target", tiny_target)
        out = tmp_path / "chaos"
        rc = main(["chaos", "fig5", "--plan", "drop", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "chaos fig5" in text and "faults injected" in text
        log = json.loads((out / "fault_log.json").read_text())
        assert isinstance(log, list)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["plan"] == "drop" and metrics["seed"] == 7
        assert metrics["results_ok"] is True
        assert (out / "trace.json").exists()


class TestRunCommand:
    """``repro run``: one DES engine and clean exit-2 on bad names."""

    def test_parser_engine_choices(self):
        # There is one engine, so --engine is not a flag of any subcommand.
        for argv in (["run", "--backend", "sim", "--engine", "flat"],
                     ["profile", "fig5", "--engine", "flat"],
                     ["serve", "--engine", "flat"],
                     ["run", "--backend", "bogus"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_sim_engines_agree(self, capsys):
        # The in-process backends, via the CLI, print the digest the
        # reference engine computes for the same workload.
        from repro.verify import WORKLOADS, run_on_engine

        digest = str(run_on_engine(WORKLOADS["isx"](), "ref-sim",
                                   workers=2).result)
        for backend in ("sim", "threads"):
            assert main(["run", "--backend", backend, "--app", "isx"]) == 0
            assert digest in capsys.readouterr().out

    def test_unknown_launcher_exits_2(self, capsys):
        rc = main(["run", "--backend", "procs", "--launcher", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown launcher" in err and "local" in err
        # Nothing ran: the validation happened before any workload started.
        assert "FAIL" not in capsys.readouterr().out


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.fn.__name__ == "cmd_serve"
        assert args.backends == ["sim"] and args.pool_size == 2
        assert args.uds is None and args.host is None
        assert not args.cold

    def test_flags(self):
        args = build_parser().parse_args(
            ["serve", "--backends", "sim", "threads", "--pool-size", "3",
             "--cold", "--queue-cap", "16"])
        assert args.backends == ["sim", "threads"]
        assert args.pool_size == 3
        assert args.cold and args.queue_cap == 16

    def test_bad_backend_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--backends", "gpu"])
        assert exc.value.code == 2
