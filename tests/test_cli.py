"""The ``python -m repro`` reproduction driver."""

import argparse
import dataclasses
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

    def test_figure_names_come_from_the_table(self):
        from repro.apps.figures import FIGURES
        from repro.cli import cmd_figure

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert [name for name, p in sub.choices.items()
                if p.get_default("fn") is cmd_figure] == list(FIGURES)
        for command in ("profile", "chaos"):
            arg = next(a for a in sub.choices[command]._actions
                       if a.dest == "figure")
            assert list(arg.choices) == list(FIGURES)

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

    @staticmethod
    def _tiny_fig5(monkeypatch):
        # A tiny profile config, so the smoke run stays fast.
        from repro.apps.figures import FIGURES
        from repro.apps.isx import IsxConfig

        monkeypatch.setitem(FIGURES, "fig5", dataclasses.replace(
            FIGURES["fig5"], profile=lambda s: IsxConfig(keys_per_pe=400)))

    def test_chaos_smoke_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        self._tiny_fig5(monkeypatch)
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

    def test_a_wrong_answer_fails_the_run(self, tmp_path, capsys,
                                          monkeypatch):
        # The verdict is the app's oracle, not "every rank returned".
        from repro.apps.registry import APPS

        def wrong(cfg, results):
            raise AssertionError("bucket 0 out of order")

        self._tiny_fig5(monkeypatch)
        monkeypatch.setitem(APPS, "isx",
                            dataclasses.replace(APPS["isx"], answer=wrong))
        out = tmp_path / "chaos"
        assert main(["chaos", "fig5", "--plan", "drop", "--seed", "7",
                     "--out", str(out)]) == 1
        assert "wrong answer: AssertionError: bucket 0 out of order" in \
            capsys.readouterr().out
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["results_ok"] is False


class TestFailedSpmdRuns:
    """A run whose ranks fail is a failed check (exit 1), not a usage
    error (exit 2)."""

    def test_verify_reports_a_failing_spmd_row_and_goes_on(
            self, monkeypatch, capsys):
        from repro.apps import registry

        broken = dataclasses.replace(registry.APPS["isx"],
                                     modules=lambda v: [])
        monkeypatch.setattr(registry, "APPS",
                            {"isx": broken, "uts": registry.APPS["uts"]})
        rc = main(["verify", "--skip-selfcheck", "--strategy", "random",
                   "--seeds", "1", "--engines", "sim", "sharded"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "diff:spmd-isx      FAIL sim:flat/sharded:flat/" in out
        assert "sim:flat failed: ConfigError: 4 rank(s) failed" in out
        assert "diff:spmd-uts      OK" in out
        assert "diff:isx-eng       FAIL ref-sim/sim" in out
        assert "(3 failure(s), " in out

    def test_chaos_reports_a_run_that_fails(self, tmp_path, capsys,
                                            monkeypatch):
        TestChaosCommand._tiny_fig5(monkeypatch)
        plan = tmp_path / "kill.json"
        plan.write_text(json.dumps({"seed": 0, "faults": [
            {"kind": "task_fail", "name": "isx-chunk0"}]}))
        out = tmp_path / "chaos"
        assert main(["chaos", "fig5", "--plan", str(plan),
                     "--out", str(out)]) == 1
        assert ("run failed: ConfigError: 2 rank(s) failed; first failure "
                "on rank 0: FaultError: injected failure in task "
                "'isx-chunk0'") in capsys.readouterr().out
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["results_ok"] is False
        assert metrics["makespan"] is None


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
        # Every variant on the CLI's sim back end prints the answer the
        # reference engine computes for the same app.
        from repro.apps.registry import APPS
        from repro.verify.differential import make_engine

        app = APPS["isx"]
        want = str(app.run("hiper", app.cluster(4, 2),
                           executor=make_engine("ref-sim"))[0])
        assert main(["run", "--backend", "sim", "--app", "isx"]) == 0
        assert capsys.readouterr().out.count(want) == len(app.variants)

    def test_threads_backend_left_run(self):
        # The one-runtime engines are verify's (`verify --engines threads`).
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--backend", "threads"])
        assert exc.value.code == 2

    def test_unknown_app_exits_2(self, capsys):
        assert main(["run", "--backend", "sim", "--app", "bogus"]) == 2
        captured = capsys.readouterr()
        assert "unknown app 'bogus'" in captured.err and "isx" in captured.err
        assert captured.out == ""  # refused before anything ran

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
