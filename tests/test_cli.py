"""Command-line interface: subcommands, ledger output, exit codes."""

import json
import subprocess
import sys

from fractions import Fraction

import pytest

from stirlingzero import bridge, config_sums
from stirlingzero.cli import build_parser, main
from stirlingzero.config_sums import ConfigSumResult
from stirlingzero.ledger import read_records


def run_cli(args, tmp_path, ledger="ledger.jsonl"):
    path = tmp_path / ledger
    code = main(list(args) + ["--ledger", str(path)])
    records, warnings = read_records(str(path))
    return code, records, warnings


class TestPart1Command:
    def test_explicit_ground(self, tmp_path):
        code, records, _ = run_cli(
            ["part1", "--g", "3", "--w", "0", "--c", "2,3,4", "--jobs", "1"],
            tmp_path)
        assert code == 0
        assert len(records) == 1
        assert records[0]["verdict"] == "zero"
        assert records[0]["value"] == "0"
        assert records[0]["visited"] == 5

    def test_symbolic_all_w(self, tmp_path):
        code, records, _ = run_cli(
            ["part1", "--g", "5", "--all-w", "--symbolic", "--jobs", "1"],
            tmp_path)
        assert code == 0
        assert [r["params"]["w"] for r in records] == [0, 1, 2, 3]
        assert all(r["verdict"] == "zero" for r in records)
        assert all(r["params"]["mode"] == "symbolic" for r in records)

    def test_random_grounds_record_seed(self, tmp_path):
        code, records, _ = run_cli(
            ["part1", "--g", "4", "--w", "1", "--random", "3",
             "--seed", "9", "--jobs", "1"],
            tmp_path)
        assert code == 0
        assert len(records) == 3
        assert all("seed" in r["params"] for r in records)
        grounds = {r["params"]["ground"] for r in records}
        assert len(grounds) == 3

    def test_rational_ground_values(self, tmp_path):
        code, records, _ = run_cli(
            ["part1", "--g", "3", "--w", "1", "--c", "5/2,-1,7", "--jobs", "1"],
            tmp_path)
        assert code == 0
        assert records[0]["verdict"] == "zero"

    def test_ground_length_mismatch_is_usage_error(self, tmp_path):
        code, records, _ = run_cli(
            ["part1", "--g", "3", "--w", "0", "--c", "2,3", "--jobs", "1"],
            tmp_path)
        assert code == 2
        assert records == []

    def test_w_out_of_range_is_usage_error(self, tmp_path):
        code, _, _ = run_cli(
            ["part1", "--g", "3", "--w", "2", "--c", "2,3,4", "--jobs", "1"],
            tmp_path)
        assert code == 2

    def test_random_count_below_one_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["part1", "--g", "3", "--w", "0", "--random", "0"], tmp_path)
        assert exc.value.code == 2
        assert "--random" in capsys.readouterr().err

    def test_repeated_ground_value_is_usage_error(self, tmp_path, capsys):
        code, records, _ = run_cli(
            ["part1", "--g", "3", "--w", "0", "--c", "2,2,3"], tmp_path)
        assert code == 2
        assert records == []
        assert "error: ground values must be pairwise distinct" in capsys.readouterr().err


class TestPart2Command:
    def test_depth_three(self, tmp_path):
        code, records, _ = run_cli(
            ["part2", "--H", "3"], tmp_path)
        assert code == 0
        assert [(r["params"]["h"], r["params"]["k"]) for r in records] == \
            [(1, 3), (2, 4), (3, 5), (3, 6)]
        assert all(r["verdict"] == "zero" for r in records)

    def test_depth_six_derives_its_budget(self, tmp_path):
        code, records, _ = run_cli(["part2", "--H", "6"], tmp_path)
        assert code == 0
        assert {r["params"]["s_max"] for r in records} == {7}
        assert {r["params"]["j_samples"] for r in records} == \
            {",".join(map(str, range(7, 23)))}
        assert all(r["verdict"] == "zero" for r in records)

    def test_default_depth_keeps_its_budget(self, tmp_path):
        code, records, _ = run_cli(["part2"], tmp_path)
        assert code == 0
        assert {(r["params"]["H"], r["params"]["s_max"], r["params"]["j_samples"])
                for r in records} == {(4, 6, ",".join(map(str, range(5, 17))))}

    @pytest.mark.parametrize("option,value", [("--s-max", "9"), ("--j-samples", "5,6")])
    def test_budget_is_not_an_option(self, tmp_path, capsys, option, value):
        # the budget is derived from --H
        with pytest.raises(SystemExit) as exc:
            run_cli(["part2", "--H", "4", option, value], tmp_path)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_jobs_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["part2", "--jobs", "2"], tmp_path)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestBridgeCommand:
    def test_smallest_instance(self, tmp_path):
        code, records, _ = run_cli(["bridge", "--c", "2,3", "--w", "0"], tmp_path)
        assert code == 0
        rec = records[0]
        assert rec["verdict"] == "zero"
        assert rec["params"] == {"c": "2,3", "w": 0, "k": 5, "h": 3}
        assert rec["extra"]["consistent"] is True
        assert rec["extra"]["bridge_coefficient"] == "0"

    def test_invalid_params_are_usage_errors(self, tmp_path):
        code, _, _ = run_cli(["bridge", "--c", "1,3", "--w", "0"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("option,value", [("--H", "2"), ("--s-max", "9"),
                                              ("--j-samples", "3,4"), ("--jobs", "2")])
    def test_budget_and_jobs_are_not_options(self, tmp_path, capsys, option, value):
        # the budget is derived from (c, w), and one instance needs no pool
        with pytest.raises(SystemExit) as exc:
            run_cli(["bridge", "--c", "2,3", "--w", "0", option, value], tmp_path)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_nonzero_config_sum_fails_the_run(self, tmp_path, monkeypatch):
        # positive control: a nonzero sum beside a vanishing coefficient
        real_sum = bridge.sum_collapsed

        def nonzero_sum(inst):
            real = real_sum(inst)
            return ConfigSumResult(real.instance, Fraction(1, 3),
                                   real.configurations_visited, real.elapsed)

        monkeypatch.setattr(bridge, "sum_collapsed", nonzero_sum)
        report = bridge.bridge_check(bridge.bridge_params((2, 3, 4), 1))
        assert report.coefficient_zero and not report.consistent
        code, records, _ = run_cli(["bridge", "--c", "2,3,4", "--w", "1"], tmp_path)
        assert code == 1
        assert records[0]["verdict"] == "nonzero"
        assert records[0]["value"] == "1/3"
        assert records[0]["extra"]["consistent"] is False


class TestSweepCommand:
    def test_small_band(self, tmp_path):
        code, records, _ = run_cli(
            ["sweep", "--g-max", "4", "--jobs", "1"], tmp_path)
        assert code == 0
        assert len(records) == 6
        assert all(r["verdict"] == "zero" for r in records)

    def test_jobs_default_is_serial(self):
        for argv in (["sweep"], ["part1", "--g", "3", "--w", "0", "--c", "2,3,4"]):
            assert build_parser().parse_args(argv).jobs == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--g-max", "2", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_g_max_below_two_is_usage_error(self, tmp_path, capsys):
        code, records, _ = run_cli(["sweep", "--g-max", "1"], tmp_path)
        assert code == 2
        assert records == []
        assert "error: need --g-max >= 2" in capsys.readouterr().err

    def test_budget_zero_marks_everything(self, tmp_path):
        code, records, _ = run_cli(
            ["sweep", "--g-max", "6", "--budget-seconds", "0", "--seed", "8", "--jobs", "1"],
            tmp_path)
        assert code == 0  # no asserted verdict failed; markers are explicit
        assert len(records) == 10 + 5 * 10  # g <= 5 symbolic, then 10 grounds per (6, w)
        assert all(r["status"] == "not_attempted" for r in records)
        # each marker names the instance its run would have recorded
        named = {(p["g"], p["w"], p.get("seed"), p["ground"])
                 for p in (r["params"] for r in records)}
        assert len(named) == len(records)
        for p in (r["params"] for r in records):
            if p["mode"] == "numeric":
                assert p["seed"].startswith(f"8/6/{p['w']}/")
            else:
                assert "seed" not in p

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1e400"])
    def test_budget_must_be_finite_and_nonnegative(self, tmp_path, capsys, value):
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--g-max", "3", f"--budget-seconds={value}",
                  "--ledger", str(path)])
        assert exc.value.code == 2
        assert "--budget-seconds" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["--samples-g6", "-2"],
        ["--samples-g6", "3"],
        ["--samples-g7", "5"],
        ["--exploratory-samples", "1"],
        ["--skip-exploratory"],
    ], ids=lambda argv: " ".join(argv))
    def test_sample_counts_are_not_options(self, tmp_path, capsys, argv):
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--g-max", "6"] + argv + ["--ledger", str(path)])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err
        assert not path.exists()

    def test_part1_random_draws_the_sweeps_grounds(self, tmp_path):
        # the way to ask for more samples: part1 --random with the sweep's seed
        _, swept, _ = run_cli(["sweep", "--g-max", "6", "--seed", "5"], tmp_path, "s.jsonl")
        _, drawn, _ = run_cli(["part1", "--g", "6", "--all-w", "--random", "10",
                               "--seed", "5"], tmp_path, "p.jsonl")

        def named(records):
            return {(p["w"], p["seed"], p["ground"])
                    for p in (r["params"] for r in records) if p["g"] == 6}

        assert len(named(drawn)) == 5 * 10
        assert named(drawn) == named(swept)
        assert all(r["verdict"] == "zero" for r in swept + drawn)

    def test_records_stream_as_instances_finish(self, tmp_path, monkeypatch):
        real_sum = config_sums.sum_collapsed
        calls = []

        def fail_fifth(inst, jobs=1):
            calls.append(inst)
            if len(calls) == 5:
                raise RuntimeError("injected failure in the fifth instance")
            return real_sum(inst, jobs=jobs)

        monkeypatch.setattr(config_sums, "sum_collapsed", fail_fifth)
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(RuntimeError):
            main(["sweep", "--g-max", "5", "--ledger", str(path)])
        records, _ = read_records(str(path))
        assert [(r["params"]["g"], r["params"]["w"]) for r in records] == \
            [(2, 0), (3, 0), (3, 1), (4, 0)]
        assert all(r["verdict"] == "zero" for r in records)


class TestReportCommand:
    def test_empty_ledger_reports_cleanly(self, tmp_path, capsys):
        code = main(["report", "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "ledger records: 0" in capsys.readouterr().out

    def test_report_shows_coverage(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        main(["part1", "--g", "2", "--w", "0", "--c", "2,3",
              "--jobs", "1", "--ledger", str(path)])
        capsys.readouterr()
        code = main(["report", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "g=2: covered w=[0] (complete)" in out

    @pytest.mark.parametrize("params", [{"g": "seven", "w": 0}, ["g", 3]])
    def test_malformed_record_is_skipped(self, tmp_path, capsys, params):
        path = tmp_path / "ledger.jsonl"
        main(["part1", "--g", "2", "--w", "0", "--c", "2,3",
              "--jobs", "1", "--ledger", str(path)])
        record = json.loads(path.read_text().splitlines()[0])
        record["params"] = params
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        capsys.readouterr()
        code = main(["report", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger records: 1" in out
        assert "warning: line 2: skipped corrupt record (params" in out

    def test_undecodable_line_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        main(["part1", "--g", "2", "--w", "0", "--c", "2,3", "--ledger", str(path)])
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        capsys.readouterr()
        code = main(["report", "--ledger", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger records: 1" in out
        assert "warning: line 2: skipped corrupt record ('utf-8' codec" in out

    def test_directory_ledger_is_usage_error(self, tmp_path, capsys):
        code = main(["report", "--ledger", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        assert "Traceback" not in captured.err


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingzero", "part1", "--g", "2",
             "--w", "0", "--c", "4,9", "--jobs", "1",
             "--ledger", str(tmp_path / "l.jsonl")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "zero" in proc.stdout

    def test_env_var_sets_default_ledger_dir(self, tmp_path):
        env_dir = tmp_path / "ledgers"
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingzero", "part1", "--g", "2",
             "--w", "0", "--c", "1,2", "--jobs", "1"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "STIRLINGZERO_LEDGER_DIR": str(env_dir),
                 "PYTHONPATH": ":".join(sys.path)},
        )
        assert proc.returncode == 0
        records, _ = read_records(str(env_dir / "ledger.jsonl"))
        assert len(records) == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["part1", "--g", "3"])  # missing required ground choice
        assert exc.value.code == 2


def _stable_fields(records):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("ts", None)
        rec.pop("elapsed_s", None)
        out.append(json.dumps(rec, sort_keys=True))
    return out


class TestDeterminism:
    def test_jobs_do_not_change_verdicts_or_values(self, tmp_path):
        # identical campaign, serial vs 8 workers: byte-identical stable fields
        args = ["sweep", "--g-max", "5", "--symbolic-g-max", "4", "--seed", "13"]
        _, serial, _ = run_cli(args + ["--jobs", "1"], tmp_path, "serial.jsonl")
        _, parallel, _ = run_cli(args + ["--jobs", "8"], tmp_path, "parallel.jsonl")
        assert len(serial) == 6 + 4 * 3  # symbolic g <= 4, then 3 grounds per (5, w)
        assert {r["params"]["mode"] for r in serial} == {"symbolic", "numeric"}
        assert _stable_fields(serial) == _stable_fields(parallel)

    def test_same_seed_reproduces_byte_identical_values(self, tmp_path):
        args = ["part1", "--g", "5", "--w", "2", "--random", "2",
                "--seed", "3", "--jobs", "1"]
        _, first, _ = run_cli(args, tmp_path, "a.jsonl")
        _, second, _ = run_cli(args, tmp_path, "b.jsonl")
        assert _stable_fields(first) == _stable_fields(second)
