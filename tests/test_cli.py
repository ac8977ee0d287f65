"""Command-line interface: subcommands, ledger output, exit codes."""

import json
import random
import subprocess
import sys
import time

import pytest

from forking import assert_no_child_left, needs_fork
from stirlingzero import bridge, config_sums
from stirlingzero.algebra import ConsistencyError, MultiPoly
from stirlingzero.cli import build_parser, main
from stirlingzero.ledger import read_records, value_str


def run_cli(args, tmp_path, ledger="ledger.jsonl"):
    path = tmp_path / ledger
    code = main(list(args) + ["--ledger", str(path)])
    records, warnings = read_records(str(path))
    return code, records, warnings


def _p1_plus_one(monkeypatch):
    # positive control: P_1 comes back plus one, as in the benchmark
    def plus_one(real):
        return lambda w, t: real(w, t) + 1 if w == 1 else real(w, t)

    monkeypatch.setattr(config_sums, "eval_P", plus_one(config_sums.eval_P))
    monkeypatch.setattr(config_sums, "eval_P_symbolic", plus_one(config_sums.eval_P_symbolic))


def _stray_term_at_offset_one(monkeypatch):
    # a stray variable in the offset-1 value at every rational point
    z = MultiPoly.variable("z")
    for name in ("eval_P", "eval_P_symbolic"):
        real = getattr(config_sums, name)
        monkeypatch.setattr(config_sums, name, lambda v, t, real=real: real(v, t) + z
                            if v == 1 and not isinstance(t, MultiPoly) else real(v, t))


class TestPart1Command:
    @pytest.mark.parametrize("ground", [["--c", "2,3,5,7"], ["--symbolic"]],
                             ids=["numeric", "symbolic"])
    @pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=needs_fork)])
    def test_a_stray_term_stops_the_run(self, monkeypatch, tmp_path, capsys, ground, jobs):
        # positive control: a block value that is not a rational is an engine
        # error, exit 2 with no verdict and no record, not a zero verdict
        _stray_term_at_offset_one(monkeypatch)
        code, records, _ = run_cli(["part1", "--g", "4", "--w", "1", *ground, "--jobs", jobs],
                                   tmp_path)
        out = capsys.readouterr()
        assert code == 2
        assert records == []
        assert " -> " not in out.out
        assert "expected an exact rational, got MultiPoly" in out.err
        assert_no_child_left()

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

    def test_list_starting_with_a_negative_value_needs_the_equals_form(self, tmp_path, capsys):
        # argparse reads a spaced "-2,-1,..." as an option, so such a list is
        # written --c=-2,-1,...
        code, records, _ = run_cli(
            ["part1", "--g", "6", "--all-w", "--c=-2,-1,0,1,2,3", "--jobs", "1"], tmp_path)
        assert code == 0
        assert [r["verdict"] for r in records] == ["zero"] * 5
        with pytest.raises(SystemExit) as exc:
            run_cli(["part1", "--g", "6", "--all-w", "--c", "-2,-1,0,1,2,3"], tmp_path)
        assert exc.value.code == 2
        assert "argument --c: expected one argument" in capsys.readouterr().err

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

    @pytest.mark.parametrize("ground, weights, ws", [
        ("2,2,3", ["--w", "0"], [0]),
        ("0,0,0", ["--all-w"], [0, 1]),  # the zero lemma, P_v(0) = 0 for v >= 1
        ("1/2,1/2,3", ["--w", "1"], [1]),
    ], ids=["repeated-integer", "repeated-zero", "repeated-fraction"])
    def test_repeated_ground_values_sum_to_zero(self, tmp_path, capsys, ground, weights, ws):
        # the sum is a polynomial in the ground values, so a repeated value is
        # one more point: an ordinary ground, walked over all 5 partitions
        code, records, _ = run_cli(["part1", "--g", "3", *weights, "--c", ground], tmp_path)
        assert code == 0
        assert [(r["params"]["w"], r["params"]["ground"], r["status"], r["verdict"],
                 r["visited"]) for r in records] == [(w, ground, "asserted", "zero", 5)
                                                     for w in ws]
        assert capsys.readouterr().err == ""

    def test_random_ground_past_its_support_is_usage_error(self, tmp_path, capsys):
        code, records, _ = run_cli(["part1", "--g", "144", "--w", "0", "--random", "1"],
                                   tmp_path)
        assert code == 2
        assert records == []
        assert "error: a random ground has at most 143 distinct values" in capsys.readouterr().err


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

    def test_repeated_value_is_refused_for_its_monomial(self, tmp_path, capsys):
        # part 1 takes a repeated value, but the bridge's target monomial is
        # squarefree, one u_c per ground value
        code, records, _ = run_cli(["bridge", "--c", "2,2,3", "--w", "0"], tmp_path)
        assert code == 2
        assert records == []
        assert "non-squarefree monomial u_c^m" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--H", "2"), ("--s-max", "9"),
                                              ("--j-samples", "3,4"), ("--jobs", "2")])
    def test_budget_and_jobs_are_not_options(self, tmp_path, capsys, option, value):
        # the budget is derived from (c, w), and one instance needs no pool
        with pytest.raises(SystemExit) as exc:
            run_cli(["bridge", "--c", "2,3", "--w", "0", option, value], tmp_path)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_nonzero_config_sum_fails_the_run(self, tmp_path, monkeypatch):
        # positive control: a nonzero sum beside a vanishing coefficient.  The
        # P_1 + 1 fault reaches both configuration-sum routes, so the oracle
        # confirms the total (1 here), as part1 and sweep confirm theirs
        _p1_plus_one(monkeypatch)
        report = bridge.bridge_check(bridge.bridge_params((2, 3, 5, 7), 1))
        assert report.coefficient_zero and not report.consistent
        code, records, _ = run_cli(["bridge", "--c", "2,3,5,7", "--w", "1"], tmp_path)
        assert code == 1
        assert records[0]["verdict"] == "nonzero"
        assert records[0]["value"] == "1"
        extra = records[0]["extra"]
        assert extra["consistent"] is False
        assert extra["oracle_total"] == records[0]["value"]
        # the second ground is drawn under the label "seed+1/g/w/index" at seed 0
        assert extra["second_ground"] == config_sums.random_ground(
            4, random.Random("1/4/1/0")).describe()
        assert extra["second_total"] != "0"

    def test_nonzero_total_is_confirmed_where_run_plan_confirms_it(self, tmp_path, monkeypatch):
        # bridge_check confirms its configuration sum as run_plan confirms
        # entry 0 of a plan run at seed 0, at the same second ground, and the
        # command records that confirmation
        _p1_plus_one(monkeypatch)
        report = bridge.bridge_check(bridge.bridge_params((2, 3, 5, 7), 1))
        plan = [config_sums.SweepEntry(report.config_sum.instance, "asserted")]
        [entry] = config_sums.run_plan(plan, seed=0, jobs=1)
        assert report.confirmation == entry.confirmation
        assert report.confirmation.second_ground is not None
        code, records, _ = run_cli(["bridge", "--c", "2,3,5,7", "--w", "1"], tmp_path)
        assert code == 1
        extra = records[0]["extra"]
        assert extra["second_ground"] == report.confirmation.second_ground.describe()
        assert extra["second_total"] == value_str(report.confirmation.second_total)

    def test_unconfirmed_nonzero_total_stops_the_run(self, tmp_path, monkeypatch, capsys):
        # a collapsed-route fault the oracle does not share is an engine
        # error, not a counterexample: exit 2 and no record
        real_table = config_sums._block_table

        def faulted(inst):
            table, scale = real_table(inst)
            table = list(table)
            table[0b011] = (table[0b011][0], *(x + 1 for x in table[0b011][1:]))
            return table, scale

        monkeypatch.setattr(config_sums, "_block_table", faulted)
        code, records, _ = run_cli(["bridge", "--c", "2,3,5,7", "--w", "1"], tmp_path)
        assert code == 2
        assert records == []
        assert "collapsed route and pointed oracle disagree" in capsys.readouterr().err

    def test_elapsed_times_the_whole_check(self, tmp_path, monkeypatch):
        # the record times both verifiers, so a slow expansion shows in the
        # report's slowest instances, not the configuration sum's time alone
        real = bridge.bridge_coefficient

        def slow(inst):
            time.sleep(0.05)
            return real(inst)

        monkeypatch.setattr(bridge, "bridge_coefficient", slow)
        code, records, _ = run_cli(["bridge", "--c", "2,3,4", "--w", "1"], tmp_path)
        assert code == 0
        assert records[0]["elapsed_s"] >= 0.05


class TestSweepCommand:
    @pytest.mark.parametrize("symbolic_g_max", ["5", "2"], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=needs_fork)])
    def test_a_stray_term_stops_the_sweep(self, monkeypatch, tmp_path, capsys,
                                          symbolic_g_max, jobs):
        # the fault reaches offset 1 only, first at g = 3, w = 1: the sweep
        # exits 2 there, and only the w = 0 entries before it have a verdict
        _stray_term_at_offset_one(monkeypatch)
        code, records, _ = run_cli(["sweep", "--g-max", "4", "--symbolic-g-max", symbolic_g_max,
                                    "--jobs", jobs], tmp_path)
        out = capsys.readouterr()
        assert code == 2
        assert {(r["params"]["g"], r["params"]["w"]) for r in records} == {(2, 0), (3, 0)}
        lines = out.out.splitlines()
        assert len(lines) == len(records) and all(" w=0 " in line for line in lines)
        assert "expected an exact rational, got MultiPoly" in out.err
        assert_no_child_left()

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

    def test_g_max_past_the_random_support_is_usage_error(self, tmp_path, capsys):
        # refused before any ground is drawn, so the budget is not needed to stop it
        code, records, _ = run_cli(["sweep", "--g-max", "144", "--budget-seconds", "1"],
                                   tmp_path)
        assert code == 2
        assert records == []
        assert "error: a random ground has at most 143 distinct values" in capsys.readouterr().err

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

    def test_records_stream_as_instances_finish(self, tmp_path, monkeypatch, capsys):
        # each walk's result is built in this process once the walk is done
        real_result = config_sums.ConfigSumResult
        calls = []

        def fail_fifth(inst, *fields):
            calls.append(inst)
            if len(calls) == 5:
                raise RuntimeError("injected failure in the fifth instance")
            return real_result(inst, *fields)

        monkeypatch.setattr(config_sums, "ConfigSumResult", fail_fifth)
        path = tmp_path / "ledger.jsonl"
        assert main(["sweep", "--g-max", "5", "--ledger", str(path)]) == 2
        assert "error: injected failure in the fifth instance" in capsys.readouterr().err
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


COMMANDS = {
    "part1": ["part1", "--g", "2", "--w", "0", "--c", "2,3"],
    "part2": ["part2", "--H", "1"],
    "bridge": ["bridge", "--c", "2,3", "--w", "0"],
    "sweep": ["sweep", "--g-max", "2"],
    "report": ["report"],
}


class TestExitStatus:
    """0 when every asserted verdict is zero, 1 when one is not, 2 when the run stops."""

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_directory_ledger_is_usage_error(self, tmp_path, capsys, argv):
        code = main(argv + ["--ledger", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_empty_ledger_path_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # an unset shell variable must not fall back to ./ledger.jsonl
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("STIRLINGZERO_LEDGER_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--ledger", ""])
        assert exc.value.code == 2
        assert "--ledger" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_engine_error_stops_the_run_and_keeps_its_records(self, tmp_path, monkeypatch,
                                                              capsys):
        real_result = config_sums.ConfigSumResult
        calls = []

        def fail_third(inst, *fields):
            calls.append(inst)
            if len(calls) == 3:
                raise ConsistencyError("injected in the third instance")
            return real_result(inst, *fields)

        monkeypatch.setattr(config_sums, "ConfigSumResult", fail_third)
        code, records, _ = run_cli(["sweep", "--g-max", "4"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "error: injected in the third instance" in err
        assert "Traceback" not in err
        assert [(r["params"]["g"], r["params"]["w"]) for r in records] == [(2, 0), (3, 0)]

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_any_exception_stops_the_run_with_exit_two(self, tmp_path, monkeypatch, capsys,
                                                       jobs):
        # exit 1 would read as a counterexample; a local class does not
        # pickle, so at --jobs 2 the shard's error arrives as a RuntimeError
        real_partial = config_sums._collapsed_partial

        class Unpicklable(Exception):
            pass

        def fail_at_four(inst, values, part=0, parts=1):
            if inst.g == 4:
                raise Unpicklable("injected at g = 4")
            return real_partial(inst, values, part, parts)

        monkeypatch.setattr(config_sums, "_collapsed_partial", fail_at_four)
        monkeypatch.setattr(config_sums, "_usable_cpus", lambda: 2)
        code, records, _ = run_cli(["sweep", "--g-max", "5", "--jobs", str(jobs)], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" in err
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and "injected at g = 4" in last
        assert [(r["params"]["g"], r["params"]["w"]) for r in records] == \
            [(2, 0), (3, 0), (3, 1)]
        assert all(r["verdict"] == "zero" for r in records)
        if jobs > 1:
            assert_no_child_left()

    def test_control_fault_exits_one_with_confirmed_records(self, tmp_path, monkeypatch,
                                                            capsys):
        _p1_plus_one(monkeypatch)
        code, records, _ = run_cli(["part1", "--g", "4", "--w", "1", "--c", "2,3,5,7"],
                                   tmp_path)
        assert code == 1
        numeric = records[-1]
        assert (numeric["status"], numeric["verdict"]) == ("asserted", "nonzero")
        extra = numeric["extra"]
        assert sorted(extra) == ["oracle_total", "second_ground", "second_total"]
        assert extra["oracle_total"] == numeric["value"] != "0"
        assert extra["second_total"] != "0"
        code, records, _ = run_cli(["part1", "--g", "3", "--w", "1", "--symbolic"], tmp_path)
        assert code == 1
        symbolic = records[-1]
        assert symbolic["verdict"] == "nonzero"
        assert symbolic["extra"] == {"oracle_total": symbolic["value"]}
        capsys.readouterr()
        assert main(["report", "--ledger", str(tmp_path / "ledger.jsonl")]) == 0
        out = capsys.readouterr().out
        flagged = out.split("!! NONZERO VERDICTS (counterexample candidates)\n")[1]
        assert flagged.splitlines()[:2] == [
            f"  part1 g=4 ground=2,3,5,7 mode=numeric w=1 status=asserted "
            f"value={numeric['value']}",
            f"  part1 g=3 ground=c1,c2,c3 mode=symbolic w=1 status=asserted "
            f"value={symbolic['value']}"]

    def test_control_fault_is_confirmed_at_scale(self, tmp_path, monkeypatch):
        # the oracle confirms a nonzero where a literal walk of every ordered
        # configuration (318 million at g = 8, w = 6) could not
        _p1_plus_one(monkeypatch)
        code, records, _ = run_cli(["part1", "--g", "8", "--w", "6", "--random", "1"],
                                   tmp_path)
        assert code == 1
        [record] = records
        assert record["verdict"] == "nonzero"
        assert record["extra"]["oracle_total"] == record["value"] != "0"
        assert record["extra"]["second_total"] != "0"

    @pytest.mark.parametrize("argv, message", [
        ("part1 --g 4 --w 3 --c 2,3,5,7", "need 0 <= w <= g-2, got w=3 for g=4"),
        ("part1 --g 4 --w -1 --c 2,3,5,7", "need 0 <= w <= g-2, got w=-1 for g=4"),
        ("part1 --g 1 --all-w --c 1", "need --g >= 2"),
        ("part1 --g 4 --w 3 --random 1", "need 0 <= w <= g-2, got w=3 for g=4"),
        ("bridge --c 2,3,4 --w 2", "need 0 <= w <= g-2, got w=2 for g=3"),
    ], ids=["w-above", "w-negative", "g-one", "w-above-random", "bridge-w-above"])
    def test_outside_the_band_is_refused_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                         argv, message):
        # an instance takes any w >= 0, so each command checks the band it
        # claims a zero on, before it draws a ground or writes a record
        drawn = []
        monkeypatch.setattr(config_sums, "random_ground", lambda g, rng: drawn.append(g))
        code = main(argv.split() + ["--ledger", str(tmp_path / "ledger.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert drawn == [] and list(tmp_path.iterdir()) == []

    def test_g_below_two_is_usage_error(self, tmp_path, capsys):
        # --all-w at g = 1 plans no instance, so without the check it would pass
        code, records, _ = run_cli(["part1", "--g", "1", "--all-w", "--symbolic"], tmp_path)
        assert code == 2
        assert records == []
        assert "error: need --g >= 2" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["sweep", "--budget-seconds", "abc"],
                     "argument --budget-seconds: expected a number of seconds, got 'abc'",
                     id="budget-seconds"),
        pytest.param(["sweep", "--jobs", "two"],
                     "argument --jobs: expected a positive integer, got 'two'",
                     id="jobs"),
        pytest.param(["part1", "--g", "3", "--w", "0", "--random", "x"],
                     "argument --random: expected a positive integer, got 'x'",
                     id="random"),
        pytest.param(["part1", "--g", "2", "--w", "0", "--c", "2,x"],
                     "argument --c: expected a comma-separated list of rationals, got '2,x'",
                     id="part1-c"),
        pytest.param(["bridge", "--w", "0", "--c", "2,x"],
                     "argument --c: expected a comma-separated list of integers, got '2,x'",
                     id="bridge-c"),
    ])
    def test_unparsable_value_names_the_expected_type(self, tmp_path, capsys, argv, message):
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--ledger", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "invalid _" not in err
        assert not path.exists()


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
