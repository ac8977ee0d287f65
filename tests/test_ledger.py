"""Ledger serialization, append-only discipline, and report rendering."""

import json
from fractions import Fraction

import pytest

from stirlingzero.algebra import MultiPoly
from stirlingzero.cli import main
from stirlingzero.ledger import (
    LedgerRecord,
    default_ledger_path,
    read_records,
    render_report,
    value_str,
    write_record,
)


class TestValueStr:
    def test_rationals_as_integer_ratio_strings(self):
        assert value_str(Fraction(0)) == "0"
        assert value_str(Fraction(-3, 4)) == "-3/4"
        assert value_str(7) == "7"

    def test_polynomials_as_canonical_terms(self):
        c1, c2 = MultiPoly.variable("c1"), MultiPoly.variable("c2")
        p = c2 * 2 - c1 * c1
        # sorted, deterministic text
        assert value_str(p) == value_str(c2 + c2 - c1 ** 2)

    def test_floats_rejected(self):
        for value in (0.5, True):
            with pytest.raises(TypeError):
                value_str(value)


class TestLedgerFile:
    def _record(self, verdict="zero", value="0"):
        return LedgerRecord(
            command="part1", params={"g": 3, "w": 0}, status="asserted",
            verdict=verdict, value=value, visited=5, elapsed=0.01)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_record(str(path), self._record())
        records, warnings = read_records(str(path))
        assert not warnings
        assert len(records) == 1
        rec = records[0]
        assert rec["command"] == "part1"
        assert rec["verdict"] == "zero"
        assert rec["engine"]
        assert rec["ts"]

    def test_rerun_appends_instead_of_mutating(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_record(str(path), self._record())
        write_record(str(path), self._record())
        records, _ = read_records(str(path))
        assert len(records) == 2

    def test_corrupt_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_record(str(path), self._record())
        with open(path, "a") as fh:
            fh.write("{not json\n")
            fh.write("\n   \n")  # blank lines are skipped without a warning
            fh.write(json.dumps({"no_command": True}) + "\n")
        write_record(str(path), self._record())
        records, warnings = read_records(str(path))
        assert len(records) == 2
        assert [w.split(":")[0] for w in warnings] == ["line 2", "line 5"]

    @pytest.mark.parametrize("field,value", [
        ("params", {"g": "seven", "w": 0}),
        ("params", ["g", 3]),
        ("params", {"g": 3, "w": 1.5}),
        ("command", 7),
        ("value", 0),
        ("verdict", ["zero"]),
        ("elapsed_s", float("nan")),
        ("elapsed_s", True),
        ("elapsed_s", "0.01"),
        ("visited", True),
        ("visited", "5"),
    ], ids=["g-text", "params-list", "w-float", "command-int", "value-int", "verdict-list",
            "elapsed-nan", "elapsed-true", "elapsed-text", "visited-true", "visited-text"])
    def test_malformed_fields_skipped_with_warning(self, tmp_path, field, value):
        path = tmp_path / "ledger.jsonl"
        write_record(str(path), self._record())
        bad = json.loads(self._record().to_json())
        bad[field] = value
        with open(path, "a") as fh:
            fh.write(json.dumps(bad) + "\n")
        records, warnings = read_records(str(path))
        assert len(records) == 1
        assert len(warnings) == 1 and "line 2" in warnings[0]
        assert "ledger records: 1" in render_report(records, warnings)

    def test_missing_file_is_empty(self, tmp_path):
        records, warnings = read_records(str(tmp_path / "absent.jsonl"))
        assert records == [] and warnings == []

    def test_default_path_prefers_the_option_then_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STIRLINGZERO_LEDGER_DIR", raising=False)
        assert default_ledger_path() == "./ledger.jsonl"
        monkeypatch.setenv("STIRLINGZERO_LEDGER_DIR", str(tmp_path))
        assert default_ledger_path() == str(tmp_path / "ledger.jsonl")
        assert default_ledger_path("mine.jsonl") == "mine.jsonl"

    def test_a_run_without_the_option_writes_to_the_variables_directory(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("STIRLINGZERO_LEDGER_DIR", str(tmp_path / "ledgers"))
        assert main(["part2", "--H", "1"]) == 0
        records, warnings = read_records(str(tmp_path / "ledgers" / "ledger.jsonl"))
        assert not warnings and [r["command"] for r in records] == ["part2"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledgers"]


class TestReport:
    def test_empty_ledger(self):
        out = render_report([])
        assert "ledger records: 0" in out

    def test_nonzero_verdict_is_flagged(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_record(str(path), LedgerRecord(
            command="part1", params={"g": 3, "w": 0}, status="asserted",
            verdict="nonzero", value="1/7"))
        records, _ = read_records(str(path))
        out = render_report(records)
        assert "NONZERO" in out
        assert "1/7" in out

    def test_coverage_section(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for w in range(4):
            write_record(str(path), LedgerRecord(
                command="sweep", params={"g": 5, "w": w, "mode": "symbolic"},
                status="asserted", verdict="zero", value="0"))
        records, _ = read_records(str(path))
        out = render_report(records)
        assert "g=5: covered w=[0, 1, 2, 3] (complete)" in out
        assert "g=6" in out  # uncovered rows still listed

    def test_slowest_instances_section(self):
        # the five longest elapsed_s, slowest first; untimed records are left out
        records = [{"command": "part1", "params": {"g": g, "w": 0}, "status": "asserted",
                    "verdict": "zero", "value": "0", "elapsed_s": seconds}
                   for g, seconds in [(2, 0.5), (3, 2.25), (4, 0.001), (5, 1), (6, 0.75),
                                      (7, 3.125)]]
        records.append({"command": "part2", "params": {"h": 1, "k": 3}, "status": "asserted",
                        "verdict": "zero", "value": "0", "elapsed_s": None})
        lines = render_report(records).splitlines()
        top = lines.index("slowest instances:")
        assert lines[top + 1:top + 6] == [
            "     3.125s  part1 g=7 w=0",
            "     2.250s  part1 g=3 w=0",
            "     1.000s  part1 g=5 w=0",
            "     0.750s  part1 g=6 w=0",
            "     0.500s  part1 g=2 w=0",
        ]
        assert "part1 g=4 w=0" not in "\n".join(lines[top:])
        assert "part2" not in "\n".join(lines[top:])

    def test_not_attempted_counted(self):
        out = render_report([{
            "command": "sweep", "params": {"g": 7, "w": 4},
            "status": "not_attempted", "verdict": None, "value": None}, {
            "command": "sweep", "params": {"g": 7, "w": 5},
            "status": "exploratory", "verdict": "zero", "value": "0"}])
        assert "not attempted (budget exhausted): 1" in out
        assert "exploratory records: 1 (outside the asserted band" in out
