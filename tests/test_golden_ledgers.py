"""Golden ledgers: six CLI commands rerun and compared with stored runs.

Each file under ``tests/data/golden`` holds one command's arguments, exit
status, printed lines and ledger records, the records without the timing
fields ``ts`` and ``elapsed_s``.  Any moved verdict, value, visit count or
printed line fails here.  A change meant to alter these ledgers rewrites the
files with ``PYTHONPATH=src python tests/test_golden_ledgers.py``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from stirlingzero.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
COMMANDS = {
    "sweep": ["sweep", "--g-max", "7", "--seed", "0"],
    "part2": ["part2", "--H", "8"],
    "bridge_w1": ["bridge", "--c", "2,3,4", "--w", "1"],
    "bridge_w0": ["bridge", "--c", "2,3,4,5,6", "--w", "0"],
    "part1_symbolic": ["part1", "--g", "5", "--all-w", "--symbolic"],
    # a ground that repeats values: the identity is a polynomial one in them
    "part1_multiset": ["part1", "--g", "4", "--all-w", "--c", "1,1,2,2"],
}
TIMING = ("ts", "elapsed_s")


def run(argv, ledger):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([*argv, "--ledger", str(ledger)])
    with open(ledger, encoding="utf-8") as fh:
        records = [{k: v for k, v in json.loads(line).items() if k not in TIMING}
                   for line in fh]
    return {"argv": argv, "status": status, "stdout": out.getvalue().splitlines(),
            "records": records}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_ledger_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run(COMMANDS[name], tmp_path / "ledger.jsonl") == golden


def test_multiset_golden_is_three_asserted_zeros():
    golden = json.loads((GOLDEN / "part1_multiset.json").read_text(encoding="utf-8"))
    assert golden["status"] == 0
    assert [(r["params"]["ground"], r["params"]["w"], r["status"], r["verdict"], r["value"])
            for r in golden["records"]] == [("1,1,2,2", w, "asserted", "zero", "0")
                                            for w in range(3)]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = run(argv, pathlib.Path(tmp) / "ledger.jsonl")
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
