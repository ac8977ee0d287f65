"""Package surface: every exported name resolves, README's example runs, and the
CLI's import loads no dataclass machinery."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stirlingzero

SRC = Path(__file__).resolve().parents[1] / "src"

# __main__ runs the CLI and version holds a constant; neither declares __all__
SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(stirlingzero.__path__)
    if info.name not in ("__main__", "version"))


@pytest.mark.parametrize("name", ["stirlingzero"] + [
    f"stirlingzero.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_readme_library_use_runs_as_written(capsys):
    # the fenced block under README's "Library use", run as a user would
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # the depth-only budget a user reaches for first; it must pass ExpansionConfig's checks
    assert "ExpansionConfig(h_max=3)" in code
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "zero\n"


def test_start_up_loads_no_dataclass_machinery():
    # a fresh interpreter, since pytest itself loads these: the records are
    # NamedTuples, so the CLI's import needs no dataclasses and no inspect
    code = ("import json, sys; import stirlingzero.cli; print(json.dumps(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
