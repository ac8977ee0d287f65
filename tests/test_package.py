"""Package surface: every exported name resolves, and README's example runs."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import stirlingzero

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
