"""Package surface: every exported name resolves."""

import importlib
import pkgutil

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
