"""Shared checks for the tests that run shards in forked pool workers."""

import os

import pytest

# each pool worker is a fork of the test process, so a monkeypatch reaches it
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def assert_no_child_left():
    """Every process this one forked has ended and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
