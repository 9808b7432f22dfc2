"""Shared fixtures.  pyproject.toml puts src/ on the path of the test
process; child interpreters get it through child_env."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def child_env():
    """The environment for a child Python process, with this checkout's
    src/ first on its PYTHONPATH, so the child imports the capsmooth
    under test from a bare checkout too."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
