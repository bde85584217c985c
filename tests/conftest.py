"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppforge


@pytest.fixture
def run_python():
    """run_python(script, *flags) runs ``python [flags] -c script`` in a
    fresh interpreter that imports ppforge from this source tree and
    returns the completed process, its output captured as text."""
    src = str(Path(ppforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(script: str, *flags: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)

    return run


@pytest.fixture
def cold_caches(monkeypatch):
    """cold_caches(ctx) gives the field an empty table cache until the test
    ends, when the entries it held before come back; every table, view and
    verdict the field caches is built afresh meanwhile.  It may be called
    once per hypothesis example: each call starts another empty cache."""
    def cold(ctx):
        monkeypatch.setattr(ctx, "_tables", {})
        monkeypatch.setattr(ctx, "_charged", 0)
        return ctx

    return cold
