"""Every demo runs from the repository root against the rdgraph under test."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

import rdgraph

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# What a demo must print besides exiting 0: the validation demo's payoff.
EXPECTED = {"05_validation_and_conflicts": "warning (conflict-warning):"}


def run_demo(demo: pathlib.Path) -> subprocess.CompletedProcess:
    package_root = str(pathlib.Path(rdgraph.__file__).resolve().parents[1])
    # No bytecode cache in the checkout: a later benchmark there would import
    # it and report a set-up time that skips compiling the package.
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert EXPECTED.get(demo.stem, "") in done.stdout
    # No demo writes to, or tells the reader to use, a fixed /tmp path.
    assert "/tmp/" not in done.stdout
