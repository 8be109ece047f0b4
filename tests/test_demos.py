"""Every demo and the README's library example run from the repository root
against the rdgraph under test, whose public names they import."""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

import pytest

import rdgraph
from rdgraph import relations, textsim

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# What a demo must print besides exiting 0: the validation demo's payoff.
EXPECTED = {"05_validation_and_conflicts": "warning (conflict-warning):"}


def run_python(*args: str) -> subprocess.CompletedProcess:
    package_root = str(pathlib.Path(rdgraph.__file__).resolve().parents[1])
    # No bytecode cache in the checkout: a later benchmark there would import
    # it and report a set-up time that skips compiling the package.
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_there_are_five_demos():
    assert len(DEMOS) == 5


# Development mode with warnings as errors: a leaked file handle or a
# deprecation prints a warning to stderr.
STRICT = ("-X", "dev", "-W", "error")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    done = run_python(*STRICT, str(demo))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    assert EXPECTED.get(demo.stem, "") in done.stdout
    # No demo writes to, or tells the reader to use, a fixed /tmp path.
    assert "/tmp/" not in done.stdout


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.S | re.M)
    assert '"/tmp/graph.json"' in code
    graph_file = tmp_path / "graph.json"
    done = run_python(*STRICT, "-c", code.replace('"/tmp/graph.json"', repr(str(graph_file))))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "decisions," in done.stdout and "conflict-warning" in done.stdout
    assert rdgraph.load(graph_file.read_text(encoding="utf-8")).decisions


def test_public_names_are_sorted_unique_and_resolve():
    names = rdgraph.__all__
    assert names == sorted(set(names))
    assert all(hasattr(rdgraph, name) for name in names)
    # One TF-IDF path (TfIdfProvider, counting tokens with
    # textsim.token_counts), one structural check (graph.graph_violations)
    # and one relation rule per decision pair (pair_edges): the second entry
    # points are gone.
    absent = ("build_model", "similarity", "validate_structure", "detect_history",
              "detect_contradicts", "contradiction_score", "score_decision",
              "similar_edge", "edge_evidence", "tokenize")
    for name in absent:
        assert name not in names and not hasattr(rdgraph, name)
    assert not any(hasattr(textsim, name) for name in ("vectorize", "tokenize"))
    assert not any(hasattr(relations, name) for name in ("similar_edge", "edge_evidence"))
