"""Pinned graph bytes of the benchmark corpora.

Each workload of ``perfbench/gen.py`` is built at seed 101 the way the
benchmark builds it (``rdgraph ingest`` then ``rdgraph build``, in-process),
and the graph file's SHA-256 must be the pinned one, as must the SHA-256 of
what ``rdgraph validate --json`` prints for that graph.  A change that moves
a byte of a graph file or of its findings fails here; a change meant to move
bytes (a new graph format, say) updates the pins and says why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from rdgraph.cli import main

GEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # dataclasses look their module up by name
    return module


def _build(tmp_path, workload):
    dump = tmp_path / "input.dump"
    dump.write_text(getattr(_gen(), workload)(101).dump, encoding="utf-8")
    artifacts, graph = tmp_path / "artifacts.jsonl", tmp_path / "graph.json"
    assert main(["ingest", str(dump), "--format", "git", "-o", str(artifacts)]) == 0
    assert main(["build", str(artifacts), "-o", str(graph)]) == 0
    return graph


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("history", "710db2e15ef979aa48a6a71bfd6f258149736d300d69aa72aed23c36eae47d35"),
        ("longbody", "48f31e7b83ccf8579ca752ba9c1e92e352a58cf523f0aa2733201ba6515c3529"),
    ],
)
def test_benchmark_graph_bytes_are_pinned(tmp_path, capsys, workload, digest):
    graph = _build(tmp_path, workload)
    capsys.readouterr()
    assert hashlib.sha256(graph.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "workload, digest, lines",
    [
        ("history", "1046b00c81e44ce66e44ba7f95f79ff661b41a06cb1f4246fbd5cbb1ac51a724", 1027),
        ("longbody", "8a4ae36879df100fd197ad24cf2b617ad14b6b232c67803e943d3038725e8478", 12),
    ],
)
def test_benchmark_findings_bytes_are_pinned(tmp_path, capsys, workload, digest, lines):
    graph = _build(tmp_path, workload)
    capsys.readouterr()
    assert main(["validate", str(graph), "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
