"""Pinned graph, findings and check bytes of the benchmark corpora.

Each workload of ``perfbench/gen.py`` is generated and built once per module
at seed 101 the way the benchmark builds it (``rdgraph ingest`` then
``rdgraph build``, in-process).  The graph file's SHA-256 must be the pinned
one, as must the SHA-256 of what ``rdgraph validate --json`` prints for that
graph, and a digest of what ``rdgraph check --file <proposal> --json``
prints, with its exit code, for each of the workload's 120 proposals (each
check runs once per module), and so must the number of proposals of each
planted label that get a conflict warning.  A change that moves a byte of a graph file, of its findings or of a check fails
here; a change meant to move bytes (a new graph format, say) updates the pins
and says why.  Each graph must also load into the public record types.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from helpers import assert_records_keep_their_types
from rdgraph import build_pipeline, default_config, load, parse_jsonl, textsim
from rdgraph.cli import main
from rdgraph.validate import CONFLICT_WARNING

GEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # dataclasses look their module up by name
    return module


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """``built(workload)`` is ``(graph path, proposals)``, made once per module."""
    cache = {}

    def build(workload):
        if workload not in cache:
            tmp_path = tmp_path_factory.mktemp(workload)
            generated = getattr(_gen(), workload)(101)
            dump = tmp_path / "input.dump"
            dump.write_text(generated.dump, encoding="utf-8")
            artifacts, graph = tmp_path / "artifacts.jsonl", tmp_path / "graph.json"
            assert main(["ingest", str(dump), "--format", "git", "-o", str(artifacts)]) == 0
            assert main(["build", str(artifacts), "-o", str(graph)]) == 0
            cache[workload] = graph, generated.proposals
        return cache[workload]

    return build


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("history", "fd35785ea88c16060af26c7caf6cd8da375da6eb1b031ccdb1098ec770298eca"),
        ("longbody", "ac4a4971d6d3f2202dc375f569cbd8f0c889ef13ff79d708a07d5cc8a680801f"),
    ],
    ids=["history", "longbody"],
)
def test_benchmark_graph_bytes_are_pinned(built, capsys, workload, digest):
    graph, _ = built(workload)
    capsys.readouterr()
    assert hashlib.sha256(graph.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "workload, digest, lines",
    [
        ("history", "1046b00c81e44ce66e44ba7f95f79ff661b41a06cb1f4246fbd5cbb1ac51a724", 1027),
        ("longbody", "8a4ae36879df100fd197ad24cf2b617ad14b6b232c67803e943d3038725e8478", 12),
    ],
)
def test_benchmark_findings_bytes_are_pinned(built, capsys, workload, digest, lines):
    graph, _ = built(workload)
    capsys.readouterr()
    assert main(["validate", str(graph), "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "workload, export_digest, query_digest",
    [
        ("history",
         "15682b786c13ece22b8aeedec54dc9caf8f147421a16bf1d2a0f0eb2b4ed6077",
         "a5f34fcbe8bf2188329e099e3a1cffdd03206ba93cc55d155305b978dce95853"),
        ("longbody",
         "e530e51330b5477b9df1e732dca50da11ed875cf719f3699bd7cb911510cd863",
         "5a652326b91082692a471cdcc05f7c307f5f6c5ff50a42285a868525b19053a0"),
    ],
    ids=["history", "longbody"],
)
def test_benchmark_export_and_query_bytes_are_pinned(
    built, capsys, workload, export_digest, query_digest
):
    graph, _ = built(workload)
    capsys.readouterr()
    first = min(d["id"] for d in json.loads(graph.read_text(encoding="utf-8"))["decisions"])
    for argv, digest in (
        (["export", str(graph), "--dot"], export_digest),
        (["query", str(graph), "--decision", first, "--hops", "3"], query_digest),
    ):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def checked(built, tmp_path_factory):
    """``checked(workload, config)`` runs ``rdgraph check --json`` on each proposal.

    It gives ``[(proposal, exit code, stdout), ...]``, made once per module
    for each config (``None`` for the defaults).
    """
    cache = {}

    def check(workload, config):
        key = workload, json.dumps(config)
        if key not in cache:
            graph, proposals = built(workload)
            tmp_path = tmp_path_factory.mktemp(f"check-{workload}")
            options = []
            if config is not None:
                options = ["--config", str(tmp_path / "config.json")]
                (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            runs = []
            for index, proposal in enumerate(proposals):
                path = tmp_path / f"proposal-{index:03d}.txt"
                path.write_text(proposal.text + "\n", encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["check", str(graph), "--file", str(path), "--json", *options])
                assert err.getvalue() == ""
                runs.append((proposal, code, out.getvalue()))
            cache[key] = runs
        return cache[key]

    return check


def test_clean_checks_vectorize_only_the_candidate(built, tmp_path, monkeypatch):
    # A held-out proposal shares no token with any decision, so the score
    # bound rules every decision out before its vector is built.
    graph, proposals = built("history")
    vector = textsim._vector
    built_vectors = []
    monkeypatch.setattr(
        textsim, "_vector", lambda *args: built_vectors.append(1) or vector(*args)
    )
    for index, proposal in enumerate(proposals):
        if proposal.label != "clean":
            continue
        path = tmp_path / f"proposal-{index:03d}.txt"
        path.write_text(proposal.text + "\n", encoding="utf-8")
        built_vectors.clear()
        assert main(["check", str(graph), "--file", str(path), "--json"]) == 0
        assert len(built_vectors) == 1


# At the default k = 2 a check never reports a conflict via a similar
# decision; k = 3 is the smallest budget that reaches that branch.
@pytest.mark.parametrize(
    "workload, config, digest, exits",
    [
        ("history", None,
         "8ca6206eb764c0a9b445e96ee531e129e32d9a23487efd0a513239b089c0e769", {0: 63, 1: 57}),
        ("history", {"k": 3},
         "6d1b9fa89d77ec72889d677cbe77875260dd9bed70c8878807b5275347bcee52", {0: 40, 1: 80}),
        ("longbody", None,
         "b878b4e116ce0cad33da929f4a77f8de79d4e60d771401c8775156579d9bbdb9", {0: 67, 1: 53}),
        ("longbody", {"k": 3},
         "1fc99e872f6c69a9f18b761a0903e764a9c5908822fc1715653d1f92c7d4c145", {0: 64, 1: 56}),
    ],
    ids=["history-k2", "history-k3", "longbody-k2", "longbody-k3"],
)
def test_benchmark_check_bytes_are_pinned(checked, workload, config, digest, exits):
    checks = checked(workload, config)
    runs = [
        f"{index} {code} {hashlib.sha256(out.encode()).hexdigest()}\n"
        for index, (_, code, out) in enumerate(checks)
    ]
    assert len(runs) == 120
    assert dict(collections.Counter(code for _, code, _ in checks)) == exits
    assert hashlib.sha256("".join(runs).encode()).hexdigest() == digest


# How many of the 40 proposals of each label get a conflict warning (exit
# code 1): every rewording of a reverted decision, some rewordings of a live
# one, and no novel proposal.  A change to how check links or walks states
# how it moves these counts.
@pytest.mark.parametrize(
    "workload, config, warned",
    [
        ("history", None, {"warn": 40, "live": 17, "clean": 0}),
        ("history", {"k": 3}, {"warn": 40, "live": 40, "clean": 0}),
        ("longbody", None, {"warn": 40, "live": 13, "clean": 0}),
        ("longbody", {"k": 3}, {"warn": 40, "live": 16, "clean": 0}),
    ],
    ids=["history-k2", "history-k3", "longbody-k2", "longbody-k3"],
)
def test_benchmark_proposals_that_warn_per_label_are_pinned(
    checked, workload, config, warned
):
    runs = checked(workload, config)
    labels = collections.Counter(proposal.label for proposal, _, _ in runs)
    assert labels == {"warn": 40, "live": 40, "clean": 40}
    counts = collections.Counter({label: 0 for label in warned})
    for proposal, code, out in runs:
        assert code == (CONFLICT_WARNING in out)
        counts[proposal.label] += code
    assert dict(counts) == warned


@pytest.mark.parametrize("workload", ["history", "longbody"])
def test_benchmark_graphs_load_into_their_record_types(built, workload):
    graph, _ = built(workload)
    artifacts = (graph.parent / "artifacts.jsonl").read_text(encoding="utf-8")
    expected = build_pipeline(parse_jsonl(artifacts), default_config())
    assert_records_keep_their_types(expected, load(graph.read_text(encoding="utf-8")))
