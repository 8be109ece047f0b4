from __future__ import annotations

import json

import pytest

from conftest import D3, D4, FIXTURE_DIR
from rdgraph import load
from rdgraph.cli import main

DUMP = str(FIXTURE_DIR / "oom-commits.dump")
ARTIFACTS = str(FIXTURE_DIR / "artifacts.jsonl")
ARTIFACTS_D1_D4 = str(FIXTURE_DIR / "artifacts-d1-d4.jsonl")
PROPOSAL = str(FIXTURE_DIR / "proposed-mrelease.txt")


@pytest.fixture()
def graph_file(tmp_path):
    out = tmp_path / "graph.json"
    assert main(["build", ARTIFACTS, "-o", str(out)]) == 0
    return str(out)


@pytest.fixture()
def graph_d1_d4_file(tmp_path):
    out = tmp_path / "graph4.json"
    assert main(["build", ARTIFACTS_D1_D4, "-o", str(out)]) == 0
    return str(out)


def test_ingest_git_dump(tmp_path, capsys):
    out = tmp_path / "artifacts.jsonl"
    assert main(["ingest", DUMP, "--format", "git", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert capsys.readouterr().err.strip() == "ingested 5 artifacts"


def test_ingest_is_idempotent(tmp_path):
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    assert main(["ingest", DUMP, "--format", "git", "-o", str(first)]) == 0
    assert main(["ingest", DUMP, "--format", "git", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # Re-ingesting our own output through the jsonl reader is also stable.
    third = tmp_path / "three.jsonl"
    assert main(["ingest", str(first), "--format", "jsonl", "-o", str(third)]) == 0
    assert third.read_bytes() == first.read_bytes()


def test_ingest_unknown_format_is_a_usage_error(capsys):
    assert main(["ingest", DUMP, "--format", "tarball"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_ingest_missing_file(capsys):
    assert main(["ingest", "no-such-file", "--format", "git"]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_reports_counts(graph_file, capsys):
    graph = load(open(graph_file).read())
    assert len(graph.decisions) == 5


def test_build_empty_corpus_gives_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "graph.json"
    assert main(["build", str(empty), "-o", str(out)]) == 0
    graph = load(out.read_text())
    assert graph.decisions == {}
    assert "decisions=0" in capsys.readouterr().out


def test_build_bad_config_is_an_input_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"thresholds": {"decision": 7}}')
    assert main(["build", ARTIFACTS, "--config", str(config)]) == 2
    assert "thresholds.decision" in capsys.readouterr().err


def test_build_unknown_config_key_is_an_input_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"surprise": true}')
    assert main(["build", ARTIFACTS, "--config", str(config)]) == 2


def test_check_flags_the_proposal_against_the_old_graph(graph_d1_d4_file, capsys):
    code = main(["check", graph_d1_d4_file, "--file", PROPOSAL])
    out = capsys.readouterr().out
    assert code == 1
    assert "conflict-warning" in out
    assert D3 in out


def test_check_unrelated_text_exits_zero(graph_file, capsys):
    code = main(["check", graph_file, "--text", "docs: fix a typo in the manual"])
    assert code == 0
    assert "no findings" in capsys.readouterr().out


def test_check_missing_graph_file(capsys):
    assert main(["check", "missing.json", "--text", "x"]) == 2


def test_check_against_an_empty_graph_is_clean(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "graph.json"
    main(["build", str(empty), "-o", str(out)])
    assert main(["check", str(out), "--text", "mm: add a new cache"]) == 0


def test_check_json_output(graph_d1_d4_file, capsys):
    code = main(["check", graph_d1_d4_file, "--file", PROPOSAL, "--json"])
    assert code == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().split("\n")]
    assert all({"kind", "severity", "subjects", "path", "message"} == set(r) for r in rows)
    assert any(r["kind"] == "conflict-warning" for r in rows)


def test_validate_fixture_graph_is_clean(graph_file, capsys):
    code = main(["validate", graph_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "consistent-pair" in out
    assert "structural-violation" not in out


def test_validate_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "graph.json"
    main(["build", str(empty), "-o", str(out)])
    assert main(["validate", str(out)]) == 0


def test_validate_corrupted_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2


def test_validate_graph_breaking_an_invariant_is_an_input_error(
    graph_file, tmp_path, capsys
):
    doc = json.loads(open(graph_file).read())
    edge = next(e for e in doc["edges"] if e["kind"] == "history")
    edge["from"], edge["to"] = edge["to"], edge["from"]  # now earlier -> later
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(flipped)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: history edge")
    assert "later" in captured.err


def test_export_dot(graph_file, capsys):
    assert main(["export", graph_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph rdg {")
    assert out.rstrip().endswith("}")


def test_query_topic_lists_all_five_decisions(graph_file, capsys):
    assert main(["query", graph_file, "--topic", "t1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 6  # heading + five decision lines
    assert "oom reaper" in out


def test_query_decision_shows_neighborhood(graph_file, capsys):
    assert main(["query", graph_file, "--decision", D4, "--hops", "1"]) == 0
    out = capsys.readouterr().out
    assert "mm, oom: introduce oom reaper" in out
    assert "topic t1" in out


def test_query_unknown_id_is_an_input_error(graph_file, capsys):
    assert main(["query", graph_file, "--topic", "t99"]) == 2
    assert main(["query", graph_file, "--decision", "nope#0"]) == 2
