from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import D3, D4, FIXTURE_DIR
import rdgraph
from rdgraph import cli, load, save
from rdgraph.cli import main
from rdgraph.config import DEFAULTS, default_config, from_dict, load_config

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
    graph = load(pathlib.Path(graph_file).read_text())
    assert len(graph.decisions) == 5


def test_build_to_stdout_writes_the_graph_alone(tmp_path, capsys):
    # `rdgraph build a.jsonl > g.json` must give a graph file: the summary
    # goes to stderr then, and stays on stdout with -o.
    assert main(["build", ARTIFACTS]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("decisions=5 ")
    graph = tmp_path / "graph.json"
    graph.write_text(captured.out, encoding="utf-8")
    assert main(["validate", str(graph)]) == 0


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


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"k": true}', "k: must be an integer >= 0"),
        ('{"window": false}', "window: must be an integer >= 0"),
        ('{"thresholds": {"similar": true}}', "thresholds.similar: must be a number in [0, 1]"),
        ('{"thresholds": {"duplicate": false}}', "thresholds.duplicate: must be a number in [0, 1]"),
    ],
    ids=["k", "window", "threshold-true", "threshold-false"],
)
def test_boolean_config_number_is_an_input_error(graph_d1_d4_file, tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(config)
    capsys.readouterr()
    assert main(["check", graph_d1_d4_file, "--file", PROPOSAL, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_default_config_is_parsed_once_and_read_only():
    shared = load_config(None)
    assert shared is default_config()
    assert shared == from_dict(DEFAULTS)
    with pytest.raises(TypeError):
        shared.markers["purpose"] = ("so that",)
    assert shared.markers["purpose"] == tuple(DEFAULTS["lexicons"]["markers"]["purpose"])


def _package_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports the rdgraph under
    test and writes no bytecode."""
    src = str(pathlib.Path(rdgraph.__file__).parent.parent)
    return {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }


def test_start_up_generates_no_code():
    """No rdgraph class is a dataclass, so a fresh interpreter that imports
    the CLI loads neither ``dataclasses`` nor ``inspect``."""
    for info in pkgutil.iter_modules(rdgraph.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"rdgraph.{info.name}")
            for value in vars(module).values():
                assert not (isinstance(value, type) and dataclasses.is_dataclass(value)), value
    probe = "import sys, rdgraph.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: a .pth file that site runs may load inspect itself.
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=_package_env(), capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


# Each blank entry used to build a wrong graph with exit 0: a blank purpose
# marker made every word a span, a blank cue phrase made a decision of every
# sentence, and a blank negative cue made none.
@pytest.mark.parametrize(
    "config, path",
    [
        ('{"lexicons": {"markers": {"purpose": ["", "so that"]}}}', "lexicons.markers.purpose"),
        ('{"lexicons": {"markers": {"manner": ["this way", " \\t"]}}}', "lexicons.markers.manner"),
        ('{"lexicons": {"cue_phrases": ["", "agreed to"]}}', "lexicons.cue_phrases"),
        ('{"lexicons": {"negative_cues": [" "]}}', "lexicons.negative_cues"),
        ('{"lexicons": {"stopwords": ["a", "\\n"]}}', "lexicons.stopwords"),
        ('{"lexicons": {"abbreviations": ["vs", ".."]}}', "lexicons.abbreviations"),
    ],
    ids=[
        "marker-empty", "marker-whitespace", "cue-phrase", "negative-cue", "stopword",
        "abbreviation-dots",
    ],
)
def test_blank_lexicon_entry_is_an_input_error(tmp_path, capsys, config, path):
    config_file = tmp_path / "config.json"
    config_file.write_text(config)
    capsys.readouterr()
    assert main(["build", ARTIFACTS, "--config", str(config_file)]) == 2
    assert capsys.readouterr().err == f"error: {path}: entries must not be blank\n"


def test_empty_scorer_lexicon_is_an_input_error(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text('{"lexicons": {"action_verbs": []}}')
    capsys.readouterr()
    assert main(["build", ARTIFACTS, "--config", str(config_file)]) == 2
    assert capsys.readouterr().err == "error: lexicons.action_verbs: must not be empty\n"


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
    doc = json.loads(pathlib.Path(graph_file).read_text())
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


NOT_UTF8 = b"\xff\xfe not utf-8 \xc3("


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "{bad}", "--format", "git"],
        ["build", "{bad}"],
        ["check", "{graph}", "--file", "{bad}"],
        ["validate", "{bad}"],
        ["build", ARTIFACTS, "--config", "{bad}"],
    ],
    ids=["ingest", "build", "check-file", "validate", "config"],
)
def test_non_utf8_input_is_an_input_error(graph_file, tmp_path, capsys, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    argv = [a.format(bad=bad, graph=graph_file) for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err
    assert "not valid UTF-8" in err


def _artifact_line(body: str) -> str:
    return json.dumps(
        {"id": "m1", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z",
         "summary": "s: add a cache", "body": body}
    )


@pytest.mark.parametrize(
    "argv",
    [["ingest", "{path}", "--format", "jsonl", "-o", "{out}"], ["build", "{path}", "-o", "{out}"]],
    ids=["ingest", "build"],
)
def test_artifact_with_lone_surrogate_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "artifacts.jsonl"
    path.write_text(_artifact_line("fine") + "\n" + _artifact_line("half a pair \ud800"))
    out = tmp_path / "out"
    assert main([a.format(path=path, out=out) for a in argv]) == 2
    assert "line 2: artifact.body holds an unpaired surrogate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["ingest", "{path}", "--format", "jsonl", "-o", "{out}"], ["build", "{path}", "-o", "{out}"]],
    ids=["ingest", "build"],
)
def test_artifact_with_an_empty_uri_is_an_input_error(tmp_path, capsys, argv):
    # build used to stop at the source record: "internal error: source uri
    # must be non-empty", exit 3.
    path = tmp_path / "artifacts.jsonl"
    empty = json.dumps({**json.loads(_artifact_line("fine")), "id": "m2", "uri": ""})
    path.write_text(_artifact_line("fine") + "\n" + empty)
    out = tmp_path / "out"
    assert main([a.format(path=path, out=out) for a in argv]) == 2
    assert capsys.readouterr().err == "error: line 2: empty uri\n"
    assert not out.exists()


def test_a_huge_window_builds_the_graph_of_a_wide_one(tmp_path):
    # The window only bounds the sentences a decision's rationale is read
    # from; a loop over its value took 5 s at 3,000,000 and hung at 10**12.
    graphs = []
    for window in (50, 10**12):
        config, out = tmp_path / f"{window}.json", tmp_path / f"{window}.graph"
        config.write_text(json.dumps({"window": window}))
        argv = ["build", ARTIFACTS, "--config", str(config), "-o", str(out)]
        subprocess.run(
            [sys.executable, "-m", "rdgraph", *argv],
            env=_package_env(), capture_output=True, check=True, timeout=30,
        )
        graphs.append(out.read_bytes())
    assert graphs[0] == graphs[1]


@pytest.mark.parametrize("target", ["missing-dir/out", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", DUMP, "--format", "git", "-o", "{out}"],
        ["build", ARTIFACTS, "-o", "{out}"],
        ["export", "{graph}", "--dot", "-o", "{out}"],
    ],
    ids=["ingest", "build", "export"],
)
def test_unwritable_output_path_is_an_input_error(graph_file, tmp_path, capsys, argv, target):
    out = tmp_path / target
    capsys.readouterr()
    assert main([a.format(graph=graph_file, out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize(
    "argv",
    [["export", "{graph}", "--dot"], ["query", "{graph}", "--topic", "t1"]],
    ids=["export", "query"],
)
def test_graph_with_lone_surrogate_is_an_input_error(graph_file, tmp_path, capsys, argv):
    doc = json.loads(pathlib.Path(graph_file).read_text())
    doc["topics"][0]["title"] += "\udfff"
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([a.format(graph=bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "graph.topics[0].title holds an unpaired surrogate" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["check", "{graph}", "--text", "reap the victim"], ["validate", "{graph}"]],
    ids=["check", "validate"],
)
@pytest.mark.parametrize(
    "field, value, token",
    [("weight", float("nan"), "NaN"), ("score", float("inf"), "Infinity")],
    ids=["nan-weight", "infinite-score"],
)
def test_graph_with_a_non_finite_number_is_an_input_error(
    graph_file, tmp_path, capsys, argv, field, value, token
):
    doc = json.loads(pathlib.Path(graph_file).read_text())
    if field == "weight":
        doc["edges"][0]["evidence"][0]["weight"] = value
    else:
        doc["decisions"][0]["score"] = value
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([a.format(graph=bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: graph file is not valid JSON: non-finite number {token}\n"


def _as_v2(text: str) -> dict:
    """A graph file's document as format v2 wrote it: each decision has its
    source's uri as ``source_uri`` and each rationale its decision's
    ``artifact_id``."""
    doc = json.loads(text)
    doc["rdg_version"] = 2
    uris = {source["id"]: source["uri"] for source in doc["sources"]}
    artifacts = {}
    for decision in doc["decisions"]:
        decision["source_uri"] = uris[decision["artifact_id"]]
        artifacts[decision["id"]] = decision["artifact_id"]
    for span in doc["rationales"]:
        span["artifact_id"] = artifacts[span["decision_id"]]
    return doc


def _as_v1(text: str) -> dict:
    """A graph file's document as format v1 wrote it: v2's, with
    ``files_touched`` on each decision and each similar edge's cosine-score
    evidence record."""
    doc = _as_v2(text)
    doc["rdg_version"] = 1
    for decision in doc["decisions"]:
        decision["files_touched"] = []
    for edge in doc["edges"]:
        if edge["kind"] == "similar":
            score = edge["score"]
            edge["evidence"] = [
                {"detail": f"cosine {score:.6f}", "feature": "cosine-score", "weight": score}
            ]
    return doc


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{graph}", "--file", PROPOSAL],
        ["validate", "{graph}", "--json"],
        ["export", "{graph}", "--dot"],
        ["query", "{graph}", "--decision", D4],
    ],
    ids=["check", "validate", "export", "query"],
)
def test_a_v1_graph_file_asks_for_a_rebuild(graph_file, tmp_path, capsys, argv):
    """So does a v2 file."""
    text = pathlib.Path(graph_file).read_text()
    for version, doc in ((1, _as_v1(text)), (2, _as_v2(text))):
        old = tmp_path / f"v{version}.json"
        old.write_text(
            json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main([a.format(graph=old) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: unsupported rdg_version {version}; rebuild with `rdgraph build`\n"
        )


@pytest.mark.parametrize("hops", ["-1", "x"])
def test_query_rejects_a_bad_hop_count(graph_file, capsys, hops):
    assert main(["query", graph_file, "--decision", D4, "--hops", hops]) == 2
    err = capsys.readouterr().err
    assert "--hops" in err
    assert "internal error" not in err


def test_query_zero_hops_shows_the_decision_alone(graph_file, capsys):
    assert main(["query", graph_file, "--decision", D4, "--hops", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"decision {D4}:")
    assert "reaches" not in out


def _captured(run, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _freshly_imported_main():
    """``main`` of a new copy of ``rdgraph.cli``, whose parser is not built yet."""
    spec = importlib.util.find_spec("rdgraph.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_the_parser_built_once_keeps_no_state_between_calls(graph_d1_d4_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    calls = [
        ["check", graph_d1_d4_file],
        ["query", graph_d1_d4_file, "--decision", D4, "--hops", "-1"],
        ["check", graph_d1_d4_file, "--text", pathlib.Path(PROPOSAL).read_text()],
        ["validate", graph_d1_d4_file],
    ]
    in_one_process = [_captured(main, argv) for argv in calls]
    assert [code for code, _, _ in in_one_process] == [2, 2, 1, 0]
    for argv, outcome in zip(calls, in_one_process):
        assert outcome == _captured(_freshly_imported_main(), argv)


def test_main_calls_the_command_function_bound_at_call_time(graph_file, monkeypatch):
    seen = []

    def cmd_check(args):
        seen.append(args.text)
        return 0

    main(["check", graph_file, "--text", "warm the parser up"])
    monkeypatch.setattr(cli, "cmd_check", cmd_check)
    assert main(["check", graph_file, "--text", "rebound"]) == 0
    assert seen == ["rebound"]


# Splice junk into a valid input; the junk favours what JSON and the git dump
# format give meaning to, so examples reach past the first parse error.
_JUNK = st.lists(
    st.one_of(
        st.binary(max_size=6),
        st.sampled_from(
            [b"\\ud800", b"\\uDC00", b"\xff", b"\x1e", b"\x1f", b"\n", b'"', b",",
             b"[", b"]", b"{", b"}", b"null", b"1" * 400, b"-1", b"1e999",
             b"9999-12-31T23:59:59-01:00", b"0001-01-01T00:00:00+05:00"]
        ),
    ),
    max_size=4,
).map(b"".join)


def _inputs(valid: bytes):
    spliced = st.tuples(
        st.integers(0, len(valid)), st.integers(0, 40), _JUNK
    ).map(lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :])
    return st.one_of(st.binary(max_size=200), spliced)


def _fuzz_exit_codes(data: bytes, commands) -> list[int]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as handle:
            handle.write(data)
        codes = []
        for argv in commands(path, os.path.join(tmp, "out")):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                codes.append(main(argv))
        return codes


FUZZ = settings(max_examples=60, deadline=None)


@given(data=_inputs(FIXTURE_DIR.joinpath("oom-commits.dump").read_bytes()))
@FUZZ
def test_fuzzed_git_dump_never_exits_internal(data):
    codes = _fuzz_exit_codes(
        data,
        lambda path, out: [
            ["ingest", path, "--format", "git", "-o", out + ".jsonl"],
            ["ingest", path, "--format", "jsonl"],
        ],
    )
    assert set(codes) <= {0, 2}


_ARTIFACT_BYTES = FIXTURE_DIR.joinpath("artifacts.jsonl").read_bytes()


@given(data=_inputs(_ARTIFACT_BYTES))
# An empty uri: a splice deletes at most 40 characters, and a uri has 44.
@example(data=re.sub(rb'"uri": "[^"]*"', b'"uri": ""', _ARTIFACT_BYTES, count=1))
@FUZZ
def test_fuzzed_artifact_file_never_exits_internal(data):
    codes = _fuzz_exit_codes(
        data,
        lambda path, out: [
            ["ingest", path, "--format", "jsonl", "-o", out + ".jsonl"],
            ["build", path, "-o", out + ".json"],
        ],
    )
    assert set(codes) <= {0, 2}


@given(data=st.data())
@FUZZ
def test_fuzzed_graph_file_never_exits_internal(fixture_graph, data):
    graph_bytes = save(fixture_graph).encode("utf-8")
    codes = _fuzz_exit_codes(
        data.draw(_inputs(graph_bytes)),
        lambda path, out: [
            ["validate", path, "--json"],
            ["export", path, "--dot", "-o", out + ".dot"],
            ["check", path, "--text", "oom: remove the priority boost"],
            ["query", path, "--topic", "t1"],
            ["query", path, "--decision", D4, "--hops", "2"],
        ],
    )
    assert set(codes) <= {0, 1, 2}


_CONFIG = json.dumps(
    {"thresholds": {"similar": 0.3}, "k": 3, "window": 1,
     "lexicons": {"abbreviations": ["vs"], "markers": {"cause": ["because"]}}}
).encode("utf-8")


@given(data=_inputs(_CONFIG))
@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_config_never_exits_internal(graph_d1_d4_file, data):
    codes = _fuzz_exit_codes(
        data,
        lambda path, out: [
            ["build", ARTIFACTS_D1_D4, "--config", path, "-o", out + ".json"],
            ["check", graph_d1_d4_file, "--file", PROPOSAL, "--config", path],
            ["validate", graph_d1_d4_file, "--config", path],
        ],
    )
    assert set(codes) <= {0, 1, 2}
