"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

from __future__ import annotations

import json
import pathlib
import random
import string
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rdgraph
from conftest import D1, D2, D3, D4, D5, FIXTURE_DIR
from helpers import (
    STRUCTURAL_VIOLATION,
    oracle_similarity,
    valid_graph_parts,
    validate_structure,
)
from rdgraph import (
    GraphError,
    TfIdfProvider,
    build_graph,
    default_config,
    k_hop,
    load,
    save,
)
from rdgraph import relations
from rdgraph.cli import main
from rdgraph.graph import RdGraph
from rdgraph.relations import CONTRADICTS, HISTORY, SIMILAR
from rdgraph.validate import CONFLICT_WARNING, CONSISTENT_PAIR

ARTIFACTS = str(FIXTURE_DIR / "artifacts.jsonl")
ARTIFACTS_D1_D4 = str(FIXTURE_DIR / "artifacts-d1-d4.jsonl")
PROPOSAL = str(FIXTURE_DIR / "proposed-mrelease.txt")


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {text}")


def test_criterion_1_fixture_end_to_end(tmp_path):
    out = tmp_path / "graph.json"
    started = time.perf_counter()
    code = main(["build", ARTIFACTS, "-o", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 1.0, f"build took {elapsed:.3f}s"

    graph = load(out.read_text())
    assert sorted(graph.decisions) == sorted([D1, D2, D3, D4, D5])
    assert [graph.decisions[d].text for d in (D1, D2, D3, D4, D5)] == [
        "oom: give the dying task a higher priority",
        "memcg: give current access to memory reserves if it's trying to die",
        "oom-kill: remove boost_dying_task_prio()",
        "mm, oom: introduce oom reaper",
        "mm: introduce process_mrelease system call",
    ]
    assert len(graph.topics) == 1
    (topic,) = graph.topics.values()
    assert set(topic.member_decision_ids) == {D1, D2, D3, D4, D5}
    edges = {(e.kind, e.from_id, e.to_id) for e in graph.relation_edges}
    assert edges == {
        (SIMILAR, *sorted((D1, D2))),
        (HISTORY, D3, D1),
        (HISTORY, D3, D2),
        (CONTRADICTS, D3, D1),
        (CONTRADICTS, D3, D2),
    }
    report(1, f"5 decisions, 1 topic, exact edge set, build in {elapsed * 1000:.0f} ms")


def test_criterion_2_rationale_spans_verbatim(fixture_graph):
    d1_spans = [
        fixture_graph.rationales[r] for r in fixture_graph.rationale_edges.get(D1, ())
    ]
    assert len(d1_spans) == 1
    assert d1_spans[0].role == "purpose"
    assert d1_spans[0].text == "it can exit() soon, freeing memory"

    d5_spans = [
        fixture_graph.rationales[r] for r in fixture_graph.rationale_edges.get(D5, ())
    ]
    assert len(d5_spans) == 1
    assert d5_spans[0].role == "manner"
    assert d5_spans[0].text == (
        "the memory is freed in a more controllable way with CPU affinity "
        "and priority of the caller"
    )
    report(2, "purpose and manner spans match verbatim")


def test_criterion_3_new_decision_conflict(tmp_path, capsys):
    graph_path = tmp_path / "graph4.json"
    assert main(["build", ARTIFACTS_D1_D4, "-o", str(graph_path)]) == 0
    capsys.readouterr()  # drop the build summary

    outputs = []
    codes = []
    for _ in range(2):
        codes.append(main(["check", str(graph_path), "--file", PROPOSAL, "--json"]))
        outputs.append(capsys.readouterr().out)
    assert codes == [1, 1]
    assert outputs[0] == outputs[1], "check output must be deterministic"

    rows = [json.loads(line) for line in outputs[0].strip().split("\n")]
    conflicts = [r for r in rows if r["kind"] == CONFLICT_WARNING]
    assert conflicts
    assert any(
        D3 in r["subjects"]
        and any(D3 in (e["from"], e["to"]) for e in r["path"])
        and len(r["path"]) + 1 <= 2
        for r in conflicts
    )
    report(3, "proposal exits 1 with a conflict path through the revert commit")


def test_criterion_4_consistency_check(tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    assert main(["build", ARTIFACTS, "-o", str(graph_path)]) == 0
    capsys.readouterr()  # drop the build summary
    code = main(["validate", str(graph_path), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    pair_rows = [r for r in rows if r["kind"] == CONSISTENT_PAIR]
    assert len(pair_rows) == 1
    assert set(pair_rows[0]["subjects"]) == {D1, D2}
    assert rows == pair_rows
    report(4, "similar pair reported consistent")


def test_criterion_5_contradiction_pair():
    config = default_config()
    lexicons = (config.contradiction_keywords, config.negation_cues, config.stopwords)
    score, evidence = relations._contradiction(
        relations._sentence_features("There is no need to do anymore changes", *lexicons),
        relations._sentence_features(
            "We need to implement this feature to be able to satisfy the requirements",
            *lexicons,
        ),
    )
    assert score > 0.0, "pair must be flagged as a contradiction"
    assert evidence[0].feature == "negation-mismatch"
    report(5, f"requirements pair flagged (heuristic score {score})")


def test_criterion_6_similarity_oracle():
    stopwords = default_config().stopwords
    corpora = 0
    comparisons = 0
    for seed in range(24):
        rng = random.Random(9000 + seed)
        vocabulary = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 7)))
            for _ in range(rng.randint(4, 10))
        ]
        docs = [
            " ".join(rng.choices(vocabulary, k=rng.randint(1, 30)))
            for _ in range(rng.randint(2, 5))
        ]
        provider = TfIdfProvider.fit(docs, stopwords)
        corpora += 1
        for i in range(len(docs)):
            assert provider.score(docs[i], docs[i]) == 1.0
            for j in range(len(docs)):
                got = provider.score(docs[i], docs[j])
                assert got == provider.score(docs[j], docs[i]), "symmetry must be exact"
                expected = oracle_similarity(docs, i, j, stopwords)
                assert abs(got - expected) <= 1e-9
                comparisons += 1
    assert corpora >= 20
    report(6, f"{comparisons} comparisons on {corpora} corpora within 1e-9 of the oracle")


@given(valid_graph_parts(), st.integers(0, 3))
@settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    print_blob=False,
)
def test_criterion_7_graph_properties(parts, k):
    graph = build_graph(*parts)
    assert load(save(graph)) == graph
    start = sorted(graph.decisions)[0]
    small = k_hop(graph, start, k)
    big = k_hop(graph, start, k + 1)
    assert small.decision_ids <= big.decision_ids
    assert small.rationale_ids <= big.rationale_ids
    assert small.topic_ids <= big.topic_ids
    assert set(small.edges) <= set(big.edges)
    assert validate_structure(graph) == []


def test_criterion_7_cyclic_history_is_rejected(fixture_graph):
    from rdgraph.relations import RelationEdge

    cycle_edge = RelationEdge(kind=HISTORY, from_id=D1, to_id=D3, score=1.0)
    with pytest.raises(GraphError):
        build_graph(
            fixture_graph.decisions.values(),
            fixture_graph.rationales.values(),
            fixture_graph.topics.values(),
            list(fixture_graph.relation_edges) + [cycle_edge],
            fixture_graph.sources.values(),
        )
    broken = RdGraph(
        decisions=fixture_graph.decisions,
        rationales=fixture_graph.rationales,
        topics=fixture_graph.topics,
        sources=fixture_graph.sources,
        relation_edges=fixture_graph.relation_edges + (cycle_edge,),
    )
    # The closing edge D1 -> D3 runs from the earlier decision to the later one.
    assert any(
        f.kind == STRUCTURAL_VIOLATION and f.subject_ids == (D1, D3)
        for f in validate_structure(broken)
    )
    report(7, "round-trip identity, k-hop monotonicity, acyclicity all hold")


def _run_cli(tmp_path, name: str, hash_seed: str) -> tuple[bytes, bytes]:
    graph_path = tmp_path / f"{name}.json"
    dot_path = tmp_path / f"{name}.dot"
    # Run the rdgraph this session imported, wherever it lives: src/ in a
    # checkout or an editable install, site-packages in a regular install.
    package_root = str(pathlib.Path(rdgraph.__file__).resolve().parents[1])
    # No bytecode cache in the checkout, as in run_python of test_demos.py.
    env = {
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": package_root,
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    build = subprocess.run(
        [sys.executable, "-m", "rdgraph", "build", ARTIFACTS, "-o", str(graph_path)],
        capture_output=True,
        env=env,
        cwd=tmp_path,
    )
    assert build.returncode == 0, build.stderr.decode()
    export = subprocess.run(
        [sys.executable, "-m", "rdgraph", "export", str(graph_path), "--dot", "-o", str(dot_path)],
        capture_output=True,
        env=env,
        cwd=tmp_path,
    )
    assert export.returncode == 0, export.stderr.decode()
    return graph_path.read_bytes(), dot_path.read_bytes()


def test_criterion_8_consecutive_builds_are_byte_identical(tmp_path):
    # Different hash seeds shake out any reliance on set/dict hash order.
    first_graph, first_dot = _run_cli(tmp_path, "one", "1")
    second_graph, second_dot = _run_cli(tmp_path, "two", "4242")
    assert first_graph == second_graph
    assert first_dot == second_dot
    report(8, f"graph file ({len(first_graph)} bytes) and DOT export byte-identical")
