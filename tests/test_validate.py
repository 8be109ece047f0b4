from __future__ import annotations

import collections
import graphlib
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import D1, D2, D3, D4, D5, FIXTURE_DIR
from helpers import (
    STRUCTURAL_VIOLATION,
    finding_to_dict,
    findings,
    git_sources,
    reference_findings_to_jsonl,
    reference_model,
    valid_graph_parts,
    validate_structure,
)
from rdgraph import (
    GraphError,
    build_graph,
    check_new_decision,
    check_rationale_consistency,
    export_dot,
    k_hop,
    normalized_text,
    save,
)
from rdgraph import textsim, validate
from rdgraph.cli import main
from rdgraph.decisions import Decision
from rdgraph.graph import RdGraph, rationales_of
from rdgraph.rationale import PURPOSE, RationaleSpan
from rdgraph.relations import (
    CONTRADICTS,
    HISTORY,
    SIMILAR,
    RelationEdge,
    Topic,
)
from rdgraph.textsim import TfIdfProvider
from rdgraph.validate import (
    CONFLICT_WARNING,
    CONSISTENT_PAIR,
    DUPLICATE_RATIONALE,
    INCONSISTENT_REASONING,
    LOW_SIMILARITY,
    MISSING_RATIONALE,
    ValidationFinding,
    findings_to_jsonl,
    graph_documents,
)

EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def test_fixture_similar_pair_is_consistent(fixture_graph, config):
    findings = check_rationale_consistency(fixture_graph, config)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.kind == CONSISTENT_PAIR
    assert finding.severity == "info"
    assert finding.subject_ids == (D2, D1) or finding.subject_ids == tuple(sorted((D1, D2)))


def make_decision(n: int, text: str) -> Decision:
    return Decision(
        id=f"a{n}#0",
        text=text,
        artifact_id=f"a{n}",
        timestamp=EPOCH + timedelta(days=n),
        score=1.0,
        author="A <a@x>",
    )


def make_span(decision_id: str, text: str) -> RationaleSpan:
    return RationaleSpan(
        id=f"{decision_id}/r0",
        decision_id=decision_id,
        role=PURPOSE,
        marker="so that",
        text=text,
        start=0,
        end=len(text),
        same_sentence=True,
    )


def pair_graph(rationale_a: str | None, rationale_b: str | None) -> RdGraph:
    d0 = make_decision(0, "mm: add the compressed cache")
    d1 = make_decision(1, "mm: add a compressed cache layer")
    spans = []
    if rationale_a is not None:
        spans.append(make_span(d0.id, rationale_a))
    if rationale_b is not None:
        spans.append(make_span(d1.id, rationale_b))
    edge = RelationEdge(SIMILAR, d0.id, d1.id, 0.9)  # as detect_similar builds it
    topic = Topic(id="t1", title="cache", member_decision_ids=(d0.id, d1.id))
    return build_graph([d0, d1], spans, [topic], [edge], git_sources([d0, d1]))


def test_contradicting_rationales_flag_inconsistent_reasoning(config):
    graph = pair_graph(
        "we need the extra buffering for bursts",
        "there is no need for extra buffering",
    )
    findings = check_rationale_consistency(graph, config)
    assert [f.kind for f in findings] == [INCONSISTENT_REASONING]
    assert findings[0].severity == "warning"


def test_identical_rationales_flag_duplicates(config):
    graph = pair_graph("keep latency low under load", "keep latency low under load")
    findings = check_rationale_consistency(graph, config)
    assert [f.kind for f in findings] == [DUPLICATE_RATIONALE]


def test_unrelated_rationales_report_low_similarity(config):
    graph = pair_graph("keep latency low", "simplify the build scripts")
    findings = check_rationale_consistency(graph, config)
    assert [f.kind for f in findings] == [LOW_SIMILARITY]


def test_missing_rationale_is_skipped_with_a_note(config):
    graph = pair_graph("keep latency low", None)
    findings = check_rationale_consistency(graph, config)
    assert [f.kind for f in findings] == [MISSING_RATIONALE]


def test_no_similar_edges_no_pair_findings(config):
    d0 = make_decision(0, "mm: one thing")
    topic = Topic(id="t1", title="", member_decision_ids=(d0.id,))
    graph = build_graph(
        [d0], [make_span(d0.id, "why not")], [topic], [], git_sources([d0])
    )
    findings = check_rationale_consistency(graph, config)
    assert findings == []


def test_similar_pair_without_any_rationale_has_no_findings(tmp_path, capsys, config):
    graph = pair_graph(None, None)
    assert check_rationale_consistency(graph, config) == []
    path = tmp_path / "graph.json"
    path.write_text(save(graph), encoding="utf-8")
    assert main(["validate", str(path), "--json"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "no findings\n"


def test_each_rationale_is_joined_once(monkeypatch, config):
    decisions = [make_decision(n, f"mm: add cache layer {n}") for n in range(8)]
    spans = [make_span(d.id, f"keep latency low under load {d.id}") for d in decisions]
    edges = [
        RelationEdge(kind=SIMILAR, from_id=a.id, to_id=b.id, score=0.9)
        for i, a in enumerate(decisions)
        for b in decisions[i + 1 :]
    ]
    members = tuple(d.id for d in decisions)
    topic = Topic(id="t1", title="cache", member_decision_ids=members)
    graph = build_graph(decisions, spans, [topic], edges, git_sources(decisions))
    calls = collections.Counter()

    def counting(graph, decision_id):
        calls[decision_id] += 1
        return rationales_of(graph, decision_id)

    monkeypatch.setattr(validate, "rationales_of", counting)
    findings = check_rationale_consistency(graph, config)
    assert len(findings) == len(edges) == 28
    # Joining at both ends of every similar edge would make 56 calls.
    assert calls == {d.id: 1 for d in decisions}


def test_each_rationale_text_gets_one_feature_record(monkeypatch, config):
    decisions = [make_decision(n, f"mm: add cache layer {n}") for n in range(8)]
    spans = [
        make_span(d.id, f"do not keep latency low {n % 3}")
        for n, d in enumerate(decisions)
    ]
    edges = [
        RelationEdge(kind=SIMILAR, from_id=a.id, to_id=b.id, score=0.9)
        for i, a in enumerate(decisions)
        for b in decisions[i + 1 :]
    ]
    members = tuple(d.id for d in decisions)
    topic = Topic(id="t1", title="cache", member_decision_ids=members)
    graph = build_graph(decisions, spans, [topic], edges, git_sources(decisions))
    calls = collections.Counter()
    original = validate._sentence_features

    def counting(text, *lexicons):
        calls[text] += 1
        return original(text, *lexicons)

    monkeypatch.setattr(validate, "_sentence_features", counting)
    findings = check_rationale_consistency(graph, config)
    assert len(findings) == len(edges) == 28
    # Two records per similar edge would make 56 calls over 3 distinct texts.
    assert calls == {span.text: 1 for span in spans}


@pytest.fixture()
def tokenize_calls(monkeypatch):
    """Count textsim.token_counts calls by text."""
    calls: collections.Counter[str] = collections.Counter()
    original = textsim.token_counts

    def counting(text, stopwords=textsim.DEFAULT_STOPWORDS):
        calls[text] += 1
        return original(text, stopwords)

    monkeypatch.setattr(textsim, "token_counts", counting)
    return calls


def test_check_tokenizes_each_corpus_text_once(fixture_graph, config, tokenize_calls):
    candidate = "oom: give the dying task a higher priority so it exits quickly"
    corpus = [*graph_documents(fixture_graph).values(), candidate]
    assert len(set(corpus)) == len(corpus)
    check_new_decision(fixture_graph, candidate, config)
    # Fitting and scoring share one token count per text.
    assert tokenize_calls == {text: 1 for text in corpus}


def test_validate_tokenizes_each_joined_rationale_once(config, tokenize_calls):
    decisions = [make_decision(n, f"mm: add cache layer {n}") for n in range(6)]
    spans = [make_span(d.id, f"keep latency low under load {d.id}") for d in decisions]
    edges = [
        RelationEdge(kind=SIMILAR, from_id=a.id, to_id=b.id, score=0.9)
        for i, a in enumerate(decisions)
        for b in decisions[i + 1 :]
    ]
    topic = Topic(id="t1", title="cache", member_decision_ids=tuple(d.id for d in decisions))
    graph = build_graph(decisions, spans, [topic], edges, git_sources(decisions))
    findings = check_rationale_consistency(graph, config)
    assert len(findings) == len(edges) == 15
    assert tokenize_calls == {span.text: 1 for span in spans}


def test_proposed_mrelease_conflicts_via_the_revert(
    fixture_graph_d1_d4, fixture_artifacts, config
):
    candidate = normalized_text(fixture_artifacts[4])
    findings = check_new_decision(fixture_graph_d1_d4, candidate, config)
    conflicts = [f for f in findings if f.kind == CONFLICT_WARNING]
    assert conflicts, findings
    assert any(
        D3 in f.subject_ids and any(D3 in (e.from_id, e.to_id) for e in f.path)
        for f in conflicts
    )
    # The warning explains the timeline.
    assert any("2011" in f.message and "2010" in f.message for f in conflicts)


def test_disjoint_candidate_yields_no_findings(fixture_graph, config):
    candidate = "docs: clarify the frobnicator manual"
    assert check_new_decision(fixture_graph, candidate, config) == []


def test_candidate_identical_to_a_decision_is_a_duplicate(fixture_graph, config):
    candidate = graph_documents(fixture_graph)[D4]
    assert candidate == "mm, oom: introduce oom reaper"  # D4 carries no rationale
    findings = check_new_decision(fixture_graph, candidate, config)
    duplicates = [f for f in findings if f.kind == DUPLICATE_RATIONALE]
    assert len(duplicates) == 1
    assert duplicates[0].subject_ids == (D4,)


def test_verbatim_resubmission_of_a_reverted_decision_warns_about_its_revert(
    fixture_graph, config
):
    # D3 reverts D1 (and D2); resubmitting D1's own document is a duplicate of
    # D1 and still links to it, so D1's contradicts edge warns directly.
    candidate = graph_documents(fixture_graph)[D1]
    findings = check_new_decision(fixture_graph, candidate, config)
    assert [
        (f.kind, f.subject_ids, [(e.kind, e.from_id, e.to_id) for e in f.path])
        for f in findings
    ] == [
        (CONFLICT_WARNING, (D2, D3), [(CONTRADICTS, D3, D2)]),
        (DUPLICATE_RATIONALE, (D1,), []),
        (CONFLICT_WARNING, (D1, D3), [(CONTRADICTS, D3, D1)]),
    ]
    assert f"candidate resembles {D1} " in findings[2].message
    assert "similarity 1.00" in findings[2].message


def test_check_new_decision_does_not_mutate_the_graph(fixture_graph, config):
    before = save(fixture_graph)
    candidate = "oom: raise the dying task priority again"
    loose = config._replace(k=4, thresholds=config.thresholds._replace(similar=0.01))
    check_new_decision(fixture_graph, candidate, loose)
    assert save(fixture_graph) == before


def test_conflict_paths_start_at_a_similar_decision(
    fixture_graph_d1_d4, fixture_artifacts, config
):
    candidate = normalized_text(fixture_artifacts[4])
    documents = graph_documents(fixture_graph_d1_d4)
    # A test-side model over the same corpus is the oracle for the anchors.
    provider = TfIdfProvider(
        reference_model([*documents.values(), candidate], config.stopwords)
    )
    findings = check_new_decision(fixture_graph_d1_d4, candidate, config)
    for finding in findings:
        if finding.kind != CONFLICT_WARNING:
            continue
        # The path must be a connected chain anchored at a similar decision.
        anchored = [
            d
            for d in finding.subject_ids
            if provider.score(candidate, documents.get(d, "")) >= config.thresholds.similar
        ]
        assert anchored
        anchor = anchored[0]
        current = {anchor}
        for edge in finding.path:
            assert current & {edge.from_id, edge.to_id}
            current = {edge.from_id, edge.to_id}


def test_larger_hop_budget_reaches_the_second_revert(
    fixture_graph_d1_d4, fixture_artifacts, config
):
    candidate = normalized_text(fixture_artifacts[4])
    near = check_new_decision(fixture_graph_d1_d4, candidate, config._replace(k=2))
    far = check_new_decision(fixture_graph_d1_d4, candidate, config._replace(k=3))
    assert len(far) > len(near)
    assert any(len(f.path) == 2 for f in far if f.kind == CONFLICT_WARNING)
    assert all(len(f.path) <= 1 for f in near if f.kind == CONFLICT_WARNING)


def test_conflict_warnings_grow_with_the_hop_budget_up_to_three(
    fixture_graph_d1_d4, config
):
    candidate = (FIXTURE_DIR / "proposed-mrelease.txt").read_text(encoding="utf-8")
    counts = [
        sum(
            f.kind == CONFLICT_WARNING
            for f in check_new_decision(fixture_graph_d1_d4, candidate, config._replace(k=k))
        )
        for k in range(5)
    ]
    assert counts == [0, 0, 1, 2, 2]


def test_a_check_indexes_only_the_edge_kinds_its_hop_budget_walks(
    fixture_graph_d1_d4, config
):
    """The link spends one hop, so k = 2 reads the linked decisions'
    contradicts edges alone; k = 3 adds their similar edges."""
    candidate = (FIXTURE_DIR / "proposed-mrelease.txt").read_text(encoding="utf-8")
    for k, indexed in [(1, set()), (2, {CONTRADICTS}), (3, {CONTRADICTS, SIMILAR})]:
        graph = fixture_graph_d1_d4._replace()
        check_new_decision(graph, candidate, config._replace(k=k))
        assert set(graph._incidence) == indexed, k


def test_findings_sort_by_severity_then_subjects():
    findings = [
        ValidationFinding("consistent-pair", "info", ("b#0",), (), "info thing"),
        ValidationFinding("conflict-warning", "warning", ("a#0",), (), "warn thing"),
        ValidationFinding("structural-violation", "error", ("z#0",), (), "error thing"),
    ]
    from rdgraph.validate import _sorted_findings

    ordered = _sorted_findings(findings)
    assert [f.severity for f in ordered] == ["error", "warning", "info"]


def test_validate_structure_accepts_every_pipeline_graph(fixture_graph, fixture_graph_d1_d4):
    assert validate_structure(fixture_graph) == []
    assert validate_structure(fixture_graph_d1_d4) == []


def test_a_graph_built_from_its_five_records_behaves_as_the_built_one(
    fixture_graph, config
):
    built = fixture_graph
    direct = RdGraph(
        built.decisions, built.rationales, built.topics, built.sources,
        built.relation_edges,
    )
    assert validate_structure(direct) == []
    consistency = check_rationale_consistency(direct, config)
    assert consistency and consistency == check_rationale_consistency(built, config)
    # At k = 3 the fixture proposal also conflicts via a similar decision.
    proposal = (FIXTURE_DIR / "proposed-mrelease.txt").read_text(encoding="utf-8")
    k3 = config._replace(k=3)
    conflicts = check_new_decision(direct, proposal, k3)
    assert len(conflicts) == 2 and conflicts == check_new_decision(built, proposal, k3)
    assert export_dot(direct) == export_dot(built)
    for decision_id in built.decisions:
        for k in range(4):
            assert k_hop(direct, decision_id, k) == k_hop(built, decision_id, k)


def corrupt(graph: RdGraph, **overrides) -> RdGraph:
    """The graph with some records replaced, its invariants unchecked."""
    return graph._replace(**overrides)


def rebuild(graph: RdGraph) -> RdGraph:
    return build_graph(
        graph.decisions.values(),
        graph.rationales.values(),
        graph.topics.values(),
        graph.relation_edges,
        graph.sources.values(),
    )


def test_validate_structure_reports_history_cycle(fixture_graph):
    # D3 -> D1 is a history edge already; D1 -> D3 closes a cycle and is the
    # edge that runs from the earlier decision to the later one.
    cycle_edge = RelationEdge(kind=HISTORY, from_id=D1, to_id=D3, score=1.0)
    broken = corrupt(
        fixture_graph, relation_edges=fixture_graph.relation_edges + (cycle_edge,)
    )
    with pytest.raises(GraphError):
        rebuild(broken)
    findings = validate_structure(broken)
    assert [(f.kind, f.subject_ids) for f in findings] == [
        (STRUCTURAL_VIOLATION, (D1, D3))
    ]


def test_equal_timestamp_history_cycle_fails_both_entry_points():
    # Only the strict later -> earlier rule stops a cycle between equal times.
    d0 = make_decision(0, "mm: add the cache")
    d1 = make_decision(1, "mm: drop the cache")._replace(timestamp=d0.timestamp)
    edges = (
        RelationEdge(kind=HISTORY, from_id=d0.id, to_id=d1.id, score=1.0),
        RelationEdge(kind=HISTORY, from_id=d1.id, to_id=d0.id, score=1.0),
    )
    topic = Topic(id="t1", title="cache", member_decision_ids=(d0.id, d1.id))
    with pytest.raises(GraphError, match="later"):
        build_graph([d0, d1], [], [topic], edges, git_sources([d0, d1]))
    graph = build_graph([d0, d1], [], [topic], [], git_sources([d0, d1]))
    findings = validate_structure(corrupt(graph, relation_edges=edges))
    assert [f.subject_ids for f in findings] == [(d0.id, d1.id), (d1.id, d0.id)]


def has_history_cycle(edges) -> bool:
    history = graphlib.TopologicalSorter()
    for edge in edges:
        if edge.kind == HISTORY:
            history.add(edge.from_id, edge.to_id)
    try:
        history.prepare()
    except graphlib.CycleError:
        return True
    return False


@given(valid_graph_parts(), st.data())
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_history_cycles_fail_both_entry_points(parts, data):
    decision_ids = st.sampled_from([d.id for d in parts[0]])
    pairs = data.draw(st.lists(st.tuples(decision_ids, decision_ids), max_size=4))
    extra = tuple(
        RelationEdge(kind=HISTORY, from_id=a, to_id=b, score=1.0) for a, b in pairs
    )
    graph = build_graph(*parts)
    broken = corrupt(graph, relation_edges=graph.relation_edges + extra)
    try:
        rebuild(broken)
        raised = False
    except GraphError:
        raised = True
    findings = validate_structure(broken)
    assert raised == bool(findings)
    if has_history_cycle(broken.relation_edges):
        assert raised and findings


A1 = D1.split("#")[0]


def plus_edge(kind: str, from_id: str, to_id: str):
    edge = RelationEdge(kind=kind, from_id=from_id, to_id=to_id, score=0.5)
    return lambda g: dict(relation_edges=g.relation_edges + (edge,))


def first_edge(**changes):
    return lambda g: dict(
        relation_edges=(g.relation_edges[0]._replace(**changes),) + g.relation_edges[1:]
    )


def plus_topic(*members: str):
    return lambda g: dict(topics={**g.topics, "t9": Topic("t9", "", members)})


def without_d1_topic(graph: RdGraph) -> dict:
    ((topic_id, topic),) = graph.topics.items()
    members = tuple(m for m in topic.member_decision_ids if m != D1)
    return dict(topics={topic_id: topic._replace(member_decision_ids=members)})


# Each case breaks one invariant of the fixture graph; the build must refuse
# it and the structural check must report the very same message.
CORRUPTIONS = {
    "self-edge": (plus_edge(SIMILAR, D1, D1), "self edge"),
    "score-above-one": (first_edge(score=1.5), r"score 1\.5 outside \[0, 1\]"),
    "score-below-zero": (first_edge(score=-0.1), r"outside \[0, 1\]"),
    "unknown-kind": (first_edge(kind="blocks"), "unknown edge kind 'blocks'"),
    "empty-topic": (plus_topic(), "topic 't9' has no members"),
    "backwards-contradicts": (
        plus_edge(CONTRADICTS, D1, D4),
        "contradicts edge .* must run from the later decision",
    ),
    "duplicate-edge": (
        lambda g: dict(relation_edges=g.relation_edges + g.relation_edges[:1]),
        "duplicate edge",
    ),
    "dangling-edge": (
        plus_edge(HISTORY, D5, "ghost#0"),
        "references a missing decision",
    ),
    "missing-topic-member": (
        plus_topic("ghost#0"),
        "topic 't9' references missing decision 'ghost#0'",
    ),
    "two-topics": (plus_topic(D1), "belongs to 2 topics"),
    "no-topic": (without_d1_topic, "without a topic"),
    "dangling-rationale": (
        lambda g: dict(
            rationales={**g.rationales, "ghost#0/r0": make_span("ghost#0", "why")}
        ),
        "rationale 'ghost#0/r0' references missing decision",
    ),
    "missing-source": (
        lambda g: dict(sources={k: v for k, v in g.sources.items() if k != A1}),
        "has no source",
    ),
}


@pytest.mark.parametrize(
    "overrides, match", CORRUPTIONS.values(), ids=list(CORRUPTIONS)
)
def test_build_and_validate_report_the_same_violation(fixture_graph, overrides, match):
    broken = corrupt(fixture_graph, **overrides(fixture_graph))
    with pytest.raises(GraphError, match=match) as raised:
        rebuild(broken)
    findings = validate_structure(broken)
    assert str(raised.value) in [f.message for f in findings]
    assert all(f.kind == STRUCTURAL_VIOLATION for f in findings)


@pytest.mark.parametrize("part, what", [
    (0, "decision"), (1, "rationale"), (2, "topic"), (4, "source"),
])
def test_build_graph_rejects_duplicate_ids(fixture_graph, part, what):
    parts = [
        list(fixture_graph.decisions.values()),
        list(fixture_graph.rationales.values()),
        list(fixture_graph.topics.values()),
        list(fixture_graph.relation_edges),
        list(fixture_graph.sources.values()),
    ]
    parts[part].append(parts[part][0])
    with pytest.raises(GraphError, match=f"duplicate {what} id"):
        build_graph(*parts)


def test_validate_structure_reports_double_topic_membership(fixture_graph):
    extra = Topic(id="t9", title="dup", member_decision_ids=(D1,))
    broken = corrupt(fixture_graph, topics={**fixture_graph.topics, "t9": extra})
    findings = validate_structure(broken)
    assert any("belongs to 2 topics" in f.message for f in findings)


def test_validate_structure_reports_dangling_edge(fixture_graph):
    ghost = RelationEdge(kind=SIMILAR, from_id=D1, to_id="ghost#0", score=0.5)
    broken = corrupt(
        fixture_graph, relation_edges=fixture_graph.relation_edges + (ghost,)
    )
    findings = validate_structure(broken)
    assert any("missing decision" in f.message for f in findings)


def test_validate_structure_reports_missing_source(fixture_graph):
    sources = dict(fixture_graph.sources)
    sources.pop(D1.split("#")[0])
    broken = corrupt(fixture_graph, sources=sources)
    findings = validate_structure(broken)
    assert any("has no source" in f.message for f in findings)


def test_findings_serialize_to_json_lines(fixture_graph_d1_d4, fixture_artifacts, config):
    candidate = normalized_text(fixture_artifacts[4])
    findings = check_new_decision(fixture_graph_d1_d4, candidate, config)
    payload = findings_to_jsonl(findings)
    rows = [json.loads(line) for line in payload.strip().split("\n")]
    assert rows == [finding_to_dict(f) for f in findings]
    for row in rows:
        assert set(row) == {"kind", "severity", "subjects", "path", "message"}


@given(findings())
@example([])
@settings(max_examples=300)
def test_findings_jsonl_writes_what_json_dumps_writes(found):
    assert findings_to_jsonl(found) == reference_findings_to_jsonl(found)
