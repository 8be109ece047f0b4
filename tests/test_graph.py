from __future__ import annotations

import copy
import json
import re
from dataclasses import replace
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import D1, D2, D3, D4, D5
from helpers import reference_graph_from_doc, valid_graph_parts
from rdgraph import graph as graph_module
from rdgraph import (
    GraphError,
    build_graph,
    export_dot,
    k_hop,
    load,
    neighbors,
    save,
)
from rdgraph.decisions import Decision
from rdgraph.graph import ALL_KINDS, RdGraph
from rdgraph.rationale import PURPOSE, RationaleSpan
from rdgraph.relations import CONTRADICTS, HISTORY, SIMILAR, Evidence, RelationEdge, Topic

EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def test_empty_graph_builds_and_round_trips():
    graph = build_graph([], [], [], [], [])
    assert graph.decisions == {}
    assert load(save(graph)) == graph


def test_fixture_graph_matches_the_expected_structure(fixture_graph):
    assert sorted(fixture_graph.decisions) == sorted([D1, D2, D3, D4, D5])
    assert len(fixture_graph.topics) == 1
    edges = {(e.kind, e.from_id, e.to_id) for e in fixture_graph.relation_edges}
    assert edges == {
        (SIMILAR, D2, D1),
        (HISTORY, D3, D1),
        (HISTORY, D3, D2),
        (CONTRADICTS, D3, D1),
        (CONTRADICTS, D3, D2),
    }
    assert set(fixture_graph.topic_edges) == set(fixture_graph.decisions)
    assert set(fixture_graph.source_edges) == set(fixture_graph.decisions)


def make_decision(n: int, text: str = "x") -> Decision:
    return Decision(
        id=f"a{n}#0",
        text=text,
        artifact_id=f"a{n}",
        source_uri=f"git:a{n}",
        timestamp=EPOCH.replace(day=n + 1),
        score=1.0,
        author="A <a@x>",
    )


def topic_over(*decision_ids: str) -> Topic:
    return Topic(id="t1", title="", member_decision_ids=decision_ids)


def span_for(decision_id: str, owner: str = None) -> RationaleSpan:
    return RationaleSpan(
        id=f"{decision_id}/r0",
        decision_id=owner or decision_id,
        artifact_id="a0",
        role=PURPOSE,
        marker="so that",
        text="it helps",
        start=0,
        end=8,
        same_sentence=True,
    )


def test_rationale_referencing_missing_decision_is_rejected():
    d = make_decision(0)
    with pytest.raises(GraphError, match="missing decision"):
        build_graph([d], [span_for(d.id, owner="ghost#0")], [topic_over(d.id)], [])


def test_decision_in_two_topics_is_rejected():
    d = make_decision(0)
    topics = [
        Topic(id="t1", title="", member_decision_ids=(d.id,)),
        Topic(id="t2", title="", member_decision_ids=(d.id,)),
    ]
    with pytest.raises(GraphError, match="more than one topic"):
        build_graph([d], [], topics, [])


def test_decision_without_topic_is_rejected():
    d0, d1 = make_decision(0), make_decision(1)
    with pytest.raises(GraphError, match="without a topic"):
        build_graph([d0, d1], [], [topic_over(d0.id)], [])


def test_edges_that_defy_time_are_rejected():
    d0, d1 = make_decision(0), make_decision(1)
    backwards = RelationEdge(
        kind=HISTORY, from_id=d0.id, to_id=d1.id, score=1.0,
        evidence=(Evidence("revert-metadata", "x", 1.0),),
    )
    with pytest.raises(GraphError, match="later"):
        build_graph([d0, d1], [], [topic_over(d0.id, d1.id)], [backwards])


def test_similar_edges_are_canonicalized():
    d0, d1 = make_decision(0), make_decision(1)
    edge = RelationEdge(kind=SIMILAR, from_id=d1.id, to_id=d0.id, score=0.5)
    graph = build_graph([d0, d1], [], [topic_over(d0.id, d1.id)], [edge])
    (stored,) = graph.relation_edges
    assert (stored.from_id, stored.to_id) == (d0.id, d1.id)


def test_duplicate_edges_are_rejected():
    d0, d1 = make_decision(0), make_decision(1)
    edge = RelationEdge(kind=SIMILAR, from_id=d0.id, to_id=d1.id, score=0.5)
    flipped = RelationEdge(kind=SIMILAR, from_id=d1.id, to_id=d0.id, score=0.7)
    with pytest.raises(GraphError, match="duplicate edge"):
        build_graph([d0, d1], [], [topic_over(d0.id, d1.id)], [edge, flipped])


def test_history_cycles_are_rejected():
    # Equal-timestamp cycles die on the direction check; mismatched
    # timestamps cannot cycle at all.
    d0, d1 = make_decision(0), make_decision(1)
    forward = RelationEdge(kind=HISTORY, from_id=d1.id, to_id=d0.id, score=1.0)
    backward = RelationEdge(kind=HISTORY, from_id=d0.id, to_id=d1.id, score=1.0)
    with pytest.raises(GraphError):
        build_graph([d0, d1], [], [topic_over(d0.id, d1.id)], [forward, backward])


def test_neighbors_similar_and_contradicts(fixture_graph):
    (similar,) = neighbors(fixture_graph, D1, {SIMILAR})
    assert similar[1].id == D2
    (contra,) = neighbors(fixture_graph, D1, {CONTRADICTS})
    assert contra[1].id == D3
    assert contra[0].from_id == D3  # incoming edge


def test_neighbors_unknown_id(fixture_graph):
    with pytest.raises(GraphError, match="unknown decision"):
        neighbors(fixture_graph, "nope#0", {SIMILAR})


def test_k_hop_zero_is_the_node_alone(fixture_graph):
    subgraph = k_hop(fixture_graph, D1, 0)
    assert subgraph.decision_ids == frozenset({D1})
    assert subgraph.rationale_ids == frozenset()
    assert subgraph.topic_ids == frozenset()


def test_k_hop_unknown_decision(fixture_graph):
    with pytest.raises(GraphError, match="unknown decision"):
        k_hop(fixture_graph, "missing#9", 1)


def test_k_hop_rejects_decisions_absent_from_an_older_graph(fixture_graph_d1_d4):
    with pytest.raises(GraphError, match="unknown decision"):
        k_hop(fixture_graph_d1_d4, D5, 1)


def test_k_hop_one_around_the_first_decision(fixture_graph):
    subgraph = k_hop(fixture_graph, D1, 1, ALL_KINDS)
    assert subgraph.decision_ids == frozenset({D1, D2, D3})
    assert subgraph.topic_ids == frozenset({"t1"})
    assert subgraph.rationale_ids == frozenset({f"{D1}/r0"})


def test_k_hop_respects_requested_kinds(fixture_graph):
    subgraph = k_hop(fixture_graph, D1, 1, {SIMILAR})
    assert subgraph.decision_ids == frozenset({D1, D2})
    assert subgraph.topic_ids == frozenset()


def test_fixture_round_trip_and_size(fixture_graph):
    text = save(fixture_graph)
    assert load(text) == fixture_graph
    assert 4000 < len(text.encode("utf-8")) < 9000  # pinned once, guards drift


def test_load_rejects_truncated_file(fixture_graph):
    text = save(fixture_graph)
    with pytest.raises(GraphError, match="JSON"):
        load(text[: len(text) // 2])


def test_load_rejects_wrong_version(fixture_graph):
    text = save(fixture_graph).replace('"rdg_version": 1', '"rdg_version": 9')
    with pytest.raises(GraphError, match="rdg_version"):
        load(text)


def test_load_reports_schema_path():
    with pytest.raises(GraphError, match="graph"):
        load("{}")
    doc = '{"rdg_version": 1, "decisions": [{"id": 5}], "rationales": [], "topics": [], "sources": [], "edges": []}'
    with pytest.raises(GraphError, match=r"decisions\[0\]"):
        load(doc)


def test_load_rejects_lone_surrogate_escapes(fixture_graph):
    text = save(fixture_graph)
    doc = json.loads(text)
    doc["decisions"][1]["text"] += "\ud800"
    with pytest.raises(GraphError, match=r"graph.decisions\[1\].text holds an unpaired"):
        load(json.dumps(doc))
    # A surrogate pair is one astral character and loads.
    doc["decisions"][1]["text"] = doc["decisions"][1]["text"][:-1] + "\U0001F600"
    assert load(json.dumps(doc)).decisions[D2].text.endswith("\U0001F600")


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda text: text.replace('"score": 1.0', '"score": 1' + "0" * 400, 1), "number out of range"),
        (lambda text: "[" * 100_000 + "]" * 100_000, "not valid JSON"),
        (lambda text: text.replace('"score": 1.0', '"score": 1' + "0" * 5000, 1), "not valid JSON"),
        (lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "9999-12-31T23:59:59-05:00"', text, count=1), "timestamp"),
    ],
    ids=["float-overflow", "deep-nesting", "int-digit-limit", "timestamp-overflow"],
)
def test_load_rejects_numbers_and_nesting_it_cannot_hold(fixture_graph, corrupt, match):
    text = save(fixture_graph)
    corrupted = corrupt(text)
    assert corrupted != text
    with pytest.raises(GraphError, match=match):
        load(corrupted)


def _load_outcome(loader, doc):
    """The graph a loader builds from a copy of ``doc``, or its error's type and text."""
    try:
        return loader(copy.deepcopy(doc))
    except (GraphError, OverflowError) as exc:
        return type(exc), str(exc)


def _assert_loads_as_reference(doc):
    assert _load_outcome(graph_module._graph_from_doc, doc) == _load_outcome(
        reference_graph_from_doc, doc
    )


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value

    return mutate


def _drop(path):
    def mutate(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        del target[last]

    return mutate


# One case per kind of record the shape test rejects; "loads" says whether the
# per-field path accepts it.
@pytest.mark.parametrize(
    "mutate, loads",
    [
        (_drop(("decisions", 0, "author")), False),
        (_set(("rationales", 0, "extra"), 1), True),
        (_set(("topics", 0, "title"), 5), False),
        (_set(("edges", 0, "score"), 1), True),
        (_set(("decisions", 0, "score"), 0), True),
        (_set(("decisions", 0, "score"), True), True),
        (_set(("rationales", 0, "start"), True), True),
        (_set(("edges", 0, "evidence", 0, "weight"), 1), True),
        (_set(("sources", 0), "x"), False),
        (_set(("edges", 0, "evidence", 0), []), False),
        (_set(("edges", 0, "evidence", 0, "weight"), 0.0), False),
        (_set(("edges", 0, "evidence", 0, "weight"), -1), False),
        (_set(("sources", 0, "uri"), ""), False),
        (_set(("decisions", 0, "timestamp"), "yesterday"), False),
        (_set(("decisions", 0, "timestamp"), "9999-12-31T23:59:59-05:00"), False),
        (_set(("decisions", 0, "files_touched"), [1]), False),
        (_set(("topics", 0, "members"), "t"), False),
        (_set(("edges", 0, "score"), 10**400), False),
        (_set(("rdg_version",), True), True),
        (_drop(("edges",)), False),
    ],
    ids=[
        "dropped-key", "extra-key", "other-type", "int-edge-score",
        "int-decision-score", "bool-score", "bool-offset", "int-weight",
        "non-object-record", "non-object-evidence", "zero-weight",
        "negative-weight", "empty-uri", "bad-timestamp", "timestamp-overflow",
        "non-string-file", "members-not-a-list", "int-beyond-float",
        "bool-version", "missing-array",
    ],
)
def test_load_matches_the_per_field_loader(fixture_graph, mutate, loads):
    doc = json.loads(save(fixture_graph))
    mutate(doc)
    _assert_loads_as_reference(doc)
    assert isinstance(_load_outcome(graph_module._graph_from_doc, doc), RdGraph) is loads


# Field values a mutation may write: every JSON type, the numbers only the
# per-field path accepts (ints and bools for floats, bools for ints), weights
# of at most 0, an empty string, bad and out-of-range timestamps, and an
# integer beyond float range.
_MUTANT_VALUES = [
    None, True, False, 0, 1, -1, 0.0, -0.5, 0.5, 10**400, "", "x", "yesterday",
    "2020-13-01T00:00:00Z", "9999-12-31T23:59:59-05:00", "2020-01-02T00:00:00",
    [], ["x"], [1], {}, {"x": 1},
]


def _record_slots(doc):
    """(container, key) of every array entry and every edge's evidence entry."""
    slots = []
    for name in ("decisions", "rationales", "topics", "sources", "edges"):
        entries = doc.get(name)
        if not isinstance(entries, list):
            continue
        for index, entry in enumerate(entries):
            slots.append((entries, index))
            evidence = entry.get("evidence") if isinstance(entry, dict) else None
            if isinstance(evidence, list):
                slots.extend((evidence, m) for m in range(len(evidence)))
    return slots


@st.composite
def mutated_graph_docs(draw):
    """A saved ``valid_graph_parts()`` graph with up to three fields or records changed."""
    doc = json.loads(save(build_graph(*draw(valid_graph_parts()))))
    for _ in range(draw(st.integers(0, 3))):
        slot = draw(st.sampled_from([None, *_record_slots(doc)]))
        record = doc if slot is None else slot[0][slot[1]]
        ops = ["extra", "drop", "set"] if slot is None else ["extra", "drop", "set", "replace"]
        op = draw(st.sampled_from(ops))
        value = copy.deepcopy(draw(st.sampled_from(_MUTANT_VALUES)))
        if op == "replace" or not isinstance(record, dict):
            slot[0][slot[1]] = draw(st.sampled_from([value, [record]]))
        elif op == "extra":
            record["extra"] = value
        elif record:
            key = draw(st.sampled_from(sorted(record)))
            if op == "drop":
                del record[key]
            else:
                record[key] = value
    return doc


@given(mutated_graph_docs())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_mutated_documents_load_as_with_the_per_field_loader(doc):
    _assert_loads_as_reference(doc)


def _counting_expect():
    calls = []
    original = graph_module._expect

    def counting(obj, key, types, path):
        calls.append((path, key))
        return original(obj, key, types, path)

    return calls, mock.patch.object(graph_module, "_expect", counting)


@given(valid_graph_parts())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_a_well_formed_file_makes_no_per_field_checks(parts):
    graph = build_graph(*parts)
    calls, patch = _counting_expect()
    with patch:
        assert load(save(graph)) == graph
    assert calls == []


def test_only_a_misshapen_record_takes_the_per_field_path(fixture_graph):
    doc = json.loads(save(fixture_graph))
    doc["edges"][1]["score"] = 1
    calls, patch = _counting_expect()
    with patch:
        load(json.dumps(doc))
    # The edge's evidence is checked field by field along with it.
    assert {path.split(".")[0] for path, _ in calls} == {"edges[1]"}


_DOT_NODE = re.compile(r'^  "(?:[^"\\]|\\.)*" \[label="(?:[^"\\]|\\.)*" shape=(box|ellipse|folder|note)\];$')
_DOT_EDGE = re.compile(r'^  "(?:[^"\\]|\\.)*" -> "(?:[^"\\]|\\.)*" \[label="[a-z]+"( dir=none)?\];$')


def assert_valid_dot(text: str) -> None:
    lines = text.strip().split("\n")
    assert lines[0] == "digraph rdg {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert _DOT_NODE.match(line) or _DOT_EDGE.match(line), line


def test_export_dot_empty_graph():
    text = export_dot(build_graph([], [], [], [], []))
    assert text == "digraph rdg {\n}\n"


def test_export_dot_fixture_contains_two_contradicts_labels(fixture_graph):
    text = export_dot(fixture_graph)
    assert text.count('label="contradicts"') == 2
    assert text.count('label="similar"') == 1
    assert text.count('label="history"') == 2
    assert_valid_dot(text)


def test_export_dot_escapes_quotes():
    d = replace(make_decision(0), text='say "hi"')
    graph = build_graph([d], [], [topic_over(d.id)], [])
    assert_valid_dot(export_dot(graph))


@given(valid_graph_parts())
@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_generated_graphs_round_trip(parts):
    graph = build_graph(*parts)
    assert load(save(graph)) == graph
    # Serialization itself is deterministic.
    assert save(graph) == save(load(save(graph)))


@given(valid_graph_parts(), st.integers(0, 4))
@settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_k_hop_is_monotone_in_k(parts, k):
    graph = build_graph(*parts)
    start = sorted(graph.decisions)[0]
    small = k_hop(graph, start, k)
    big = k_hop(graph, start, k + 1)
    assert small.decision_ids <= big.decision_ids
    assert small.rationale_ids <= big.rationale_ids
    assert small.topic_ids <= big.topic_ids
    assert set(small.edges) <= set(big.edges)


@given(valid_graph_parts())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_generated_graphs_export_valid_dot(parts):
    graph = build_graph(*parts)
    assert_valid_dot(export_dot(graph))
