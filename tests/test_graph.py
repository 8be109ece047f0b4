from __future__ import annotations

import copy
import gc
import json
import math
import re
from datetime import datetime, timezone
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import D1, D2, D3, D4, D5
from helpers import (
    assert_records_keep_their_types,
    broken_graphs,
    reference_graph_from_doc,
    reference_graph_violations,
    reference_k_hop,
    reference_neighbors,
    reference_save,
    valid_graph_parts,
)
from rdgraph import graph as graph_module
from rdgraph import (
    Artifact,
    GraphError,
    build_graph,
    export_dot,
    k_hop,
    load,
    neighbors,
    save,
    textsim,
)
from rdgraph.decisions import Decision
from rdgraph.graph import ALL_KINDS, RdGraph, SourceRef, graph_violations
from rdgraph.rationale import PURPOSE, RationaleSpan, SpanFragment
from rdgraph.relations import (
    CONTRADICTS,
    COSINE_SCORE,
    HISTORY,
    SIMILAR,
    Evidence,
    RelationEdge,
    Topic,
    detect_similar,
    edge_evidence,
    similar_edge,
)
from rdgraph.validate import STRUCTURAL_VIOLATION, validate_structure

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
    sources = {d.artifact_id for d in fixture_graph.decisions.values()}
    assert sources == set(fixture_graph.sources)


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


def _duplicate_member_message(topic_id: str, member: str, times: int) -> str:
    return (
        f"topic {topic_id!r} lists decision {member!r} {times} times; "
        "a topic lists each member once"
    )


def _edited(text: str, mutate) -> str:
    doc = json.loads(text)
    mutate(doc)
    return json.dumps(doc)


def _first_topic_lists_its_first_member_twice(doc):
    members = doc["topics"][0]["members"]
    members.append(members[0])


def test_a_topic_listing_a_decision_twice_reports_a_duplicate_member(fixture_graph):
    d0, d1 = make_decision(0), make_decision(1)
    with pytest.raises(GraphError) as info:
        build_graph([d0, d1], [], [topic_over(d0.id, d1.id, d0.id)], [])
    assert str(info.value) == _duplicate_member_message("t1", d0.id, 2)
    # A loaded file reports the same, not a decision in two topics.
    text = _edited(save(fixture_graph), _first_topic_lists_its_first_member_twice)
    (topic,) = fixture_graph.topics.values()
    with pytest.raises(GraphError) as info:
        load(text)
    assert str(info.value) == _duplicate_member_message(
        topic.id, topic.member_decision_ids[0], 2
    )


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
    for version in (1, 9):
        text = save(fixture_graph).replace('"rdg_version": 2', f'"rdg_version": {version}')
        with pytest.raises(GraphError) as info:
            load(text)
        assert str(info.value) == (
            f"unsupported rdg_version {version}; rebuild with `rdgraph build`"
        )


def test_load_reports_schema_path():
    with pytest.raises(GraphError, match="graph"):
        load("{}")
    doc = '{"rdg_version": 2, "decisions": [{"id": 5}], "rationales": [], "topics": [], "sources": [], "edges": []}'
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


# One case per kind of field the decoders' exact type tests reject; "loads"
# says whether ``_expect`` or the record's constructor then accepts it.
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
        (_set(("edges", 4, "score"), 0.0), False),
        (_set(("topics", 0, "members"), "t"), False),
        (_set(("edges", 0, "score"), 10**400), False),
        (_set(("rdg_version",), True), False),
        (_set(("edges", 4, "score"), 1), True),
        (_set(("edges", 4, "evidence"), []), True),
        (_drop(("edges",)), False),
        (_drop(("sources", 0, "artifact_kind")), False),
        (_drop(("decisions", 0, "timestamp")), False),
        (_drop(("edges", 0, "evidence", 0, "feature")), False),
    ],
    ids=[
        "dropped-key", "extra-key", "other-type", "int-edge-score",
        "int-decision-score", "bool-score", "bool-offset", "int-weight",
        "non-object-record", "non-object-evidence", "zero-weight",
        "negative-weight", "empty-uri", "bad-timestamp", "timestamp-overflow",
        "zero-similar-score", "members-not-a-list", "int-beyond-float",
        "bool-version", "int-similar-score", "similar-evidence-ignored",
        "missing-array", "missing-source-kind",
        "missing-timestamp", "missing-evidence-feature",
    ],
)
def test_load_matches_the_per_field_loader(fixture_graph, mutate, loads):
    doc = json.loads(save(fixture_graph))
    assert doc["edges"][4]["kind"] == SIMILAR  # the edge the similar cases change
    mutate(doc)
    _assert_loads_as_reference(doc)
    assert isinstance(_load_outcome(graph_module._graph_from_doc, doc), RdGraph) is loads


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            _drop(("sources", 0, "artifact_kind")),
            "sources[0]: missing key 'artifact_kind'",
        ),
        (_drop(("decisions", 0, "timestamp")), "decisions[0]: missing key 'timestamp'"),
        (
            _drop(("edges", 0, "evidence", 0, "feature")),
            "edges[0].evidence[0]: missing key 'feature'",
        ),
    ],
    ids=["source-kind", "timestamp", "evidence-feature"],
)
def test_a_missing_key_names_its_record_path_once(fixture_graph, mutate, message):
    doc = json.loads(save(fixture_graph))
    mutate(doc)
    with pytest.raises(GraphError) as info:
        load(json.dumps(doc))
    assert str(info.value) == message


# Field values a mutation may write: every JSON type, the numbers only
# ``_expect`` accepts (ints and bools for floats, bools for ints), weights
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
    # Only the int score leaves the exact type tests, under its edge's path.
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
    d = make_decision(0)._replace(text='say "hi"')
    graph = build_graph([d], [], [topic_over(d.id)], [])
    assert_valid_dot(export_dot(graph))


@given(valid_graph_parts())
@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_generated_graphs_round_trip(parts):
    graph = build_graph(*parts)
    text = save(graph)
    assert load(text) == graph
    assert_records_keep_their_types(graph, load(text))
    # A saved file is canonical: loading and saving it gives the same bytes.
    assert save(load(text)) == text


# Each checked record with one field set to a value its check refuses.
_REFUSED = [
    (Evidence(COSINE_SCORE, "x", 0.5), "weight", 0.0, "evidence weight must be positive"),
    (Evidence(COSINE_SCORE, "x", 0.5), "weight", -1.0, "evidence weight must be positive"),
    (Evidence(COSINE_SCORE, "x", 0.5), "weight", -math.inf, "evidence weight must be positive"),
    (Evidence(COSINE_SCORE, "x", 0.5), "weight", math.nan, "evidence weight must be finite, got nan"),
    (Evidence(COSINE_SCORE, "x", 0.5), "weight", math.inf, "evidence weight must be finite, got inf"),
    (SourceRef("a", "git:a", "commit"), "uri", "", "source uri must be non-empty"),
]


@pytest.mark.parametrize("how", ["call", "make", "replace"])
@pytest.mark.parametrize(
    "valid, field, value, message",
    _REFUSED,
    ids=["zero", "negative", "-inf", "nan", "inf", "empty-uri"],
)
def test_checked_records_refuse_bad_values_however_built(how, valid, field, value, message):
    values = [value if name == field else old for name, old in zip(valid._fields, valid)]
    build = {
        "call": lambda: type(valid)(*values),
        "make": lambda: type(valid)._make(values),
        "replace": lambda: valid._replace(**{field: value}),
    }[how]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_named_tuple_types_keep_the_frozen_dataclass_contracts(fixture_graph, config):
    values = [
        config,
        config.thresholds,
        Artifact("a", "git:a", "A <a@x>", EPOCH, "s: a", "body"),
        textsim.build_model(["alpha beta", "beta gamma"]),
        SpanFragment(PURPOSE, "so that", "it works", 0, 8),
        k_hop(fixture_graph, D1, 2),
        fixture_graph,
    ]
    for value in values:
        name = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, value[0])
        assert type(value)(*value) == value
        assert value._replace(**{name: None}) != value


def test_a_replaced_graph_derives_its_own_indexes(fixture_graph):
    graph = fixture_graph
    assert neighbors(graph, D1, ALL_KINDS) and graph.rationale_edges.get(D1)
    cached = graph.incident_edges
    kept = tuple(e for e in graph.relation_edges if D1 not in (e.from_id, e.to_id))
    changed = graph._replace(relation_edges=kept, rationales={})
    assert D1 not in changed.incident_edges
    assert changed.rationale_edges == {}
    assert neighbors(changed, D1, ALL_KINDS) == []
    assert graph.incident_edges is cached and D1 in cached


def test_artifacts_without_trailers_share_one_empty_read_only_mapping():
    first, second = (Artifact(n, f"git:{n}", "A <a@x>", EPOCH, "s", "b") for n in "ab")
    assert first.trailers is second.trailers
    assert isinstance(first.trailers, MappingProxyType) and first.trailers == {}
    with pytest.raises(TypeError):
        first.trailers["Acked-by"] = ("B <b@x>",)


@given(valid_graph_parts(), st.booleans())
@example(([], [], [], [], []), False)
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_save_writes_what_json_dumps_writes(parts, empty_members):
    graph = build_graph(*parts)
    if empty_members and graph.topics:
        # No valid graph has a memberless topic, but the writer's empty-array
        # layout must match json.dumps for members as for any other array.
        first = min(graph.topics)
        topics = {**graph.topics, first: graph.topics[first]._replace(member_decision_ids=())}
        graph = graph._replace(topics=topics)
    assert save(graph) == reference_save(graph)


class _OnePair:
    """A stand-in provider whose join yields one pair with a given score,
    if it reaches the threshold."""

    def __init__(self, score: float):
        self.score = score

    def pairs(self, texts, threshold):
        if self.score >= threshold:
            yield 0, 1, self.score


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_a_loaded_similar_edge_has_the_evidence_detect_similar_builds(score):
    d0, d1 = make_decision(0), make_decision(1)
    documents = {d0.id: "x", d1.id: "x"}
    (built,) = detect_similar([d0, d1], _OnePair(score), 0.0, documents)
    graph = build_graph([d0, d1], [], [topic_over(d0.id, d1.id)], [built])
    text = save(graph)
    assert '"evidence"' not in text
    (loaded,) = load(text).relation_edges
    assert loaded == built
    assert loaded.evidence == built.evidence == ()
    assert edge_evidence(loaded) == (Evidence(COSINE_SCORE, f"cosine {score:.6f}", score),)


_SIMILAR_EDGE_REFUSED = "must store no evidence and have a positive score"


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(
        st.tuples(st.sampled_from([COSINE_SCORE, "keyword"]), st.booleans(), st.booleans()),
        max_size=2,
    ),
)
@example(0.0, [])
@example(0.5, [(COSINE_SCORE, True, True)])
def test_build_graph_refuses_a_similar_edge_with_stored_evidence_or_a_zero_score(
    score, records
):
    """A similar edge's evidence is derived, so any stored evidence (the
    derived record included) is refused, as is a zero score, which no
    derived record can weigh; ``validate_structure`` reports the same edge."""
    evidence = tuple(
        Evidence(
            feature,
            f"cosine {score:.6f}" if exact_detail else "cosine",
            score if exact_weight and score > 0 else 0.5,
        )
        for feature, exact_detail, exact_weight in records
    )
    assume(evidence or score == 0.0)
    d0, d1 = make_decision(0), make_decision(1)
    edge = RelationEdge(SIMILAR, d0.id, d1.id, score, evidence)
    parts = ([d0, d1], [], [topic_over(d0.id, d1.id)], [edge])
    with pytest.raises(GraphError) as info:
        build_graph(*parts)
    assert str(info.value) == f"similar edge {d0.id!r} -> {d1.id!r} {_SIMILAR_EDGE_REFUSED}"
    graph = build_graph(*parts[:3], [])._replace(relation_edges=(edge,))
    (finding,) = validate_structure(graph)
    assert finding.kind == STRUCTURAL_VIOLATION
    assert (finding.subject_ids, finding.message) == ((d0.id, d1.id), str(info.value))


@given(broken_graphs())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_graph_violations_equal_the_reference_pass_plus_the_similar_edge_check(graph):
    """``graph_violations`` yields the reference pass's ``(subjects,
    message)`` sequence, with one more violation, in edge order, for each
    similar edge with stored evidence or a zero score that reaches the
    per-edge checks; so a file, whose similar edges hold neither, fails
    ``load`` with the same first message."""
    found = list(graph_violations(graph))
    assert [v for v in found if not v[1].endswith(_SIMILAR_EDGE_REFUSED)] == list(
        reference_graph_violations(graph)
    )
    assert [v for v in found if v[1].endswith(_SIMILAR_EDGE_REFUSED)] == [
        (
            (e.from_id, e.to_id),
            f"similar edge {e.from_id!r} -> {e.to_id!r} {_SIMILAR_EDGE_REFUSED}",
        )
        for e in graph.relation_edges
        if e.kind == SIMILAR
        and e.from_id != e.to_id
        and e.from_id in graph.decisions
        and e.to_id in graph.decisions
        and (e.evidence or e.score == 0.0)
    ]


def _zero_first_similar_score(doc):
    next(e for e in doc["edges"] if e["kind"] == SIMILAR)["score"] = 0.0


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "corrupt, error",
    [
        (lambda text: text, None),
        (lambda text: text[: len(text) // 2], "not valid JSON"),
        (lambda text: text.replace('"rdg_version": 2', '"rdg_version": 1'), "rdg_version 1"),
        (lambda text: _edited(text, _zero_first_similar_score), "score: evidence weight"),
        (lambda text: _edited(text, _first_topic_lists_its_first_member_twice), "2 times"),
    ],
    ids=["good", "bad-json", "v1", "bad-similar-score", "broken-invariant"],
)
def test_load_leaves_the_collector_as_it_found_it(fixture_graph, corrupt, error, enabled):
    text = corrupt(save(fixture_graph))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert load(text) == fixture_graph
        else:
            with pytest.raises(GraphError, match=error):
                load(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**30), 10**30).map(str),
        st.sampled_from(["0", "0.0", "-0.0", "1", "1e999", "-1e999", "5e-324", "-5e-324"]),
    )
)
@example("2.2250738585072014e-308")
def test_a_similar_score_decodes_as_similar_edge_builds_it(token):
    """Whatever the score token, the loader gives the record ``similar_edge``
    builds from its float, or that call's error at ``edges[0].score``."""
    d0, d1 = make_decision(0), make_decision(1)
    edge = similar_edge(d0.id, d1.id, 0.5)
    graph = build_graph([d0, d1], [], [topic_over(d0.id, d1.id)], [edge])
    text = save(graph).replace('"score": 0.5', f'"score": {token}')
    value = json.loads(token)
    record = {"from": d0.id, "kind": SIMILAR, "score": value, "to": d1.id}
    try:
        expected = similar_edge(d0.id, d1.id, float(value))
    except ValueError as exc:
        message = f"edges[0].score: {exc}"
        for decode in (lambda: graph_module._edge(record, 0), lambda: load(text)):
            with pytest.raises(GraphError) as info:
                decode()
            assert str(info.value) == message
        return
    decoded = graph_module._edge(record, 0)
    assert type(decoded) is RelationEdge
    assert repr(decoded) == repr(expected)
    if expected.score <= 1.0:
        assert load(text).relation_edges == (expected,)
    else:
        with pytest.raises(GraphError, match=r"outside \[0, 1\]"):
            load(text)


def _with_number(graph: RdGraph, where: str, value: float) -> RdGraph:
    if where == "decision-score":
        first = min(graph.decisions)
        decision = graph.decisions[first]._replace(score=value)
        return graph._replace(decisions={**graph.decisions, first: decision})
    edge = graph.relation_edges[0]._replace(score=value)
    return graph._replace(relation_edges=(edge,) + graph.relation_edges[1:])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["decision-score", "edge-score"])
def test_save_refuses_a_non_finite_number(fixture_graph, where, value):
    graph = _with_number(fixture_graph, where, value)
    with pytest.raises(GraphError) as info:
        save(graph)
    assert str(info.value) == f"cannot save the non-finite number {value!r}"


@pytest.mark.parametrize(
    "path, value, token",
    [
        (("edges", 0, "evidence", 0, "weight"), math.nan, "NaN"),
        (("decisions", 0, "score"), math.inf, "Infinity"),
        (("edges", 0, "score"), -math.inf, "-Infinity"),
    ],
    ids=["nan-weight", "infinite-score", "negative-infinite-score"],
)
def test_load_rejects_a_non_finite_number(fixture_graph, path, value, token):
    doc = json.loads(save(fixture_graph))
    _set(path, value)(doc)
    text = json.dumps(doc)
    assert token in text
    with pytest.raises(GraphError) as info:
        load(text)
    assert str(info.value) == f"graph file is not valid JSON: non-finite number {token}"


@pytest.mark.parametrize("key", ["start", "end"])
def test_a_bool_offset_loads_and_saves_as_an_integer(fixture_graph, key):
    doc = json.loads(save(fixture_graph))
    doc["rationales"][0][key] = True
    graph = load(json.dumps(doc))
    span = graph.rationales[doc["rationales"][0]["id"]]
    assert type(getattr(span, key)) is int
    text = save(graph)
    assert f'"{key}": true' not in text
    saved = json.loads(text)["rationales"][0][key]
    assert type(saved) is int and saved == 1
    assert load(text) == graph


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


@given(valid_graph_parts(), st.sets(st.sampled_from(sorted(ALL_KINDS))))
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_indexed_queries_equal_the_scan_references(parts, kinds):
    graph = build_graph(*parts)
    for decision_id in graph.decisions:
        found = neighbors(graph, decision_id, kinds)
        assert found == reference_neighbors(graph, decision_id, kinds)
        for k in range(5):
            subgraph = k_hop(graph, decision_id, k, kinds)
            assert subgraph == reference_k_hop(graph, decision_id, k, kinds)


@given(valid_graph_parts())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_generated_graphs_export_valid_dot(parts):
    graph = build_graph(*parts)
    assert_valid_dot(export_dot(graph))
