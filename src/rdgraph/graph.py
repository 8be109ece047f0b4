"""The decision/rationale graph store: typed nodes, queries, persistence.

Persistence is a single JSON document (schema version ``rdg_version: 1``)
with top-level arrays ``decisions, rationales, topics, sources, edges``.
Keys are emitted in alphabetical order and every array is sorted, so equal
graphs serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from .corpus import format_timestamp, lone_surrogate, parse_timestamp
from .decisions import Decision
from .rationale import RationaleSpan
from .relations import (
    CONTRADICTS,
    EDGE_KINDS,
    HISTORY,
    SIMILAR,
    Evidence,
    RelationEdge,
    Topic,
)

RDG_VERSION = 1

RATIONALE_KIND = "rationale"
TOPIC_KIND = "topic"
ALL_KINDS = frozenset(EDGE_KINDS) | {RATIONALE_KIND, TOPIC_KIND}

_NODE_SHAPES = {
    "decision": "box",
    "rationale": "ellipse",
    "topic": "folder",
    "source": "note",
}


class GraphError(ValueError):
    """Raised for inconsistent graph inputs or malformed graph files."""


@dataclass(frozen=True)
class SourceRef:
    """Traceability anchor: where a decision's artifact came from."""

    id: str
    uri: str
    artifact_kind: str

    def __post_init__(self) -> None:
        if not self.uri:
            raise ValueError("source uri must be non-empty")


@dataclass(frozen=True)
class Subgraph:
    decision_ids: frozenset[str]
    rationale_ids: frozenset[str]
    topic_ids: frozenset[str]
    edges: tuple[RelationEdge, ...]


@dataclass(frozen=True)
class RdGraph:
    decisions: dict[str, Decision]
    rationales: dict[str, RationaleSpan]
    topics: dict[str, Topic]
    sources: dict[str, SourceRef]
    relation_edges: tuple[RelationEdge, ...]
    rationale_edges: dict[str, tuple[str, ...]] = field(default_factory=dict)
    topic_edges: dict[str, str] = field(default_factory=dict)
    source_edges: dict[str, str] = field(default_factory=dict)


def _edge_sort_key(edge: RelationEdge) -> tuple[str, str, str]:
    return (edge.kind, edge.from_id, edge.to_id)


def _by_id(items: Iterable, what: str) -> dict:
    by_id: dict = {}
    for item in sorted(items, key=lambda x: x.id):
        if item.id in by_id:
            raise GraphError(f"duplicate {what} id {item.id!r}")
        by_id[item.id] = item
    return by_id


def graph_violations(graph: RdGraph) -> Iterator[tuple[tuple[str, ...], str]]:
    """Yield ``(subject ids, message)`` for every broken graph invariant.

    History edges must run from a strictly later decision to an earlier one,
    so any history cycle breaks that rule on at least one of its edges.
    """
    membership: dict[str, int] = {}
    for topic in graph.topics.values():
        if not topic.member_decision_ids:
            yield (topic.id,), f"topic {topic.id!r} has no members"
        for member in topic.member_decision_ids:
            membership[member] = membership.get(member, 0) + 1
            if member not in graph.decisions:
                yield (topic.id, member), (
                    f"topic {topic.id!r} references missing decision {member!r}"
                )
    for decision_id in sorted(graph.decisions):
        count = membership.get(decision_id, 0)
        if count == 0:
            yield (decision_id,), f"decision {decision_id!r} is without a topic"
        elif count > 1:
            yield (decision_id,), (
                f"decision {decision_id!r} belongs to {count} topics; "
                "a decision may not belong to more than one topic"
            )

    for span_id in sorted(graph.rationales):
        span = graph.rationales[span_id]
        if span.decision_id not in graph.decisions:
            yield (span_id,), (
                f"rationale {span_id!r} references missing decision "
                f"{span.decision_id!r}"
            )

    for decision_id in sorted(graph.decisions):
        decision = graph.decisions[decision_id]
        source = graph.sources.get(graph.source_edges.get(decision_id))
        if source is None:
            yield (decision_id,), (
                f"decision {decision_id!r} has no source for artifact "
                f"{decision.artifact_id!r}"
            )
        elif source.uri != decision.source_uri:
            yield (decision_id, source.id), (
                f"decision {decision_id!r} source uri {decision.source_uri!r} "
                f"does not match source {source.uri!r}"
            )

    seen: set[tuple[str, str, str]] = set()
    for edge in graph.relation_edges:
        subjects = (edge.from_id, edge.to_id)
        key = (edge.kind, edge.from_id, edge.to_id)
        if edge.kind not in EDGE_KINDS:
            yield subjects, f"unknown edge kind {edge.kind!r}"
            continue
        if key in seen:
            yield subjects, f"duplicate edge {key}"
        seen.add(key)
        if edge.from_id == edge.to_id:
            yield subjects, f"self edge on {edge.from_id!r}"
            continue
        if edge.from_id not in graph.decisions or edge.to_id not in graph.decisions:
            yield subjects, (
                f"{edge.kind} edge {edge.from_id!r} -> {edge.to_id!r} "
                "references a missing decision"
            )
            continue
        if not 0.0 <= edge.score <= 1.0:
            yield subjects, f"edge score {edge.score} outside [0, 1]"
        if edge.kind == SIMILAR and edge.from_id > edge.to_id:
            yield subjects, (
                f"similar edge {edge.from_id!r} -> {edge.to_id!r} "
                "is not in canonical order"
            )
        if edge.kind in (HISTORY, CONTRADICTS) and (
            graph.decisions[edge.from_id].timestamp
            <= graph.decisions[edge.to_id].timestamp
        ):
            yield subjects, (
                f"{edge.kind} edge {edge.from_id!r} -> {edge.to_id!r} "
                "must run from the later decision to the earlier one"
            )


def build_graph(
    decisions: Iterable[Decision],
    rationales: Iterable[RationaleSpan],
    topics: Iterable[Topic],
    relation_edges: Iterable[RelationEdge],
    sources: Iterable[SourceRef] | None = None,
) -> RdGraph:
    """Assemble and fully check a graph; raises GraphError on any violation."""
    decision_map: dict[str, Decision] = _by_id(decisions, "decision")
    rationale_map: dict[str, RationaleSpan] = _by_id(rationales, "rationale")
    topic_map: dict[str, Topic] = _by_id(topics, "topic")

    rationale_edges: dict[str, list[str]] = {}
    for span in rationale_map.values():
        rationale_edges.setdefault(span.decision_id, []).append(span.id)
    topic_edges = {
        member: topic.id
        for topic in topic_map.values()
        for member in topic.member_decision_ids
    }

    if sources is None:
        derived: dict[str, SourceRef] = {}
        for decision in decision_map.values():
            existing = derived.get(decision.artifact_id)
            if existing is not None and existing.uri != decision.source_uri:
                raise GraphError(
                    f"conflicting source uris for artifact {decision.artifact_id!r}"
                )
            derived[decision.artifact_id] = SourceRef(
                id=decision.artifact_id, uri=decision.source_uri, artifact_kind="other"
            )
        sources = derived.values()

    canonical = sorted(
        (
            replace(edge, from_id=edge.to_id, to_id=edge.from_id)
            if edge.kind == SIMILAR and edge.from_id > edge.to_id
            else edge
            for edge in relation_edges
        ),
        key=_edge_sort_key,
    )

    graph = RdGraph(
        decisions=decision_map,
        rationales=rationale_map,
        topics=topic_map,
        sources=_by_id(sources, "source"),
        relation_edges=tuple(canonical),
        rationale_edges={k: tuple(v) for k, v in sorted(rationale_edges.items())},
        topic_edges={k: topic_edges[k] for k in sorted(topic_edges)},
        source_edges={k: d.artifact_id for k, d in decision_map.items()},
    )
    for _, message in graph_violations(graph):
        raise GraphError(message)
    return graph


def rationales_of(graph: RdGraph, decision_id: str) -> list[RationaleSpan]:
    return [graph.rationales[rid] for rid in graph.rationale_edges.get(decision_id, ())]


def neighbors(
    graph: RdGraph, decision_id: str, kinds: frozenset[str] | set[str]
) -> list[tuple[RelationEdge, Decision]]:
    """Edges of the requested kinds incident to a decision, with the peer.

    Similar edges are treated as bidirectional; history and contradicts
    edges count in both directions.
    """
    if decision_id not in graph.decisions:
        raise GraphError(f"unknown decision id {decision_id!r}")
    found = []
    for edge in graph.relation_edges:
        if edge.kind not in kinds:
            continue
        if edge.from_id == decision_id:
            found.append((edge, graph.decisions[edge.to_id]))
        elif edge.to_id == decision_id:
            found.append((edge, graph.decisions[edge.from_id]))
    found.sort(key=lambda pair: (pair[0].kind, pair[1].id))
    return found


def k_hop(
    graph: RdGraph,
    decision_id: str,
    k: int,
    kinds: frozenset[str] | set[str] = ALL_KINDS,
) -> Subgraph:
    """Nodes and edges reachable within k hops over the given edge kinds.

    Decisions connect through relation edges; ``rationale`` and ``topic``
    kinds hop to the owned rationale nodes and the owning topic.  k = 0
    yields the start node alone.
    """
    if decision_id not in graph.decisions:
        raise GraphError(f"unknown decision id {decision_id!r}")
    if k < 0:
        raise ValueError("k must be >= 0")

    start = ("decision", decision_id)
    frontier = {start}
    visited = {start}
    for _ in range(k):
        next_frontier: set[tuple[str, str]] = set()
        for node_kind, node_id in frontier:
            for peer in _adjacent(graph, node_kind, node_id, kinds):
                if peer not in visited:
                    visited.add(peer)
                    next_frontier.add(peer)
        if not next_frontier:
            break
        frontier = next_frontier

    decision_ids = frozenset(i for kind, i in visited if kind == "decision")
    edges = tuple(
        sorted(
            (
                e
                for e in graph.relation_edges
                if e.kind in kinds
                and e.from_id in decision_ids
                and e.to_id in decision_ids
            ),
            key=_edge_sort_key,
        )
    )
    return Subgraph(
        decision_ids=decision_ids,
        rationale_ids=frozenset(i for kind, i in visited if kind == "rationale"),
        topic_ids=frozenset(i for kind, i in visited if kind == "topic"),
        edges=edges,
    )


def _adjacent(
    graph: RdGraph, node_kind: str, node_id: str, kinds: frozenset[str] | set[str]
) -> list[tuple[str, str]]:
    peers: list[tuple[str, str]] = []
    if node_kind == "decision":
        for edge in graph.relation_edges:
            if edge.kind not in kinds:
                continue
            if edge.from_id == node_id:
                peers.append(("decision", edge.to_id))
            elif edge.to_id == node_id:
                peers.append(("decision", edge.from_id))
        if RATIONALE_KIND in kinds:
            peers.extend(
                ("rationale", rid) for rid in graph.rationale_edges.get(node_id, ())
            )
        if TOPIC_KIND in kinds and node_id in graph.topic_edges:
            peers.append(("topic", graph.topic_edges[node_id]))
    elif node_kind == "rationale" and RATIONALE_KIND in kinds:
        peers.append(("decision", graph.rationales[node_id].decision_id))
    elif node_kind == "topic" and TOPIC_KIND in kinds:
        peers.extend(
            ("decision", member)
            for member in graph.topics[node_id].member_decision_ids
        )
    return peers


def _decision_to_dict(decision: Decision) -> dict:
    return {
        "artifact_id": decision.artifact_id,
        "author": decision.author,
        "files_touched": list(decision.files_touched),
        "id": decision.id,
        "score": decision.score,
        "source_uri": decision.source_uri,
        "text": decision.text,
        "timestamp": format_timestamp(decision.timestamp),
    }


def _rationale_to_dict(span: RationaleSpan) -> dict:
    return {
        "artifact_id": span.artifact_id,
        "decision_id": span.decision_id,
        "end": span.end,
        "id": span.id,
        "marker": span.marker,
        "role": span.role,
        "same_sentence": span.same_sentence,
        "start": span.start,
        "text": span.text,
    }


def save(graph: RdGraph) -> str:
    """Serialize to the canonical JSON graph document."""
    doc = {
        "rdg_version": RDG_VERSION,
        "decisions": [
            _decision_to_dict(graph.decisions[i]) for i in sorted(graph.decisions)
        ],
        "rationales": [
            _rationale_to_dict(graph.rationales[i]) for i in sorted(graph.rationales)
        ],
        "topics": [
            {
                "id": t.id,
                "members": list(t.member_decision_ids),
                "title": t.title,
            }
            for t in (graph.topics[i] for i in sorted(graph.topics))
        ],
        "sources": [
            {"artifact_kind": s.artifact_kind, "id": s.id, "uri": s.uri}
            for s in (graph.sources[i] for i in sorted(graph.sources))
        ],
        "edges": [
            {
                "evidence": [
                    {"detail": e.detail, "feature": e.feature, "weight": e.weight}
                    for e in edge.evidence
                ],
                "from": edge.from_id,
                "kind": edge.kind,
                "score": edge.score,
                "to": edge.to_id,
            }
            for edge in sorted(graph.relation_edges, key=_edge_sort_key)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _expect(obj: Mapping, key: str, types: type | tuple, path: str):
    if key not in obj:
        raise GraphError(f"{path}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise GraphError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def load(text: str) -> RdGraph:
    """Parse and validate a graph document; structural checks all apply."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"graph file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("graph file: top level must be an object")
    where = lone_surrogate(text, doc, "graph")
    if where is not None:
        raise GraphError(f"{where} holds an unpaired surrogate escape")
    try:
        return _graph_from_doc(doc)
    except OverflowError as exc:  # an integer score or weight beyond float range
        raise GraphError(f"graph file: number out of range: {exc}") from exc


# The exact key set of each record kind, as ``save`` writes it.
_DECISION_KEYS = frozenset(
    ("artifact_id", "author", "files_touched", "id", "score", "source_uri",
     "text", "timestamp")
)
_RATIONALE_KEYS = frozenset(
    ("artifact_id", "decision_id", "end", "id", "marker", "role",
     "same_sentence", "start", "text")
)
_TOPIC_KEYS = frozenset(("id", "members", "title"))
_SOURCE_KEYS = frozenset(("artifact_kind", "id", "uri"))
_EDGE_KEYS = frozenset(("evidence", "from", "kind", "score", "to"))
_EVIDENCE_KEYS = frozenset(("detail", "feature", "weight"))


def _field(obj: dict, key: str, types: type, path: str):
    """``obj[key]`` when its type is exactly ``types``, else ``_expect``'s verdict."""
    value = obj.get(key)
    return value if type(value) is types else _expect(obj, key, types, path)


def _graph_from_doc(doc: dict) -> RdGraph:
    """The graph of a parsed document, each record checked once.

    A record of exactly the shape ``save`` writes (its key set, and the exact
    JSON type of every value) is built in one step.  Any other record, or one
    whose constructor raises, goes through the per-field ``_checked_*``
    functions: they build what the format also accepts (int scores, bool
    offsets, extra keys) and otherwise raise the first error in field order.
    Records are never falsy, so ``or`` picks the fallback only for None.
    """
    version = _field(doc, "rdg_version", int, "graph")
    if version != RDG_VERSION:
        raise GraphError(f"unsupported rdg_version {version}")
    decisions = [
        _decision(obj) or _checked_decision(obj, f"decisions[{n}]")
        for n, obj in enumerate(_field(doc, "decisions", list, "graph"))
    ]
    rationales = [
        _rationale(obj) or _checked_rationale(obj, f"rationales[{n}]")
        for n, obj in enumerate(_field(doc, "rationales", list, "graph"))
    ]
    topics = [
        _topic(obj) or _checked_topic(obj, f"topics[{n}]")
        for n, obj in enumerate(_field(doc, "topics", list, "graph"))
    ]
    sources = [
        _source(obj) or _checked_source(obj, f"sources[{n}]")
        for n, obj in enumerate(_field(doc, "sources", list, "graph"))
    ]
    edges = [
        _edge(obj) or _checked_edge(obj, f"edges[{n}]")
        for n, obj in enumerate(_field(doc, "edges", list, "graph"))
    ]
    return build_graph(decisions, rationales, topics, edges, sources)


def _decision(obj: object) -> Decision | None:
    if type(obj) is not dict or obj.keys() != _DECISION_KEYS:
        return None
    id_, text, artifact_id, source_uri, stamp, score, author, files = (
        obj["id"], obj["text"], obj["artifact_id"], obj["source_uri"],
        obj["timestamp"], obj["score"], obj["author"], obj["files_touched"],
    )
    if not (
        type(id_) is str and type(text) is str and type(artifact_id) is str
        and type(source_uri) is str and type(stamp) is str
        and type(score) is float and type(author) is str
        and type(files) is list and all(type(f) is str for f in files)
    ):
        return None
    try:
        timestamp = parse_timestamp(stamp)
    except ValueError:
        return None
    return Decision(
        id_, text, artifact_id, source_uri, timestamp, score, author, tuple(files)
    )


def _rationale(obj: object) -> RationaleSpan | None:
    if type(obj) is not dict or obj.keys() != _RATIONALE_KEYS:
        return None
    id_, decision_id, artifact_id, role, marker, text, start, end, same = (
        obj["id"], obj["decision_id"], obj["artifact_id"], obj["role"],
        obj["marker"], obj["text"], obj["start"], obj["end"], obj["same_sentence"],
    )
    if not (
        type(id_) is str and type(decision_id) is str and type(artifact_id) is str
        and type(role) is str and type(marker) is str and type(text) is str
        and type(start) is int and type(end) is int and type(same) is bool
    ):
        return None
    return RationaleSpan(
        id_, decision_id, artifact_id, role, marker, text, start, end, same
    )


def _topic(obj: object) -> Topic | None:
    if type(obj) is not dict or obj.keys() != _TOPIC_KEYS:
        return None
    id_, title, members = obj["id"], obj["title"], obj["members"]
    if not (
        type(id_) is str and type(title) is str and type(members) is list
        and all(type(m) is str for m in members)
    ):
        return None
    return Topic(id_, title, tuple(members))


def _source(obj: object) -> SourceRef | None:
    if type(obj) is not dict or obj.keys() != _SOURCE_KEYS:
        return None
    id_, uri, kind = obj["id"], obj["uri"], obj["artifact_kind"]
    if not (type(id_) is str and type(uri) is str and type(kind) is str):
        return None
    try:
        return SourceRef(id_, uri, kind)
    except ValueError:
        return None


def _edge(obj: object) -> RelationEdge | None:
    if type(obj) is not dict or obj.keys() != _EDGE_KEYS:
        return None
    kind, from_id, to_id, score, records = (
        obj["kind"], obj["from"], obj["to"], obj["score"], obj["evidence"]
    )
    if not (
        type(kind) is str and type(from_id) is str and type(to_id) is str
        and type(score) is float and type(records) is list
    ):
        return None
    evidence = []
    for ev in records:
        if type(ev) is not dict or ev.keys() != _EVIDENCE_KEYS:
            return None
        feature, detail, weight = ev["feature"], ev["detail"], ev["weight"]
        if not (type(feature) is str and type(detail) is str and type(weight) is float):
            return None
        try:
            evidence.append(Evidence(feature, detail, weight))
        except ValueError:
            return None
    return RelationEdge(kind, from_id, to_id, score, tuple(evidence))


def _checked_decision(obj: object, path: str) -> Decision:
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: expected object")
    files = _expect(obj, "files_touched", list, path)
    if not all(isinstance(f, str) for f in files):
        raise GraphError(f"{path}.files_touched: expected strings")
    try:
        timestamp = parse_timestamp(_expect(obj, "timestamp", str, path))
    except ValueError as exc:
        raise GraphError(f"{path}.timestamp: {exc}") from exc
    return Decision(
        id=_expect(obj, "id", str, path),
        text=_expect(obj, "text", str, path),
        artifact_id=_expect(obj, "artifact_id", str, path),
        source_uri=_expect(obj, "source_uri", str, path),
        timestamp=timestamp,
        score=float(_expect(obj, "score", (int, float), path)),
        author=_expect(obj, "author", str, path),
        files_touched=tuple(files),
    )


def _checked_rationale(obj: object, path: str) -> RationaleSpan:
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: expected object")
    return RationaleSpan(
        id=_expect(obj, "id", str, path),
        decision_id=_expect(obj, "decision_id", str, path),
        artifact_id=_expect(obj, "artifact_id", str, path),
        role=_expect(obj, "role", str, path),
        marker=_expect(obj, "marker", str, path),
        text=_expect(obj, "text", str, path),
        start=_expect(obj, "start", int, path),
        end=_expect(obj, "end", int, path),
        same_sentence=_expect(obj, "same_sentence", bool, path),
    )


def _checked_topic(obj: object, path: str) -> Topic:
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: expected object")
    members = _expect(obj, "members", list, path)
    if not all(isinstance(m, str) for m in members):
        raise GraphError(f"{path}.members: expected strings")
    return Topic(
        id=_expect(obj, "id", str, path),
        title=_expect(obj, "title", str, path),
        member_decision_ids=tuple(members),
    )


def _checked_source(obj: object, path: str) -> SourceRef:
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: expected object")
    try:
        return SourceRef(
            id=_expect(obj, "id", str, path),
            uri=_expect(obj, "uri", str, path),
            artifact_kind=_expect(obj, "artifact_kind", str, path),
        )
    except ValueError as exc:
        raise GraphError(f"{path}: {exc}") from exc


def _checked_edge(obj: object, path: str) -> RelationEdge:
    if not isinstance(obj, dict):
        raise GraphError(f"{path}: expected object")
    evidence = []
    for m, ev in enumerate(_expect(obj, "evidence", list, path)):
        ev_path = f"{path}.evidence[{m}]"
        if not isinstance(ev, dict):
            raise GraphError(f"{ev_path}: expected object")
        try:
            evidence.append(
                Evidence(
                    feature=_expect(ev, "feature", str, ev_path),
                    detail=_expect(ev, "detail", str, ev_path),
                    weight=float(_expect(ev, "weight", (int, float), ev_path)),
                )
            )
        except ValueError as exc:
            raise GraphError(f"{ev_path}: {exc}") from exc
    return RelationEdge(
        kind=_expect(obj, "kind", str, path),
        from_id=_expect(obj, "from", str, path),
        to_id=_expect(obj, "to", str, path),
        score=float(_expect(obj, "score", (int, float), path)),
        evidence=tuple(evidence),
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(graph: RdGraph) -> str:
    """Render the graph in plain DOT, deterministic and layout-free."""
    lines = ["digraph rdg {"]
    for decision_id in sorted(graph.decisions):
        decision = graph.decisions[decision_id]
        lines.append(
            f'  "{_dot_escape(decision_id)}" '
            f'[label="{_dot_escape(decision.text)}" shape={_NODE_SHAPES["decision"]}];'
        )
    for span_id in sorted(graph.rationales):
        span = graph.rationales[span_id]
        lines.append(
            f'  "{_dot_escape(span_id)}" '
            f'[label="{_dot_escape(span.text)}" shape={_NODE_SHAPES["rationale"]}];'
        )
    for topic_id in sorted(graph.topics):
        topic = graph.topics[topic_id]
        label = topic.title or topic.id
        lines.append(
            f'  "{_dot_escape(topic_id)}" '
            f'[label="{_dot_escape(label)}" shape={_NODE_SHAPES["topic"]}];'
        )
    for source_id in sorted(graph.sources):
        source = graph.sources[source_id]
        lines.append(
            f'  "{_dot_escape(source_id)}" '
            f'[label="{_dot_escape(source.uri)}" shape={_NODE_SHAPES["source"]}];'
        )
    for decision_id in sorted(graph.rationale_edges):
        for span_id in graph.rationale_edges[decision_id]:
            lines.append(
                f'  "{_dot_escape(decision_id)}" -> "{_dot_escape(span_id)}" '
                f'[label="rationale"];'
            )
    for decision_id in sorted(graph.topic_edges):
        lines.append(
            f'  "{_dot_escape(decision_id)}" -> '
            f'"{_dot_escape(graph.topic_edges[decision_id])}" [label="topic"];'
        )
    for decision_id in sorted(graph.source_edges):
        lines.append(
            f'  "{_dot_escape(decision_id)}" -> '
            f'"{_dot_escape(graph.source_edges[decision_id])}" [label="source"];'
        )
    for edge in sorted(graph.relation_edges, key=_edge_sort_key):
        attrs = f'label="{edge.kind}"'
        if edge.kind == SIMILAR:
            attrs += " dir=none"
        lines.append(
            f'  "{_dot_escape(edge.from_id)}" -> "{_dot_escape(edge.to_id)}" [{attrs}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
