"""The decision/rationale graph store: typed nodes, queries, persistence.

Persistence is a single JSON document (schema version ``rdg_version: 2``)
with top-level arrays ``decisions, rationales, topics, sources, edges``.
Keys are emitted in alphabetical order and every array is sorted, so equal
graphs serialize to identical bytes.  Similar edges store no evidence, in
the file or in memory: ``relations.edge_evidence`` derives it from the score.
"""

from __future__ import annotations

import gc
import json
import math
from collections import Counter
from functools import cached_property
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .corpus import format_timestamp, lone_surrogate, parse_timestamp
from .decisions import Decision
from .rationale import RationaleSpan
from .relations import EDGE_KINDS, SIMILAR, Evidence, RelationEdge, Topic, similar_edge

RDG_VERSION = 2

RATIONALE_KIND = "rationale"
TOPIC_KIND = "topic"
ALL_KINDS = frozenset(EDGE_KINDS) | {RATIONALE_KIND, TOPIC_KIND}


class GraphError(ValueError):
    """Raised for inconsistent graph inputs or malformed graph files."""


class _SourceRefFields(NamedTuple):
    id: str
    uri: str
    artifact_kind: str


class SourceRef(_SourceRefFields):
    """Traceability anchor: where a decision's artifact came from.

    An immutable named tuple.  ``SourceRef(...)``, ``SourceRef._make`` and
    ``._replace`` all check that the uri is non-empty.
    """

    __slots__ = ()

    def __new__(cls, id: str, uri: str, artifact_kind: str) -> SourceRef:
        if not uri:
            raise ValueError("source uri must be non-empty")
        return tuple.__new__(cls, (id, uri, artifact_kind))

    @classmethod
    def _make(cls, iterable: Iterable) -> SourceRef:
        return cls(*iterable)


class Subgraph(NamedTuple):
    decision_ids: frozenset[str]
    rationale_ids: frozenset[str]
    topic_ids: frozenset[str]
    edges: tuple[RelationEdge, ...]


class _GraphRecords(NamedTuple):
    decisions: dict[str, Decision]
    rationales: dict[str, RationaleSpan]
    topics: dict[str, Topic]
    sources: dict[str, SourceRef]
    relation_edges: tuple[RelationEdge, ...]


class RdGraph(_GraphRecords):
    """A decision graph: five records and the indexes derived from them.

    Only the records are stored.  Each index is computed from them on first
    use and kept, so a graph constructed directly answers every query as the
    one ``build_graph`` returns; ``._replace`` gives a graph that derives
    its own.  A decision's source is the source whose id is its
    ``artifact_id``.  The class has no ``__slots__``: the indexes live in
    its ``__dict__``.
    """

    @cached_property
    def rationale_edges(self) -> dict[str, tuple[str, ...]]:
        """Each decision's rationale span ids, in id order."""
        owned: dict[str, list[str]] = {}
        for span_id in sorted(self.rationales):
            owned.setdefault(self.rationales[span_id].decision_id, []).append(span_id)
        return {k: tuple(owned[k]) for k in sorted(owned)}

    @cached_property
    def topic_edges(self) -> dict[str, str]:
        """The topic of each member decision."""
        owner = {
            member: topic_id
            for topic_id in sorted(self.topics)
            for member in self.topics[topic_id].member_decision_ids
        }
        return {k: owner[k] for k in sorted(owner)}

    @cached_property
    def incident_edges(self) -> dict[str, list[RelationEdge]]:
        """Each decision's relation edges, either end, in ``relation_edges`` order."""
        incident: dict[str, list[RelationEdge]] = {}
        for edge in self.relation_edges:
            incident.setdefault(edge.from_id, []).append(edge)
            if edge.to_id != edge.from_id:
                incident.setdefault(edge.to_id, []).append(edge)
        return incident


# An edge's (kind, from_id, to_id): the order of edges in files and queries.
_edge_sort_key = attrgetter("kind", "from_id", "to_id")


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
        for member, times in Counter(topic.member_decision_ids).items():
            if times > 1:
                yield (topic.id, member), (
                    f"topic {topic.id!r} lists decision {member!r} {times} times; "
                    "a topic lists each member once"
                )
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
        source = graph.sources.get(decision.artifact_id)
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
    decisions = graph.decisions
    for kind, from_id, to_id, score, evidence in graph.relation_edges:
        if kind not in EDGE_KINDS:
            yield (from_id, to_id), f"unknown edge kind {kind!r}"
            continue
        key = (kind, from_id, to_id)
        if key in seen:
            yield (from_id, to_id), f"duplicate edge {key}"
        seen.add(key)
        if from_id == to_id:
            yield (from_id, to_id), f"self edge on {from_id!r}"
            continue
        later, earlier = decisions.get(from_id), decisions.get(to_id)
        if later is None or earlier is None:
            yield (from_id, to_id), (
                f"{kind} edge {from_id!r} -> {to_id!r} references a missing decision"
            )
            continue
        if not 0.0 <= score <= 1.0:
            yield (from_id, to_id), f"edge score {score} outside [0, 1]"
        if kind == SIMILAR:
            if from_id > to_id:
                yield (from_id, to_id), (
                    f"similar edge {from_id!r} -> {to_id!r} is not in canonical order"
                )
            # The score is the derived evidence's weight; below 0 it is outside [0, 1].
            if evidence or score == 0.0:
                yield (from_id, to_id), (
                    f"similar edge {from_id!r} -> {to_id!r} must store no evidence "
                    "and have a positive score"
                )
        elif later.timestamp <= earlier.timestamp:
            yield (from_id, to_id), (
                f"{kind} edge {from_id!r} -> {to_id!r} "
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
            edge._replace(from_id=edge.to_id, to_id=edge.from_id)
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
    edges count in both directions.  The pairs sort by edge kind, then peer
    id, and equal keys keep ``relation_edges`` order.  The graph's incidence
    index makes this cost the decision's own edges, not the graph's.
    """
    if decision_id not in graph.decisions:
        raise GraphError(f"unknown decision id {decision_id!r}")
    decisions = graph.decisions
    found = [
        (e, decisions[e.to_id if e.from_id == decision_id else e.from_id])
        for e in graph.incident_edges.get(decision_id, ())
        if e.kind in kinds
    ]
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
    yields the start node alone.  The edges are those of the requested kinds
    between reached decisions.  Each hop reads the incidence of the nodes it
    expands, so the cost grows with the edges reached, not with the graph.
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
    # Each edge is listed once, from the incidence of its from end; taking
    # the ends in id order leaves the sort little to do.
    edges = tuple(
        sorted(
            (
                e
                for d in sorted(decision_ids)
                for e in graph.incident_edges.get(d, ())
                if e.from_id == d and e.kind in kinds and e.to_id in decision_ids
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
        peers.extend(("decision", p.id) for _, p in neighbors(graph, node_id, kinds))
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


_q = encode_basestring  # the string encoder of json.dumps(ensure_ascii=False)


def _number(value: float) -> str:
    if not -math.inf < value < math.inf:
        raise GraphError(f"cannot save the non-finite number {value!r}")
    return repr(value)


def _array(items: list[str], pad: str) -> str:
    """Encoded items as a JSON array whose closing bracket is indented by pad."""
    if not items:
        return "[]"
    inner = f",\n{pad}  ".join(items)
    return f"[\n{pad}  {inner}\n{pad}]"


def _evidence(e: Evidence) -> str:
    return f"""{{
          "detail": {_q(e.detail)},
          "feature": {_q(e.feature)},
          "weight": {_number(e.weight)}
        }}"""


def _edge_record(edge: RelationEdge) -> str:
    record = f"""
      "from": {_q(edge.from_id)},
      "kind": {_q(edge.kind)},
      "score": {_number(edge.score)},
      "to": {_q(edge.to_id)}
    }}"""
    if edge.kind == SIMILAR:
        return "{" + record
    evidence = _array(list(map(_evidence, edge.evidence)), "      ")
    return f'{{\n      "evidence": {evidence},{record}'


def save(graph: RdGraph) -> str:
    """Serialize to the canonical JSON graph document.

    The text is what ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False)`` gives for the graph's document, written directly:
    one template per record kind with its keys in sorted order, strings
    through json's own encoder and floats by ``repr``.  A similar edge is
    written without evidence.  A non-finite number raises GraphError.
    """
    decisions = [
        f"""{{
      "artifact_id": {_q(d.artifact_id)},
      "author": {_q(d.author)},
      "id": {_q(d.id)},
      "score": {_number(d.score)},
      "source_uri": {_q(d.source_uri)},
      "text": {_q(d.text)},
      "timestamp": {_q(format_timestamp(d.timestamp))}
    }}"""
        for d in (graph.decisions[i] for i in sorted(graph.decisions))
    ]
    rationales = [
        f"""{{
      "artifact_id": {_q(r.artifact_id)},
      "decision_id": {_q(r.decision_id)},
      "end": {r.end:d},
      "id": {_q(r.id)},
      "marker": {_q(r.marker)},
      "role": {_q(r.role)},
      "same_sentence": {"true" if r.same_sentence else "false"},
      "start": {r.start:d},
      "text": {_q(r.text)}
    }}"""
        for r in (graph.rationales[i] for i in sorted(graph.rationales))
    ]
    topics = [
        f"""{{
      "id": {_q(t.id)},
      "members": {_array(list(map(_q, t.member_decision_ids)), "      ")},
      "title": {_q(t.title)}
    }}"""
        for t in (graph.topics[i] for i in sorted(graph.topics))
    ]
    sources = [
        f"""{{
      "artifact_kind": {_q(s.artifact_kind)},
      "id": {_q(s.id)},
      "uri": {_q(s.uri)}
    }}"""
        for s in (graph.sources[i] for i in sorted(graph.sources))
    ]
    edges = list(map(_edge_record, sorted(graph.relation_edges, key=_edge_sort_key)))
    return f"""{{
  "decisions": {_array(decisions, "  ")},
  "edges": {_array(edges, "  ")},
  "rationales": {_array(rationales, "  ")},
  "rdg_version": {RDG_VERSION},
  "sources": {_array(sources, "  ")},
  "topics": {_array(topics, "  ")}
}}
"""


def _expect(obj: Mapping, key: str, types: type | tuple, path: str):
    if key not in obj:
        raise GraphError(f"{path}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise GraphError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token}")


def load(text: str) -> RdGraph:
    """Parse a graph document, decode each record, and check every invariant.

    Each record becomes an immutable named tuple, compared by value:
    ``Decision``, ``RationaleSpan``, ``Topic``, ``SourceRef``, and
    ``RelationEdge`` with its ``Evidence``.  A similar edge is built by
    ``similar_edge`` with no evidence, as in memory, so ``load(save(g)) == g``.
    Other versions, and ``NaN`` and ``Infinity`` (not JSON), are rejected.
    """
    try:
        doc = json.loads(text, parse_constant=_non_finite)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"graph file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("graph file: top level must be an object")
    where = lone_surrogate(text, doc, "graph")
    if where is not None:
        raise GraphError(f"{where} holds an unpaired surrogate escape")
    # The records hold no cycles: the cyclic collector pauses while they are built.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _graph_from_doc(doc)
    except OverflowError as exc:  # an integer score or weight beyond float range
        raise GraphError(f"graph file: number out of range: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _field(obj: dict, key: str, types: type, path: str):
    """``obj[key]`` when its type is exactly ``types``, else ``_expect``'s verdict."""
    value = obj.get(key)
    return value if type(value) is types else _expect(obj, key, types, path)


def _graph_from_doc(doc: dict) -> RdGraph:
    """The graph of a parsed document, each record decoded once.

    Each record kind has one decoder.  It tests each field's exact JSON type
    in the order errors are reported and calls ``_expect`` only on a
    mismatch; ``_expect`` accepts what the format also allows (int scores
    and weights, bool offsets), which the decoder converts to float and int,
    and otherwise raises that field's error.
    Extra keys are ignored, and a record's path is formatted only to raise.
    """
    version = _field(doc, "rdg_version", int, "graph")
    if version != RDG_VERSION:
        message = f"unsupported rdg_version {version}; rebuild with `rdgraph build`"
        raise GraphError(message)
    # Evaluated as written: the record kinds decode, and fail, in this order.
    return build_graph(
        decisions=_records(doc, "decisions", _decision),
        rationales=_records(doc, "rationales", _rationale),
        topics=_records(doc, "topics", _topic),
        sources=_records(doc, "sources", _source),
        relation_edges=_records(doc, "edges", _edge),
    )


def _records(doc: dict, name: str, decode) -> list:
    return [decode(obj, n) for n, obj in enumerate(_field(doc, name, list, "graph"))]


def _decision(obj: object, n: int) -> Decision:
    if not isinstance(obj, dict):
        raise GraphError(f"decisions[{n}]: expected object")
    if type(stamp := obj.get("timestamp")) is not str:
        stamp = _expect(obj, "timestamp", str, f"decisions[{n}]")
    try:
        timestamp = parse_timestamp(stamp)
    except ValueError as exc:
        raise GraphError(f"decisions[{n}].timestamp: {exc}") from exc
    if type(id_ := obj.get("id")) is not str:
        id_ = _expect(obj, "id", str, f"decisions[{n}]")
    if type(text := obj.get("text")) is not str:
        text = _expect(obj, "text", str, f"decisions[{n}]")
    if type(artifact_id := obj.get("artifact_id")) is not str:
        artifact_id = _expect(obj, "artifact_id", str, f"decisions[{n}]")
    if type(source_uri := obj.get("source_uri")) is not str:
        source_uri = _expect(obj, "source_uri", str, f"decisions[{n}]")
    if type(score := obj.get("score")) is not float:
        score = float(_expect(obj, "score", (int, float), f"decisions[{n}]"))
    if type(author := obj.get("author")) is not str:
        author = _expect(obj, "author", str, f"decisions[{n}]")
    return Decision(id_, text, artifact_id, source_uri, timestamp, score, author)


def _rationale(obj: object, n: int) -> RationaleSpan:
    if not isinstance(obj, dict):
        raise GraphError(f"rationales[{n}]: expected object")
    if type(id_ := obj.get("id")) is not str:
        id_ = _expect(obj, "id", str, f"rationales[{n}]")
    if type(decision_id := obj.get("decision_id")) is not str:
        decision_id = _expect(obj, "decision_id", str, f"rationales[{n}]")
    if type(artifact_id := obj.get("artifact_id")) is not str:
        artifact_id = _expect(obj, "artifact_id", str, f"rationales[{n}]")
    if type(role := obj.get("role")) is not str:
        role = _expect(obj, "role", str, f"rationales[{n}]")
    if type(marker := obj.get("marker")) is not str:
        marker = _expect(obj, "marker", str, f"rationales[{n}]")
    if type(text := obj.get("text")) is not str:
        text = _expect(obj, "text", str, f"rationales[{n}]")
    if type(start := obj.get("start")) is not int:
        start = int(_expect(obj, "start", int, f"rationales[{n}]"))
    if type(end := obj.get("end")) is not int:
        end = int(_expect(obj, "end", int, f"rationales[{n}]"))
    if type(same := obj.get("same_sentence")) is not bool:
        same = _expect(obj, "same_sentence", bool, f"rationales[{n}]")
    return RationaleSpan(
        id_, decision_id, artifact_id, role, marker, text, start, end, same
    )


def _topic(obj: object, n: int) -> Topic:
    if not isinstance(obj, dict):
        raise GraphError(f"topics[{n}]: expected object")
    if type(members := obj.get("members")) is not list:
        members = _expect(obj, "members", list, f"topics[{n}]")
    if not all(isinstance(m, str) for m in members):
        raise GraphError(f"topics[{n}].members: expected strings")
    if type(id_ := obj.get("id")) is not str:
        id_ = _expect(obj, "id", str, f"topics[{n}]")
    if type(title := obj.get("title")) is not str:
        title = _expect(obj, "title", str, f"topics[{n}]")
    return Topic(id_, title, tuple(members))


def _source(obj: object, n: int) -> SourceRef:
    if not isinstance(obj, dict):
        raise GraphError(f"sources[{n}]: expected object")
    if type(id_ := obj.get("id")) is not str:
        id_ = _expect(obj, "id", str, f"sources[{n}]")
    if type(uri := obj.get("uri")) is not str:
        uri = _expect(obj, "uri", str, f"sources[{n}]")
    if type(kind := obj.get("artifact_kind")) is not str:
        kind = _expect(obj, "artifact_kind", str, f"sources[{n}]")
    try:
        return SourceRef(id_, uri, kind)
    except ValueError as exc:
        raise GraphError(f"sources[{n}]: {exc}") from exc


def _edge(obj: object, n: int) -> RelationEdge:
    if not isinstance(obj, dict):
        raise GraphError(f"edges[{n}]: expected object")
    if type(kind := obj.get("kind")) is not str:
        kind = _expect(obj, "kind", str, f"edges[{n}]")
    if type(from_id := obj.get("from")) is not str:
        from_id = _expect(obj, "from", str, f"edges[{n}]")
    if type(to_id := obj.get("to")) is not str:
        to_id = _expect(obj, "to", str, f"edges[{n}]")
    if type(score := obj.get("score")) is not float:
        score = float(_expect(obj, "score", (int, float), f"edges[{n}]"))
    if kind == SIMILAR:
        if 0.0 < score < math.inf:  # what similar_edge builds, without its checks
            return tuple.__new__(RelationEdge, (SIMILAR, from_id, to_id, score, ()))
        try:
            return similar_edge(from_id, to_id, score)
        except ValueError as exc:
            raise GraphError(f"edges[{n}].score: {exc}") from exc
    if type(records := obj.get("evidence")) is not list:
        records = _expect(obj, "evidence", list, f"edges[{n}]")
    evidence = []
    for m, ev in enumerate(records):
        if not isinstance(ev, dict):
            raise GraphError(f"edges[{n}].evidence[{m}]: expected object")
        if type(feature := ev.get("feature")) is not str:
            feature = _expect(ev, "feature", str, f"edges[{n}].evidence[{m}]")
        if type(detail := ev.get("detail")) is not str:
            detail = _expect(ev, "detail", str, f"edges[{n}].evidence[{m}]")
        if type(weight := ev.get("weight")) is not float:
            weight = float(
                _expect(ev, "weight", (int, float), f"edges[{n}].evidence[{m}]")
            )
        try:
            evidence.append(Evidence(feature, detail, weight))
        except ValueError as exc:
            raise GraphError(f"edges[{n}].evidence[{m}]: {exc}") from exc
    return RelationEdge(kind, from_id, to_id, score, tuple(evidence))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(graph: RdGraph) -> str:
    """Render the graph in plain DOT, deterministic and layout-free."""

    def node(node_id: str, label: str, shape: str) -> str:
        label = _dot_escape(label)
        return f'  "{_dot_escape(node_id)}" [label="{label}" shape={shape}];'

    def arc(from_id: str, to_id: str, kind: str) -> str:
        attrs = f'label="{kind}"' + (" dir=none" if kind == SIMILAR else "")
        return f'  "{_dot_escape(from_id)}" -> "{_dot_escape(to_id)}" [{attrs}];'

    decisions, spans, topics = graph.decisions, graph.rationales, graph.topics
    lines = [
        "digraph rdg {",
        *(node(i, decisions[i].text, "box") for i in sorted(decisions)),
        *(node(i, spans[i].text, "ellipse") for i in sorted(spans)),
        *(node(i, topics[i].title or topics[i].id, "folder") for i in sorted(topics)),
        *(node(i, graph.sources[i].uri, "note") for i in sorted(graph.sources)),
        *(
            arc(decision_id, span_id, RATIONALE_KIND)
            for decision_id, span_ids in graph.rationale_edges.items()
            for span_id in span_ids
        ),
        *(arc(i, topic_id, TOPIC_KIND) for i, topic_id in graph.topic_edges.items()),
        *(arc(i, decisions[i].artifact_id, "source") for i in sorted(decisions)),
        *(
            arc(e.from_id, e.to_id, e.kind)
            for e in sorted(graph.relation_edges, key=_edge_sort_key)
        ),
        "}",
    ]
    return "\n".join(lines) + "\n"
