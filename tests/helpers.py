"""Test-side oracles and generators, written independently of the package.

The TF-IDF oracle recomputes everything from scratch (its own token split,
df scan, and cosine loop) so it can cross-check the library implementation
without sharing code paths.
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timedelta, timezone

from hypothesis import strategies as st

from rdgraph.corpus import parse_timestamp
from rdgraph.decisions import Decision
from rdgraph.graph import GraphError, RdGraph, SourceRef, build_graph
from rdgraph.rationale import CAUSE, MANNER, PURPOSE, RationaleSpan
from rdgraph.relations import (
    CONTRADICTS,
    HISTORY,
    SIMILAR,
    Evidence,
    RelationEdge,
    Topic,
)


def oracle_similarity(
    docs: list[str], index_a: int, index_b: int, stopwords: frozenset[str]
) -> float:
    """Brute-force TF-IDF cosine between two corpus documents."""

    def words(text: str) -> list[str]:
        out = []
        for raw in re.split(r"[^0-9A-Za-z_]+", text.lower()):
            if len(raw) > 1 and raw not in stopwords:
                out.append(raw)
        return out

    tokenized = [words(d) for d in docs]
    n = len(docs)

    def idf(token: str) -> float:
        df = sum(1 for doc in tokenized if token in doc)
        return math.log((n + 1) / (df + 1)) + 1.0

    def weights(doc: list[str]) -> dict[str, float]:
        tf: dict[str, int] = {}
        for token in doc:
            tf[token] = tf.get(token, 0) + 1
        return {token: count * idf(token) for token, count in tf.items()}

    wa = weights(tokenized[index_a])
    wb = weights(tokenized[index_b])
    if not wa or not wb:
        return 0.0
    dot = sum(wa[t] * wb[t] for t in sorted(set(wa) & set(wb)))
    norm_a = math.sqrt(sum(v * v for v in wa.values()))
    norm_b = math.sqrt(sum(v * v for v in wb.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


_TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)
_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


@st.composite
def valid_graph_parts(draw):
    """Decisions, rationales, topics, edges, sources for a valid graph."""
    n = draw(st.integers(min_value=1, max_value=6))
    decisions = []
    for i in range(n):
        decisions.append(
            Decision(
                id=f"a{i}#0",
                text=draw(_TEXTS),
                artifact_id=f"a{i}",
                source_uri=f"git:a{i}",
                timestamp=_EPOCH + timedelta(days=i, seconds=draw(st.integers(0, 3600))),
                score=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
                author=draw(st.sampled_from(["ada", "grace", "linus"])),
                files_touched=tuple(draw(st.lists(st.sampled_from(["mm/a.c", "mm/b.c"]), max_size=2))),
            )
        )

    rationales = []
    for i, decision in enumerate(decisions):
        for r in range(draw(st.integers(min_value=0, max_value=2))):
            rationales.append(
                RationaleSpan(
                    id=f"{decision.id}/r{r}",
                    decision_id=decision.id,
                    artifact_id=decision.artifact_id,
                    role=draw(st.sampled_from([PURPOSE, CAUSE, MANNER])),
                    marker=draw(st.sampled_from(["so that", "because", "this way"])),
                    text=draw(_TEXTS.filter(bool)),
                    start=draw(st.integers(min_value=0, max_value=50)),
                    end=draw(st.integers(min_value=51, max_value=200)),
                    same_sentence=draw(st.booleans()),
                )
            )

    topic_count = draw(st.integers(min_value=1, max_value=n))
    assignment = [draw(st.integers(min_value=0, max_value=topic_count - 1)) for _ in decisions]
    members: dict[int, list[str]] = {}
    for decision, slot in zip(decisions, assignment):
        members.setdefault(slot, []).append(decision.id)
    topics = [
        Topic(id=f"t{k}", title=draw(_TEXTS), member_decision_ids=tuple(ids))
        for k, (_, ids) in enumerate(sorted(members.items()), start=1)
    ]

    def evidence() -> tuple[Evidence, ...]:
        weight = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        return (Evidence(feature="cosine-score", detail="gen", weight=weight),)

    edges = []
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            earlier, later = decisions[i], decisions[j]
            for kind in draw(
                st.lists(st.sampled_from([SIMILAR, HISTORY, CONTRADICTS]), unique=True, max_size=3)
            ):
                if kind == SIMILAR:
                    from_id, to_id = sorted((earlier.id, later.id))
                else:
                    from_id, to_id = later.id, earlier.id
                if (kind, from_id, to_id) in seen:
                    continue
                seen.add((kind, from_id, to_id))
                edges.append(
                    RelationEdge(
                        kind=kind,
                        from_id=from_id,
                        to_id=to_id,
                        score=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
                        evidence=evidence(),
                    )
                )

    sources = [
        SourceRef(id=d.artifact_id, uri=d.source_uri, artifact_kind="commit")
        for d in decisions
    ]
    return decisions, rationales, topics, edges, sources


def _reference_expect(obj, key, types, path):
    if key not in obj:
        raise GraphError(f"{path}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise GraphError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def reference_graph_from_doc(doc: dict) -> RdGraph:
    """The graph loader as written before records were shape-tested: every
    field of every record goes through ``_expect``."""
    _expect = _reference_expect
    version = _expect(doc, "rdg_version", int, "graph")
    if version != 1:
        raise GraphError(f"unsupported rdg_version {version}")

    decisions = []
    for n, obj in enumerate(_expect(doc, "decisions", list, "graph")):
        path = f"decisions[{n}]"
        if not isinstance(obj, dict):
            raise GraphError(f"{path}: expected object")
        files = _expect(obj, "files_touched", list, path)
        if not all(isinstance(f, str) for f in files):
            raise GraphError(f"{path}.files_touched: expected strings")
        try:
            timestamp = parse_timestamp(_expect(obj, "timestamp", str, path))
        except ValueError as exc:
            raise GraphError(f"{path}.timestamp: {exc}") from exc
        decisions.append(
            Decision(
                id=_expect(obj, "id", str, path),
                text=_expect(obj, "text", str, path),
                artifact_id=_expect(obj, "artifact_id", str, path),
                source_uri=_expect(obj, "source_uri", str, path),
                timestamp=timestamp,
                score=float(_expect(obj, "score", (int, float), path)),
                author=_expect(obj, "author", str, path),
                files_touched=tuple(files),
            )
        )

    rationales = []
    for n, obj in enumerate(_expect(doc, "rationales", list, "graph")):
        path = f"rationales[{n}]"
        if not isinstance(obj, dict):
            raise GraphError(f"{path}: expected object")
        rationales.append(
            RationaleSpan(
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
        )

    topics = []
    for n, obj in enumerate(_expect(doc, "topics", list, "graph")):
        path = f"topics[{n}]"
        if not isinstance(obj, dict):
            raise GraphError(f"{path}: expected object")
        members = _expect(obj, "members", list, path)
        if not all(isinstance(m, str) for m in members):
            raise GraphError(f"{path}.members: expected strings")
        topics.append(
            Topic(
                id=_expect(obj, "id", str, path),
                title=_expect(obj, "title", str, path),
                member_decision_ids=tuple(members),
            )
        )

    sources = []
    for n, obj in enumerate(_expect(doc, "sources", list, "graph")):
        path = f"sources[{n}]"
        if not isinstance(obj, dict):
            raise GraphError(f"{path}: expected object")
        try:
            sources.append(
                SourceRef(
                    id=_expect(obj, "id", str, path),
                    uri=_expect(obj, "uri", str, path),
                    artifact_kind=_expect(obj, "artifact_kind", str, path),
                )
            )
        except ValueError as exc:
            raise GraphError(f"{path}: {exc}") from exc

    edges = []
    for n, obj in enumerate(_expect(doc, "edges", list, "graph")):
        path = f"edges[{n}]"
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
        edges.append(
            RelationEdge(
                kind=_expect(obj, "kind", str, path),
                from_id=_expect(obj, "from", str, path),
                to_id=_expect(obj, "to", str, path),
                score=float(_expect(obj, "score", (int, float), path)),
                evidence=tuple(evidence),
            )
        )

    return build_graph(decisions, rationales, topics, edges, sources)
