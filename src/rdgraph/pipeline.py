"""End-to-end assembly: artifacts in, fully checked decision graph out.

Each stage reads its lexicons and thresholds from the one ``Config``.
"""

from __future__ import annotations

from typing import Iterable

from .config import Config, default_config
from .corpus import Artifact, normalized_text, segment_sentences
from .decisions import Decision, extract_decisions
from .graph import RdGraph, SourceRef, build_graph
from .rationale import RationaleSpan, attach_rationale, rationale_window
from .relations import (
    RelationEdge,
    candidate_pairs,
    cluster_topics,
    decision_document,
    detect_similar,
    pair_edges,
    title_topic,
)
from .textsim import TfIdfProvider


def build_pipeline(
    artifacts: Iterable[Artifact], config: Config | None = None
) -> RdGraph:
    """Run extraction, relationship detection, and graph assembly.

    Deterministic for fixed inputs and config: topic clustering compares the
    owning artifacts' full texts, similar edges compare each decision's
    sentence plus rationale, and ``pair_edges`` gives the history and
    contradicts edges of the strictly time-ordered pairs of a topic that
    ``candidate_pairs`` finds through its indices (id prefixes, summaries,
    contradiction tokens and, at low history thresholds, authors): every
    pair that can carry such an edge.
    With no decisions, for example with no artifacts, the graph is empty.
    """
    cfg = config if config is not None else default_config()
    artifact_list = list(artifacts)
    ids = [a.id for a in artifact_list]
    if len(set(ids)) != len(ids):
        raise ValueError("artifact ids must be unique")

    artifacts_by_id = {a.id: a for a in artifact_list}

    decisions: list[Decision] = []
    spans_by_decision: dict[str, list[RationaleSpan]] = {}
    for artifact in artifact_list:
        sentences = segment_sentences(artifact, cfg.abbreviations)
        extracted = extract_decisions(artifact, sentences, cfg)
        for decision in extracted:
            near = rationale_window(sentences, decision.id, cfg.window)
            spans_by_decision[decision.id] = attach_rationale(decision, near, cfg.markers)
        decisions.extend(extracted)

    if not decisions:
        return build_graph([], [], [], [], [])

    provider = TfIdfProvider.fit(
        [normalized_text(a) for a in artifact_list], cfg.stopwords
    )
    contexts = {
        d.id: normalized_text(artifacts_by_id[d.artifact_id]) for d in decisions
    }
    documents = {
        d.id: decision_document(d, spans_by_decision[d.id]) for d in decisions
    }

    topics = cluster_topics(decisions, provider, cfg.thresholds.relatedness, contexts)
    sentence_texts = {d.id: d.text for d in decisions}
    topics = [
        topic._replace(title=title_topic(topic, provider.model, sentence_texts))
        for topic in topics
    ]

    decisions_by_id = {d.id: d for d in decisions}
    edges: list[RelationEdge] = []
    for topic in topics:
        members = [decisions_by_id[i] for i in topic.member_decision_ids]
        edges.extend(
            detect_similar(members, provider, cfg.thresholds.similar, documents)
        )
        for later, earlier in candidate_pairs(members, artifacts_by_id, cfg):
            edges.extend(pair_edges(later, earlier, artifacts_by_id, cfg))

    decided = {d.artifact_id for d in decisions}
    sources = [
        SourceRef(id=a.id, uri=a.uri, artifact_kind=a.kind)
        for a in artifact_list
        if a.id in decided
    ]
    all_spans = [span for d in decisions for span in spans_by_decision[d.id]]
    return build_graph(decisions, all_spans, topics, edges, sources)
