"""End-to-end assembly: artifacts in, fully checked decision graph out."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from .config import Config, default_config
from .corpus import Artifact, normalized_text, segment_sentences
from .decisions import Decision, DecisionLexicon, extract_decisions
from .graph import RdGraph, SourceRef, build_graph
from .rationale import RationaleSpan, attach_rationale
from .relations import (
    HISTORY,
    REVERT_METADATA,
    RelationEdge,
    candidate_pairs,
    cluster_topics,
    decision_document,
    detect_contradicts,
    detect_history,
    detect_similar,
    title_topic,
)
from .textsim import TfIdfProvider


def lexicon_from_config(config: Config) -> DecisionLexicon:
    return DecisionLexicon(
        action_verbs=config.action_verbs,
        cue_phrases=config.cue_phrases,
        negative_cues=config.negative_cues,
    )


def build_pipeline(
    artifacts: Iterable[Artifact], config: Config | None = None
) -> RdGraph:
    """Run extraction, relationship detection, and graph assembly.

    Deterministic for fixed inputs and config: topic clustering compares the
    owning artifacts' full texts, similar edges compare each decision's
    sentence plus rationale, and history/contradicts run over the strictly
    time-ordered pairs of a topic that ``candidate_pairs`` finds through its
    indices (id prefixes, summaries, contradiction tokens and, at low
    history thresholds, authors): every pair that can carry such an edge.
    """
    cfg = config if config is not None else default_config()
    artifact_list = list(artifacts)
    ids = [a.id for a in artifact_list]
    if len(set(ids)) != len(ids):
        raise ValueError("artifact ids must be unique")
    if not artifact_list:
        return build_graph([], [], [], [], [])

    lexicon = lexicon_from_config(cfg)
    artifacts_by_id = {a.id: a for a in artifact_list}

    decisions: list[Decision] = []
    spans_by_decision: dict[str, list[RationaleSpan]] = {}
    for artifact in artifact_list:
        sentences = segment_sentences(artifact, cfg.abbreviations)
        extracted = extract_decisions(
            artifact, sentences, lexicon, cfg.thresholds.decision
        )
        for decision in extracted:
            spans_by_decision[decision.id] = attach_rationale(
                decision, sentences, cfg.window, cfg.markers
            )
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
        replace(topic, title=title_topic(topic, provider.model, sentence_texts))
        for topic in topics
    ]

    decisions_by_id = {d.id: d for d in decisions}
    edges: list[RelationEdge] = []
    for topic in topics:
        members = [decisions_by_id[i] for i in topic.member_decision_ids]
        edges.extend(
            detect_similar(members, provider, cfg.thresholds.similar, documents)
        )
        for later, earlier in candidate_pairs(
            members,
            artifacts_by_id,
            cfg.contradiction_keywords,
            cfg.negation_cues,
            cfg.stopwords,
            cfg.thresholds.history,
        ):
            contra = detect_contradicts(
                later,
                earlier,
                artifacts_by_id,
                cfg.contradiction_keywords,
                cfg.negation_cues,
                cfg.stopwords,
            )
            history = detect_history(
                later, earlier, artifacts_by_id, cfg.thresholds.history
            )
            if contra is not None:
                edges.append(contra)
                # A revert is both a contradiction and an evolution step.
                revert = any(
                    e.feature == REVERT_METADATA for e in contra.evidence
                )
                if revert and history is None:
                    history = RelationEdge(
                        kind=HISTORY,
                        from_id=later.id,
                        to_id=earlier.id,
                        score=contra.score,
                        evidence=contra.evidence,
                    )
            if history is not None:
                edges.append(history)

    decided = {d.artifact_id for d in decisions}
    sources = [
        SourceRef(id=a.id, uri=a.uri, artifact_kind=a.kind)
        for a in artifact_list
        if a.id in decided
    ]
    all_spans = [span for d in decisions for span in spans_by_decision[d.id]]
    return build_graph(decisions, all_spans, topics, edges, sources)
