"""Graph validation: rationale consistency and new-decision conflicts.

All checks are pure read-only queries; findings are reported, never
auto-repaired.  Findings sort by severity (errors first), then subject ids,
and serialize to JSON lines for CI consumption.
"""

from __future__ import annotations

from json.encoder import encode_basestring as _q
from typing import Iterable, NamedTuple

from .config import Config, default_config
from .graph import RdGraph, neighbors, rationales_of
from .relations import (
    CONTRADICTS,
    SIMILAR,
    RelationEdge,
    _contradiction,
    _sentence_features,
    decision_document,
)
from .textsim import TfIdfProvider

INCONSISTENT_REASONING = "inconsistent-reasoning"
DUPLICATE_RATIONALE = "duplicate-rationale"
CONSISTENT_PAIR = "consistent-pair"
CONFLICT_WARNING = "conflict-warning"
LOW_SIMILARITY = "low-similarity"
MISSING_RATIONALE = "missing-rationale"

_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}


class _FindingFields(NamedTuple):
    kind: str
    severity: str
    subject_ids: tuple[str, ...]
    path: tuple[RelationEdge, ...]
    message: str


class ValidationFinding(_FindingFields):
    """One report entry with an explanation path of graph edges: an immutable
    named tuple whose message and severity are checked however it is built."""

    __slots__ = ()

    def __new__(cls, kind, severity, subject_ids, path, message) -> ValidationFinding:
        if not message:
            raise ValueError("finding message must be non-empty")
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        return tuple.__new__(cls, (kind, severity, subject_ids, path, message))

    @classmethod
    def _make(cls, iterable: Iterable) -> ValidationFinding:
        return cls(*iterable)


def _sorted_findings(findings: list[ValidationFinding]) -> list[ValidationFinding]:
    return sorted(
        findings,
        key=lambda f: (_SEVERITY_RANK[f.severity], f.subject_ids, f.kind, f.message),
    )


def check_rationale_consistency(
    graph: RdGraph, config: Config | None = None
) -> list[ValidationFinding]:
    """Compare the rationales of every similar decision pair.

    Contradicting rationales signal inconsistent reasoning; near-identical
    ones signal the same rationale reused for different decisions.  Scores
    come from a model fitted over the graph's non-empty joined rationales;
    a graph without any rationale text has no findings.  Each distinct
    rationale text is read once into the feature record of the
    contradiction rule, so a similar pair costs a few set operations.
    """
    cfg = config if config is not None else default_config()
    rationales = {
        decision_id: " ".join(span.text for span in rationales_of(graph, decision_id))
        for decision_id in graph.decisions
    }
    texts = [text for text in rationales.values() if text]
    if not texts:
        return []
    provider = TfIdfProvider.fit(texts, cfg.stopwords)
    lexicons = (cfg.contradiction_keywords, cfg.negation_cues, cfg.stopwords)
    # One record per distinct text, whatever the module cache holds.
    features = {
        text: _sentence_features(text, *lexicons) for text in dict.fromkeys(texts)
    }
    findings: list[ValidationFinding] = []
    for edge in graph.relation_edges:
        if edge.kind != SIMILAR:
            continue
        from_id, to_id = edge.from_id, edge.to_id
        subjects = (from_id, to_id) if from_id <= to_id else (to_id, from_id)
        text_a = rationales[from_id]
        text_b = rationales[to_id]
        if not text_a or not text_b:
            missing = [d for d, t in ((from_id, text_a), (to_id, text_b)) if not t]
            findings.append(
                ValidationFinding(
                    kind=MISSING_RATIONALE,
                    severity="info",
                    subject_ids=subjects,
                    path=(edge,),
                    message=(
                        "similar pair skipped, no rationale recorded for "
                        + ", ".join(missing)
                    ),
                )
            )
            continue
        a, b = features[text_a], features[text_b]
        if _contradiction(a, b)[0] > 0.0 or _contradiction(b, a)[0] > 0.0:
            findings.append(
                ValidationFinding(
                    kind=INCONSISTENT_REASONING,
                    severity="warning",
                    subject_ids=subjects,
                    path=(edge,),
                    message=(
                        f"rationales of similar decisions {subjects[0]} and "
                        f"{subjects[1]} contradict each other"
                    ),
                )
            )
            continue
        score = provider.score(text_a, text_b)
        if score >= cfg.thresholds.duplicate:
            kind, message = DUPLICATE_RATIONALE, (
                f"decisions {subjects[0]} and {subjects[1]} share the same "
                f"rationale (similarity {score:.2f})"
            )
        elif score >= cfg.thresholds.consistency:
            kind, message = CONSISTENT_PAIR, (
                f"rationales of {subjects[0]} and {subjects[1]} are consistent "
                f"(similarity {score:.2f})"
            )
        else:
            kind, message = LOW_SIMILARITY, (
                f"rationales of {subjects[0]} and {subjects[1]} share little "
                f"vocabulary (similarity {score:.2f})"
            )
        findings.append(
            ValidationFinding(
                kind=kind,
                severity="info",
                subject_ids=subjects,
                path=(edge,),
                message=message,
            )
        )
    return _sorted_findings(findings)


def graph_documents(graph: RdGraph) -> dict[str, str]:
    """The per-decision comparison documents reconstructible from the graph."""
    return {
        decision_id: decision_document(
            graph.decisions[decision_id], rationales_of(graph, decision_id)
        )
        for decision_id in sorted(graph.decisions)
    }


def check_new_decision(
    graph: RdGraph, candidate_text: str, config: Config | None = None
) -> list[ValidationFinding]:
    """Warn when a proposed decision resembles one entangled in contradictions.

    Scores come from a model fitted over the graph decision documents plus
    the candidate.  Linking the candidate to a decision at or above
    ``thresholds.similar`` spends one hop of ``config.k``.  From that decision
    the walk takes at most one similar edge and then one contradicts edge:
    k >= 2 reaches the decision's own contradicts edges, k >= 3 adds those of
    its similar neighbors, and a larger k reaches nothing more.  A candidate
    scoring at least 0.999 also gets a duplicate finding and still walks.
    Only the decisions that ``TfIdfProvider.matches`` cannot rule out below
    both thresholds are vectorized and scored; the others could neither link
    nor be duplicates.
    """
    cfg = config if config is not None else default_config()
    documents = graph_documents(graph)
    ids, texts = list(documents), list(documents.values())
    provider = TfIdfProvider.fit([*texts, candidate_text], cfg.stopwords)
    findings: list[ValidationFinding] = []
    reach = min(cfg.thresholds.similar, 0.999)
    for index, score in provider.matches(candidate_text, texts, reach):
        decision_id = ids[index]
        decision = graph.decisions[decision_id]
        if score >= 0.999:
            findings.append(
                ValidationFinding(
                    kind=DUPLICATE_RATIONALE,
                    severity="warning",
                    subject_ids=(decision_id,),
                    path=(),
                    message=(
                        f"candidate duplicates decision {decision_id} "
                        f"({decision.text!r}, {decision.timestamp.date()})"
                    ),
                )
            )
        if score < cfg.thresholds.similar:
            continue
        # The link, the similar prefix and the contradicts edge must fit in k.
        targets = [(decision_id, ())] if cfg.k >= 2 else []
        if cfg.k >= 3:
            targets.extend(
                (peer.id, (edge,))
                for edge, peer in neighbors(graph, decision_id, {SIMILAR})
            )
        for target_id, prefix in targets:
            target = graph.decisions[target_id]
            for edge, _ in neighbors(graph, target_id, {CONTRADICTS}):
                path = prefix + (edge,)
                findings.append(
                    ValidationFinding(
                        kind=CONFLICT_WARNING,
                        severity="warning",
                        subject_ids=tuple(
                            sorted({decision_id, edge.from_id, edge.to_id})
                        ),
                        path=path,
                        message=(
                            f"candidate resembles {decision_id} "
                            f"({decision.text!r}, similarity {score:.2f}); "
                            f"decision {edge.from_id} "
                            f"({graph.decisions[edge.from_id].text!r}, "
                            f"{graph.decisions[edge.from_id].timestamp.date()}) "
                            f"contradicts {edge.to_id} of "
                            f"{graph.decisions[edge.to_id].timestamp.date()}"
                            + (
                                f" via similar decision {target_id} "
                                f"({target.text!r})"
                                if prefix
                                else ""
                            )
                        ),
                    )
                )
    return _sorted_findings(findings)


def _path_edge(e: RelationEdge) -> str:
    return (
        f'{{"from": {_q(e.from_id)}, "kind": {_q(e.kind)}, '
        f'"score": {e.score!r}, "to": {_q(e.to_id)}}}'
    )


def findings_to_jsonl(findings: list[ValidationFinding]) -> str:
    """One JSON object per finding and line, keys sorted.

    The text is what ``json.dumps(..., sort_keys=True, ensure_ascii=False)``
    gives for each finding, written directly: strings through json's own
    encoder and floats by ``repr``.
    """
    return "".join(
        f'{{"kind": {_q(f.kind)}, "message": {_q(f.message)}, '
        f'"path": [{", ".join(map(_path_edge, f.path))}], '
        f'"severity": {_q(f.severity)}, '
        f'"subjects": [{", ".join(map(_q, f.subject_ids))}]}}\n'
        for f in findings
    )


def render_findings(findings: list[ValidationFinding]) -> str:
    if not findings:
        return "no findings\n"
    lines = []
    for finding in findings:
        subjects = ", ".join(finding.subject_ids)
        lines.append(
            f"{finding.severity.upper():7s} {finding.kind} [{subjects}] {finding.message}"
        )
    return "\n".join(lines) + "\n"
