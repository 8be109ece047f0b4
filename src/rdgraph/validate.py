"""Graph validation: rationale consistency, new-decision conflicts, structure.

All checks are pure read-only queries; findings are reported, never
auto-repaired.  Findings sort by severity (errors first), then subject ids,
and serialize to JSON lines for CI consumption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import Config, default_config
from .graph import RdGraph, graph_violations, rationales_of
from .relations import (
    CONTRADICTS,
    SIMILAR,
    RelationEdge,
    contradiction_score,
    decision_document,
)
from .textsim import TfIdfProvider

INCONSISTENT_REASONING = "inconsistent-reasoning"
DUPLICATE_RATIONALE = "duplicate-rationale"
CONSISTENT_PAIR = "consistent-pair"
CONFLICT_WARNING = "conflict-warning"
STRUCTURAL_VIOLATION = "structural-violation"
LOW_SIMILARITY = "low-similarity"
MISSING_RATIONALE = "missing-rationale"

_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}


@dataclass(frozen=True)
class ValidationFinding:
    """One report entry with an explanation path of graph edges."""

    kind: str
    severity: str
    subject_ids: tuple[str, ...]
    path: tuple[RelationEdge, ...]
    message: str

    def __post_init__(self) -> None:
        if not self.message:
            raise ValueError("finding message must be non-empty")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")


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
    a graph without any rationale text has no findings.
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
    findings: list[ValidationFinding] = []
    for edge in graph.relation_edges:
        if edge.kind != SIMILAR:
            continue
        subjects = tuple(sorted((edge.from_id, edge.to_id)))
        text_a = rationales[edge.from_id]
        text_b = rationales[edge.to_id]
        if not text_a or not text_b:
            missing = [
                d for d, t in ((edge.from_id, text_a), (edge.to_id, text_b)) if not t
            ]
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
        contra, _ = contradiction_score(text_a, text_b, *lexicons)
        contra_rev, _ = contradiction_score(text_b, text_a, *lexicons)
        if max(contra, contra_rev) > 0.0:
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
    the candidate.  One hop of ``config.k`` is spent linking the candidate to
    a decision at or above ``thresholds.similar``; the remaining k-1 hops
    walk similar neighbors and contradicts edges.
    """
    cfg = config if config is not None else default_config()
    documents = graph_documents(graph)
    provider = TfIdfProvider.fit([*documents.values(), candidate_text], cfg.stopwords)
    findings: list[ValidationFinding] = []
    # Each decision's similar neighbours and contradicts edges, in edge order
    # (a graph has no self edges, so each edge is listed once per end).
    similar_by_id: dict[str, list[tuple[str, RelationEdge]]] = {}
    contradicts_by_id: dict[str, list[RelationEdge]] = {}
    for edge in graph.relation_edges:
        if edge.kind == SIMILAR:
            similar_by_id.setdefault(edge.from_id, []).append((edge.to_id, edge))
            similar_by_id.setdefault(edge.to_id, []).append((edge.from_id, edge))
        elif edge.kind == CONTRADICTS:
            contradicts_by_id.setdefault(edge.from_id, []).append(edge)
            contradicts_by_id.setdefault(edge.to_id, []).append(edge)
    for decision_id in sorted(graph.decisions):
        decision = graph.decisions[decision_id]
        score = provider.score(candidate_text, documents[decision_id])
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
            continue
        if score < cfg.thresholds.similar:
            continue
        targets: list[tuple[str, tuple[RelationEdge, ...]]] = [(decision_id, ())]
        targets.extend(
            (other, (edge,)) for other, edge in similar_by_id.get(decision_id, ())
        )
        for target_id, prefix in targets:
            for edge in contradicts_by_id.get(target_id, ()):
                path = prefix + (edge,)
                if 1 + len(path) > cfg.k:
                    continue
                target = graph.decisions[target_id]
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


def validate_structure(graph: RdGraph) -> list[ValidationFinding]:
    """Report every broken graph invariant as a structural violation."""
    return _sorted_findings(
        [
            ValidationFinding(
                kind=STRUCTURAL_VIOLATION,
                severity="error",
                subject_ids=subjects,
                path=(),
                message=message,
            )
            for subjects, message in graph_violations(graph)
        ]
    )


def finding_to_dict(finding: ValidationFinding) -> dict:
    return {
        "kind": finding.kind,
        "severity": finding.severity,
        "subjects": list(finding.subject_ids),
        "path": [
            {"kind": e.kind, "from": e.from_id, "to": e.to_id, "score": e.score}
            for e in finding.path
        ],
        "message": finding.message,
    }


def findings_to_jsonl(findings: list[ValidationFinding]) -> str:
    lines = [
        json.dumps(finding_to_dict(f), sort_keys=True, ensure_ascii=False)
        for f in findings
    ]
    return "\n".join(lines) + ("\n" if lines else "")


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
