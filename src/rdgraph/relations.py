"""Decision-decision relationships: topics, similar, history, contradicts.

Topic membership comes from single-link clustering over whole-artifact text
similarity (relatedness is about shared context, not shared wording of the
one-line decision).  Similar edges and the validation checks instead compare
a decision's own document: its sentence plus its rationale spans.  History
and contradicts are evidence-based; every edge carries the features that
fired, with their weights.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, NamedTuple

from .corpus import Artifact
from .decisions import Decision, strip_subsystem_prefix
from .rationale import RationaleSpan
from .textsim import SimilarityProvider, TfIdfModel, vectorize

SIMILAR = "similar"
HISTORY = "history"
CONTRADICTS = "contradicts"
EDGE_KINDS = (SIMILAR, HISTORY, CONTRADICTS)

REVERT_METADATA = "revert-metadata"
EXPLICIT_REFERENCE = "explicit-reference"
SHARED_FILES = "shared-files"
SAME_AUTHOR = "same-author"
ACKED_BY = "acked-by"
KEYWORD = "keyword"
NEGATION_MISMATCH = "negation-mismatch"
COSINE_SCORE = "cosine-score"

# Evidence weights for history edges; explicit references and revert
# metadata each suffice alone at the default threshold of 0.5.
_HISTORY_WEIGHTS = {
    EXPLICIT_REFERENCE: 0.5,
    REVERT_METADATA: 0.5,
    SHARED_FILES: 0.2,
    ACKED_BY: 0.2,
    SAME_AUTHOR: 0.1,
}

_REVERTS_COMMIT_RE = re.compile(r"This reverts commit ([0-9a-f]{7,40})\b")
_HEX_TOKEN_RE = re.compile(r"\b[0-9a-f]{7,40}\b")
_RAW_WORD_RE = re.compile(r"[a-z0-9_']+")

DEFAULT_CONTRADICTION_KEYWORDS = frozenset({"revert", "remove", "disable"})
DEFAULT_NEGATION_CUES = frozenset({"no", "not", "never", "n't"})

NliScorer = Callable[[str, str], float]


@dataclass(frozen=True)
class Evidence:
    """One feature that contributed to an edge, with a positive weight."""

    feature: str
    detail: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("evidence weight must be positive")


@dataclass(frozen=True)
class RelationEdge:
    """A typed decision-decision edge.

    Similar edges are undirected and stored with ``from_id < to_id``;
    history and contradicts edges run from the later decision to the
    earlier one.
    """

    kind: str
    from_id: str
    to_id: str
    score: float
    evidence: tuple[Evidence, ...] = ()


@dataclass(frozen=True)
class Topic:
    """A cluster of related decisions with a generated title."""

    id: str
    title: str
    member_decision_ids: tuple[str, ...]


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, key: str) -> str:
        self.parent.setdefault(key, key)
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            # Deterministic roots regardless of union order.
            low, high = sorted((root_a, root_b))
            self.parent[high] = low


def decision_document(decision: Decision, spans: list[RationaleSpan]) -> str:
    """The text a decision is compared by: its sentence plus its rationale."""
    parts = [decision.text] + [span.text for span in spans]
    return " ".join(parts)


def jaccard(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def cluster_topics(
    decisions: list[Decision],
    provider: SimilarityProvider,
    relatedness_threshold: float,
    contexts: Mapping[str, str],
) -> list[Topic]:
    """Single-link clustering over pairwise context similarity.

    Unlinked decisions become singleton topics.  Topic ids are ordered by
    the earliest member timestamp, so they are stable under input
    permutation.
    """
    ordered = sorted(decisions, key=lambda d: d.id)
    uf = UnionFind()
    for decision in ordered:
        uf.find(decision.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if provider.score(contexts[a.id], contexts[b.id]) >= relatedness_threshold:
                uf.union(a.id, b.id)
    groups: dict[str, list[Decision]] = {}
    for decision in ordered:
        groups.setdefault(uf.find(decision.id), []).append(decision)
    components = []
    for members in groups.values():
        members.sort(key=lambda d: (d.timestamp, d.id))
        components.append(members)
    components.sort(key=lambda ms: (ms[0].timestamp, ms[0].id))
    return [
        Topic(
            id=f"t{n}",
            title="",
            member_decision_ids=tuple(d.id for d in members),
        )
        for n, members in enumerate(components, start=1)
    ]


def title_topic(
    topic: Topic, model: TfIdfModel, texts: Mapping[str, str]
) -> str:
    """Top three summed tf-idf tokens over member texts, ties alphabetical."""
    index_to_token = {i: t for t, i in model.vocabulary.items()}
    totals: dict[str, float] = {}
    for member in topic.member_decision_ids:
        for index, weight in vectorize(model, texts[member]).items():
            token = index_to_token[index]
            totals[token] = totals.get(token, 0.0) + weight
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return " ".join(token for token, _ in ranked[:3])


def detect_similar(
    decisions: list[Decision],
    provider: SimilarityProvider,
    similar_threshold: float,
    documents: Mapping[str, str],
) -> list[RelationEdge]:
    """Similar edges between decisions of one topic, canonical order."""
    ordered = sorted(decisions, key=lambda d: d.id)
    edges = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            score = provider.score(documents[a.id], documents[b.id])
            if score >= similar_threshold and score > 0.0:
                edges.append(
                    RelationEdge(
                        kind=SIMILAR,
                        from_id=a.id,
                        to_id=b.id,
                        score=score,
                        evidence=(
                            Evidence(COSINE_SCORE, f"cosine {score:.6f}", score),
                        ),
                    )
                )
    return edges


@functools.lru_cache(maxsize=4096)
def _hex_tokens(haystack: str) -> tuple[str, ...]:
    return tuple(_HEX_TOKEN_RE.findall(haystack))


def _mentions_reference(later: Artifact, earlier: Artifact) -> bool:
    haystacks = [later.body] + [v for vs in later.trailers.values() for v in vs]
    phrase = earlier.summary
    bare = strip_subsystem_prefix(phrase)
    for haystack in haystacks:
        if phrase and phrase in haystack:
            return True
        if bare and bare != phrase and bare in haystack:
            return True
        for token in _hex_tokens(haystack):
            if len(token) >= 7 and earlier.id.startswith(token):
                return True
    return False


def _revert_metadata(later: Artifact, earlier: Artifact) -> bool:
    for match in _REVERTS_COMMIT_RE.finditer(later.body):
        if earlier.id.startswith(match.group(1)):
            return True
    if later.summary.startswith("Revert"):
        phrase = earlier.summary
        if phrase and (phrase in later.summary or phrase in later.body):
            return True
    return False


def _acked_by(later: Artifact, earlier: Artifact) -> bool:
    values = later.trailers.get("Acked-by", ())
    return any(earlier.author and earlier.author in value for value in values)


def detect_history(
    later: Decision,
    earlier: Decision,
    artifacts: Mapping[str, Artifact],
    history_threshold: float,
) -> RelationEdge | None:
    """Evidence-weighted history edge from the later decision to the earlier.

    The caller guarantees both decisions share a topic; the strict timestamp
    order is a hard precondition.
    """
    if later.timestamp <= earlier.timestamp:
        raise ValueError("history requires later.timestamp > earlier.timestamp")
    later_art = artifacts[later.artifact_id]
    earlier_art = artifacts[earlier.artifact_id]
    evidence = []
    if _mentions_reference(later_art, earlier_art):
        evidence.append(
            Evidence(
                EXPLICIT_REFERENCE,
                f"{later.artifact_id} refers to {earlier.artifact_id}",
                _HISTORY_WEIGHTS[EXPLICIT_REFERENCE],
            )
        )
    if _revert_metadata(later_art, earlier_art):
        evidence.append(
            Evidence(
                REVERT_METADATA,
                f"{later.artifact_id} reverts {earlier.artifact_id}",
                _HISTORY_WEIGHTS[REVERT_METADATA],
            )
        )
    shared = jaccard(set(later.files_touched), set(earlier.files_touched))
    if shared >= 0.5:
        evidence.append(
            Evidence(SHARED_FILES, f"jaccard {shared:.2f}", _HISTORY_WEIGHTS[SHARED_FILES])
        )
    if _acked_by(later_art, earlier_art):
        evidence.append(
            Evidence(ACKED_BY, earlier.author, _HISTORY_WEIGHTS[ACKED_BY])
        )
    if later.author and later.author == earlier.author:
        evidence.append(
            Evidence(SAME_AUTHOR, later.author, _HISTORY_WEIGHTS[SAME_AUTHOR])
        )
    total = sum(e.weight for e in evidence)
    if not evidence or total < history_threshold:
        return None
    return RelationEdge(
        kind=HISTORY,
        from_id=later.id,
        to_id=earlier.id,
        score=min(1.0, total),
        evidence=tuple(evidence),
    )


def _content_tokens(
    tokens: tuple[str, ...], stopwords: frozenset[str]
) -> frozenset[str]:
    return frozenset(t for t in tokens if len(t) > 1 and t not in stopwords)


class _SentenceFeatures(NamedTuple):
    tokens: tuple[str, ...]
    content: frozenset[str]
    # Tokens seen after a negation cue (within two tokens), and seen without.
    negated: frozenset[str]
    plain: frozenset[str]


@functools.lru_cache(maxsize=4096)
def _sentence_features(
    text: str, negation_cues: frozenset[str], stopwords: frozenset[str]
) -> _SentenceFeatures:
    """What the contradiction rules read from one sentence, computed once."""

    def is_cue(token: str) -> bool:
        return token in negation_cues or token.endswith("n't")

    tokens = tuple(_RAW_WORD_RE.findall(text.lower()))
    negated: set[str] = set()
    plain: set[str] = set()
    for i, token in enumerate(tokens):
        if any(is_cue(tokens[j]) for j in (i - 1, i - 2) if j >= 0):
            negated.add(token)
        else:
            plain.add(token)
    return _SentenceFeatures(
        tokens, _content_tokens(tokens, stopwords), frozenset(negated), frozenset(plain)
    )


def contradiction_score(
    later_text: str,
    earlier_text: str,
    keywords: frozenset[str] = DEFAULT_CONTRADICTION_KEYWORDS,
    negation_cues: frozenset[str] = DEFAULT_NEGATION_CUES,
    stopwords: frozenset[str] = frozenset(),
) -> tuple[float, tuple[Evidence, ...]]:
    """Default sentence-level contradiction heuristic.

    Keyword rule: the later sentence uses revert/remove/disable and its
    object overlaps the earlier sentence (0.7).  Negation rule: a shared
    content token is negated in one sentence but not the other (0.9).
    Returns (0, ()) when neither rule fires.
    """
    later = _sentence_features(later_text, negation_cues, stopwords)
    earlier = _sentence_features(earlier_text, negation_cues, stopwords)
    best_score = 0.0
    best_evidence: tuple[Evidence, ...] = ()

    for keyword in sorted(keywords):
        if keyword not in later.tokens:
            continue
        at = later.tokens.index(keyword)
        obj = _content_tokens(later.tokens[at + 1 :], stopwords)
        if obj and jaccard(obj, earlier.content) >= 0.3:
            best_score = 0.7
            best_evidence = (Evidence(KEYWORD, keyword, 0.7),)
            break

    for token in sorted(later.content & earlier.content):
        if (token in later.negated and token in earlier.plain) or (
            token in later.plain and token in earlier.negated
        ):
            best_score = 0.9
            best_evidence = (Evidence(NEGATION_MISMATCH, token, 0.9),)
            break

    return best_score, best_evidence


def detect_contradicts(
    later: Decision,
    earlier: Decision,
    artifacts: Mapping[str, Artifact],
    keywords: frozenset[str] = DEFAULT_CONTRADICTION_KEYWORDS,
    negation_cues: frozenset[str] = DEFAULT_NEGATION_CUES,
    stopwords: frozenset[str] = frozenset(),
    nli: NliScorer | None = None,
) -> RelationEdge | None:
    """Contradicts edge from the later decision to the earlier one, if any.

    Revert metadata is checked first and scores 1.0; otherwise the sentence
    heuristic (or a plugged-in scorer) decides.  The caller guarantees both
    decisions share a topic.
    """
    later_art = artifacts[later.artifact_id]
    earlier_art = artifacts[earlier.artifact_id]
    if _revert_metadata(later_art, earlier_art):
        return RelationEdge(
            kind=CONTRADICTS,
            from_id=later.id,
            to_id=earlier.id,
            score=1.0,
            evidence=(
                Evidence(
                    REVERT_METADATA,
                    f"{later.artifact_id} reverts {earlier.artifact_id}",
                    1.0,
                ),
            ),
        )
    if nli is not None:
        score = nli(later.text, earlier.text)
        if score > 0.0:
            return RelationEdge(
                kind=CONTRADICTS,
                from_id=later.id,
                to_id=earlier.id,
                score=score,
                evidence=(Evidence(KEYWORD, "pluggable contradiction scorer", score),),
            )
        return None
    score, evidence = contradiction_score(
        later.text, earlier.text, keywords, negation_cues, stopwords
    )
    if score > 0.0:
        return RelationEdge(
            kind=CONTRADICTS,
            from_id=later.id,
            to_id=earlier.id,
            score=score,
            evidence=evidence,
        )
    return None
