"""Decision-decision relationships: topics, similar, history, contradicts.

Topic membership comes from single-link clustering over whole-artifact text
similarity (relatedness is about shared context, not shared wording of the
one-line decision).  Similar edges and the validation checks instead compare
a decision's own document: its sentence plus its rationale spans.  History
and contradicts are evidence-based, and one rule, ``pair_edges``, gives both
for a (later, earlier) pair, so a revert is read once and makes both; each of
their edges carries the features that fired, with their weights.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from collections import Counter
from typing import AbstractSet, Iterable, Mapping, NamedTuple

from .config import Config
from .corpus import Artifact
from .decisions import Decision, strip_subsystem_prefix
from .rationale import RationaleSpan
from .textsim import TfIdfModel, TfIdfProvider, tokenize

SIMILAR = "similar"
HISTORY = "history"
CONTRADICTS = "contradicts"
EDGE_KINDS = (SIMILAR, HISTORY, CONTRADICTS)

REVERT_METADATA = "revert-metadata"
EXPLICIT_REFERENCE = "explicit-reference"
SAME_AUTHOR = "same-author"
ACKED_BY = "acked-by"
KEYWORD = "keyword"
NEGATION_MISMATCH = "negation-mismatch"

# Evidence weights for history edges; explicit references and revert
# metadata each suffice alone at the default threshold of 0.5.
_HISTORY_WEIGHTS = {
    EXPLICIT_REFERENCE: 0.5,
    REVERT_METADATA: 0.5,
    ACKED_BY: 0.2,
    SAME_AUTHOR: 0.1,
}

_REVERTS_COMMIT_RE = re.compile(r"This reverts commit ([0-9a-f]{7,40})\b")
_RAW_WORD_RE = re.compile(r"[a-z0-9_']+")
_WORD_RUN_RE = re.compile(r"\w+")
_HEX_RUN_RE = re.compile(r"[0-9a-f]{7,40}")


class _EvidenceFields(NamedTuple):
    feature: str
    detail: str
    weight: float


class Evidence(_EvidenceFields):
    """One feature that contributed to an edge, with a positive, finite weight.

    An immutable named tuple, equal to its field tuple.  ``Evidence(...)``,
    ``Evidence._make`` and ``._replace`` all check the weight.
    """

    __slots__ = ()

    def __new__(cls, feature: str, detail: str, weight: float) -> Evidence:
        if weight <= 0:
            raise ValueError("evidence weight must be positive")
        if not math.isfinite(weight):
            raise ValueError(f"evidence weight must be finite, got {weight!r}")
        return tuple.__new__(cls, (feature, detail, weight))

    @classmethod
    def _make(cls, iterable: Iterable) -> Evidence:
        return cls(*iterable)


class RelationEdge(NamedTuple):
    """A typed decision-decision edge, an immutable named tuple.

    Similar edges are undirected and stored with ``from_id < to_id``;
    history and contradicts edges run from the later decision to the
    earlier one.  A similar edge stores no evidence: its score, a cosine, is
    all it has.  Records compare by value; ``._replace`` makes a changed copy.
    """

    kind: str
    from_id: str
    to_id: str
    score: float
    evidence: tuple[Evidence, ...] = ()


class Topic(NamedTuple):
    """A cluster of related decisions with a generated title."""

    id: str
    title: str
    member_decision_ids: tuple[str, ...]


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
    provider: TfIdfProvider,
    relatedness_threshold: float,
    contexts: Mapping[str, str],
) -> list[Topic]:
    """Single-link clustering over pairwise context similarity.

    Unlinked decisions become singleton topics.  Topic ids are ordered by
    the earliest member timestamp, so they are stable under input
    permutation.
    """
    ordered = sorted(decisions, key=lambda d: d.id)
    # A component label per decision.  A union relabels the smaller side, so
    # a pair already in one component is skipped in O(1); single link only
    # depends on the partition, so skipping it cannot change the topics.
    label = list(range(len(ordered)))
    groups: list[list[int]] = [[i] for i in range(len(ordered))]
    for i, a in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            if label[i] == label[j]:
                continue
            b = ordered[j]
            if provider.score(contexts[a.id], contexts[b.id]) >= relatedness_threshold:
                small, large = sorted((label[i], label[j]), key=lambda c: len(groups[c]))
                for k in groups[small]:
                    label[k] = large
                groups[large].extend(groups[small])
                groups[small] = []
    components = [
        sorted((ordered[k] for k in group), key=lambda d: (d.timestamp, d.id))
        for group in groups
        if group
    ]
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
    vocabulary, idf = model.vocabulary, model.idf
    totals: dict[str, float] = {}
    for member in topic.member_decision_ids:
        counts = Counter(tokenize(texts[member], model.stopwords))
        for token, count in counts.items():
            index = vocabulary.get(token)
            if index is not None:
                totals[token] = totals.get(token, 0.0) + count * idf[index]
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return " ".join(token for token, _ in ranked[:3])


def detect_similar(
    decisions: list[Decision],
    provider: TfIdfProvider,
    similar_threshold: float,
    documents: Mapping[str, str],
) -> list[RelationEdge]:
    """Similar edges between decisions of one topic, canonical order.

    The pairs come from ``provider.pairs``, an inverted-index join that
    reaches only pairs of documents sharing a token, gives each the score
    ``provider.score`` would, and yields those at or above the threshold; a
    pair sharing none scores 0 and never makes an edge, at any threshold.
    """
    ordered = sorted(decisions, key=lambda d: d.id)
    texts = [documents[d.id] for d in ordered]
    return [
        RelationEdge(SIMILAR, ordered[i].id, ordered[j].id, score)
        for i, j, score in provider.pairs(texts, similar_threshold)
    ]


def _mentions_reference(later: Artifact, earlier: Artifact) -> bool:
    haystacks = [later.body] + [v for vs in later.trailers.values() for v in vs]
    phrase = earlier.summary
    bare = strip_subsystem_prefix(phrase)
    for haystack in haystacks:
        if phrase and phrase in haystack:
            return True
        if bare and bare != phrase and bare in haystack:
            return True
        if any(earlier.id.startswith(token) for token in _word_runs(haystack)[1]):
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


def _content_tokens(tokens: list[str], stopwords: frozenset[str]) -> frozenset[str]:
    return frozenset(t for t in set(tokens).difference(stopwords) if len(t) > 1)


class _SentenceFeatures(NamedTuple):
    """What the contradiction rule reads from one text."""

    content: frozenset[str]
    # Content tokens seen after a negation cue (within two tokens), and
    # content tokens seen without one.
    negated: frozenset[str]
    plain: frozenset[str]
    # Each keyword the text holds, in sorted order, with the content tokens
    # after its first occurrence (its object), when there are any.
    objects: tuple[tuple[str, frozenset[str]], ...]


@functools.lru_cache(maxsize=4096)
def _sentence_features(
    text: str,
    keywords: frozenset[str],
    negation_cues: frozenset[str],
    stopwords: frozenset[str],
) -> _SentenceFeatures:
    """The contradiction features of one text, computed once.

    Cached: build reads a decision sentence in ``candidate_pairs`` and in
    each ``pair_edges`` call of its pairs, and repeated validations in one
    process read the same rationales.
    """
    tokens = _RAW_WORD_RE.findall(text.lower())
    content = _content_tokens(tokens, stopwords)
    # Positions within two tokens after a negation cue.
    after_cue = {
        j
        for i, token in enumerate(tokens)
        if token in negation_cues or token.endswith("n't")
        for j in (i + 1, i + 2)
    }
    negated = content.intersection(tokens[j] for j in after_cue if j < len(tokens))
    plain = content.intersection(t for j, t in enumerate(tokens) if j not in after_cue)
    objects = []
    for keyword in sorted(keywords.intersection(tokens)):
        obj = _content_tokens(tokens[tokens.index(keyword) + 1 :], stopwords)
        if obj:
            objects.append((keyword, obj))
    return _SentenceFeatures(content, negated, plain, tuple(objects))


def _contradiction(
    later: _SentenceFeatures, earlier: _SentenceFeatures
) -> tuple[float, tuple[Evidence, ...]]:
    """The contradiction rule over the features of two texts.

    The negation rule wins over the keyword rule, and each reports its
    first hit: the smallest clashing token, or the first keyword in sorted
    order whose object overlaps the earlier text.
    """
    clashes = (later.negated & earlier.plain) | (later.plain & earlier.negated)
    if clashes:
        return 0.9, (Evidence(NEGATION_MISMATCH, min(clashes), 0.9),)
    for keyword, obj in later.objects:
        if jaccard(obj, earlier.content) >= 0.3:
            return 0.7, (Evidence(KEYWORD, keyword, 0.7),)
    return 0.0, ()


def pair_edges(
    later: Decision,
    earlier: Decision,
    artifacts: Mapping[str, Artifact],
    config: Config,
) -> list[RelationEdge]:
    """The contradicts and history edges from the later decision to the
    earlier one, in that order; the caller guarantees both share a topic.

    Contradicts: revert metadata scores 1.0; otherwise the sentence rule
    decides (a later keyword whose object overlaps the earlier sentence,
    0.7; a shared content token negated on one side only, 0.9).  History:
    explicit reference, revert metadata, ``Acked-by`` and same-author
    evidence, summed left to right against ``thresholds.history``.  A revert
    is both a contradiction and an evolution step, so when its history
    evidence falls short the history edge takes the contradicts edge's score
    and evidence.  The strict timestamp order is a hard precondition.
    """
    if later.timestamp <= earlier.timestamp:
        raise ValueError("history requires later.timestamp > earlier.timestamp")
    later_art = artifacts[later.artifact_id]
    earlier_art = artifacts[earlier.artifact_id]
    revert: Evidence | None = None
    if _revert_metadata(later_art, earlier_art):
        revert = Evidence(
            REVERT_METADATA, f"{later.artifact_id} reverts {earlier.artifact_id}", 1.0
        )
        score, evidence = 1.0, (revert,)
    else:
        lexicons = (config.contradiction_keywords, config.negation_cues, config.stopwords)
        score, evidence = _contradiction(
            _sentence_features(later.text, *lexicons),
            _sentence_features(earlier.text, *lexicons),
        )
    edges = []
    if score > 0.0:
        edges.append(RelationEdge(CONTRADICTS, later.id, earlier.id, score, evidence))

    history = []
    if _mentions_reference(later_art, earlier_art):
        history.append(
            Evidence(
                EXPLICIT_REFERENCE,
                f"{later.artifact_id} refers to {earlier.artifact_id}",
                _HISTORY_WEIGHTS[EXPLICIT_REFERENCE],
            )
        )
    if revert is not None:
        history.append(revert._replace(weight=_HISTORY_WEIGHTS[REVERT_METADATA]))
    if _acked_by(later_art, earlier_art):
        history.append(Evidence(ACKED_BY, earlier.author, _HISTORY_WEIGHTS[ACKED_BY]))
    if later.author and later.author == earlier.author:
        history.append(Evidence(SAME_AUTHOR, later.author, _HISTORY_WEIGHTS[SAME_AUTHOR]))
    total = 0.0
    for e in history:  # left to right, as before Python 3.12's compensated sum()
        total += e.weight
    if history and total >= config.thresholds.history:
        edges.append(
            RelationEdge(HISTORY, later.id, earlier.id, min(1.0, total), tuple(history))
        )
    elif revert is not None:
        edges.append(RelationEdge(HISTORY, later.id, earlier.id, score, evidence))
    return edges


class _Haystack(NamedTuple):
    """Where a later artifact can name an earlier one.

    ``text`` joins the body, the trailer values and a ``Revert`` summary
    with newlines, which are not word characters, so no word run spans two
    parts.
    """

    text: str
    words: tuple[str, ...]
    hex_tokens: frozenset[str]


@functools.lru_cache(maxsize=4096)
def _word_runs(text: str) -> tuple[tuple[str, ...], frozenset[str]]:
    """The distinct ``\\w+`` runs of a text, and those of 7 to 40 hex digits.

    A ``\\b[0-9a-f]{7,40}\\b`` match is always a whole word run, so one scan
    gives both.  Interned words in a tuple keep the cached entry small.
    """
    words = frozenset(map(sys.intern, _WORD_RUN_RE.findall(text)))
    return tuple(words), frozenset(filter(_HEX_RUN_RE.fullmatch, words))


def _haystack(artifact: Artifact) -> _Haystack:
    parts = [artifact.body] + [v for vs in artifact.trailers.values() for v in vs]
    if artifact.summary.startswith("Revert"):
        parts.append(artifact.summary)
    text = "\n".join(parts)
    return _Haystack(text, *_word_runs(text))


def _interior_words(phrase: str) -> list[str]:
    """Word runs with a non-word character on both sides inside ``phrase``.

    Every text that contains the phrase holds each of them as a whole word
    run.
    """
    return [
        m.group()
        for m in _WORD_RUN_RE.finditer(phrase)
        if m.start() > 0 and m.end() < len(phrase)
    ]


def _naming_pairs(arts: Mapping[str, Artifact]) -> set[tuple[str, str]]:
    """(later, earlier) artifact id pairs where the later one may name the
    earlier by id prefix or by summary: a superset of the pairs with
    ``explicit-reference`` or ``revert-metadata`` evidence."""
    haystacks = {aid: _haystack(art) for aid, art in arts.items()}
    pairs: set[tuple[str, str]] = set()

    by_prefix: dict[str, list[str]] = {}
    for aid in arts:
        if len(aid) >= 7:
            by_prefix.setdefault(aid[:7], []).append(aid)
    for later_id, haystack in haystacks.items():
        for token in haystack.hex_tokens:
            for earlier_id in by_prefix.get(token[:7], ()):
                if earlier_id.startswith(token):
                    pairs.add((later_id, earlier_id))

    # Every text that holds a summary holds its prefix-stripped tail, so
    # looking up the tail alone finds both forms.
    by_phrase: dict[str, list[str]] = {}
    for aid, art in arts.items():
        phrase = strip_subsystem_prefix(art.summary) or art.summary
        if phrase:
            by_phrase.setdefault(phrase, []).append(aid)
    interior = {phrase: _interior_words(phrase) for phrase in by_phrase}
    wanted = frozenset(w for words in interior.values() for w in words)
    holders: dict[str, list[str]] = {}
    for aid, haystack in haystacks.items():
        for word in wanted.intersection(haystack.words):
            holders.setdefault(word, []).append(aid)
    for phrase, earlier_ids in by_phrase.items():
        words = interior[phrase]
        if words:
            laters = min((holders.get(w, ()) for w in words), key=len)
        else:
            laters = haystacks.keys()
        for later_id in laters:
            if phrase in haystacks[later_id].text:
                pairs.update((later_id, e) for e in earlier_ids)
    return pairs


def candidate_pairs(
    members: Iterable[Decision],
    artifacts: Mapping[str, Artifact],
    config: Config,
) -> list[tuple[Decision, Decision]]:
    """The (later, earlier) pairs of one topic that can carry a history or
    contradicts edge, each with ``later.timestamp > earlier.timestamp``.

    Each feature that can make such an edge has an index, and a pair that
    none of them finds cannot make one:

    * hex ids: 7-character prefixes of the hex words in the later body and
      trailers (``This reverts commit <hex>`` and explicit references);
    * summaries: the earlier summary and its prefix-stripped form, found in
      the later body, trailers or ``Revert`` summary, looked up by the
      rarest interior word;
    * the keyword rule: earlier sentences sharing a content token with a
      keyword's object in the later sentence;
    * the negation rule: tokens negated on one side and plain on the other;
    * same-author and ``Acked-by`` pairs, only when those two weights
      together reach ``thresholds.history``.

    The two sentence rules read the feature record ``pair_edges`` reads, so
    keyword objects and negation states are derived in one place.  The
    lexicons and the history threshold come from ``config``.

    Pairs come in the order of the all-pairs loop: earlier, then later, by
    ``(timestamp, id)``.
    """
    ordered = sorted(members, key=lambda d: (d.timestamp, d.id))
    by_artifact: dict[str, list[int]] = {}
    for i, decision in enumerate(ordered):
        by_artifact.setdefault(decision.artifact_id, []).append(i)
    arts = {aid: artifacts[aid] for aid in by_artifact}
    # Index pairs (later, earlier) into ``ordered``.
    pairs: set[tuple[int, int]] = set()
    for later_id, earlier_id in _naming_pairs(arts):
        pairs.update(itertools.product(by_artifact[later_id], by_artifact[earlier_id]))

    lexicons = (config.contradiction_keywords, config.negation_cues, config.stopwords)
    features = [_sentence_features(d.text, *lexicons) for d in ordered]
    with_token: dict[str, list[int]] = {}
    plain: dict[str, list[int]] = {}
    negated: dict[str, list[int]] = {}
    for j, f in enumerate(features):
        for token in f.content:
            with_token.setdefault(token, []).append(j)
        for token in f.plain:
            plain.setdefault(token, []).append(j)
        for token in f.negated:
            negated.setdefault(token, []).append(j)
    for i, f in enumerate(features):
        for token in frozenset().union(*(obj for _, obj in f.objects)):
            pairs.update((i, j) for j in with_token[token])
        for token in f.negated:
            pairs.update((i, j) for j in plain.get(token, ()))
        for token in f.plain:
            pairs.update((i, j) for j in negated.get(token, ()))

    # The sum pair_edges makes of the two weak features, as a float
    # (0.30000000000000004); above it a history edge needs an id or summary.
    weak = _HISTORY_WEIGHTS[ACKED_BY] + _HISTORY_WEIGHTS[SAME_AUTHOR]
    if weak >= config.thresholds.history:
        by_author: dict[str, list[int]] = {}
        for j, decision in enumerate(ordered):
            if decision.author:
                by_author.setdefault(decision.author, []).append(j)
        for i, decision in enumerate(ordered):
            acks = arts[decision.artifact_id].trailers.get("Acked-by", ())
            for author, indices in by_author.items():
                if author == decision.author or any(author in v for v in acks):
                    pairs.update((i, j) for j in indices)

    return [
        (ordered[i], ordered[j])
        for j, i in sorted((j, i) for i, j in pairs)
        if ordered[i].timestamp > ordered[j].timestamp
    ]
