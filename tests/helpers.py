"""Test-side oracles and generators, written independently of the package.

The TF-IDF oracle recomputes everything from scratch (its own token split,
df scan, and cosine loop) so it can cross-check the library implementation
without sharing code paths.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from datetime import datetime, timedelta, timezone
from typing import Iterator

import pytest
from hypothesis import strategies as st

from rdgraph.config import Config
from rdgraph.corpus import Artifact, Sentence, format_timestamp, parse_timestamp
from rdgraph.decisions import Decision, decision_sentence_index, extract_decisions
from rdgraph.graph import (
    GraphError,
    RdGraph,
    SourceRef,
    Subgraph,
    build_graph,
    graph_violations,
)
from rdgraph.rationale import (
    _BY_GERUND_RE,
    CAUSE,
    DEFAULT_MARKERS,
    MANNER,
    PURPOSE,
    ROLES,
    RationaleSpan,
    SpanFragment,
    _marker_pattern,
    _trim,
    extract_rationale,
)
from rdgraph.relations import (
    CONTRADICTS,
    EDGE_KINDS,
    HISTORY,
    SIMILAR,
    Evidence,
    RelationEdge,
    Topic,
)
from rdgraph.textsim import TfIdfModel
from rdgraph.validate import ValidationFinding, _sorted_findings


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


def reference_tokens(text: str, stopwords: frozenset[str]) -> list[str]:
    """The TF-IDF tokens of ``text`` in order: the runs of ``[a-z0-9_]`` in
    the lowered text that are two characters or longer and not stopwords."""
    tokens = re.findall(r"[a-z0-9_]+", text.lower())
    return [t for t in tokens if len(t) > 1 and t not in stopwords]


def reference_vectorize(model: TfIdfModel, text: str) -> dict[int, float]:
    """The tf·idf vector ``TfIdfProvider`` builds for ``text``, counted by a
    loop over the tokens, which is how the package counted before it used a
    ``Counter``."""
    counts: dict[int, int] = {}
    for token in reference_tokens(text, model.stopwords):
        index = model.vocabulary.get(token)
        if index is not None:
            counts[index] = counts.get(index, 0) + 1
    return {i: c * model.idf[i] for i, c in counts.items()}


def reference_model(
    docs: list[str], stopwords: frozenset[str] = frozenset()
) -> TfIdfModel:
    """The model ``TfIdfProvider.fit`` fits over ``docs``, from each
    document's set of tokens, as the package's ``build_model`` fitted it."""
    entries = [set(reference_tokens(doc, stopwords)) for doc in docs]
    if not entries:
        raise ValueError("cannot build a similarity model over an empty corpus")
    df = Counter(token for entry in entries for token in entry)
    tokens = sorted(df)
    n = len(entries)
    return TfIdfModel(
        vocabulary={token: i for i, token in enumerate(tokens)},
        idf=tuple(math.log((n + 1) / (df[token] + 1)) + 1.0 for token in tokens),
        doc_count=n,
        stopwords=stopwords,
    )


def sentence_score(sentence: Sentence, config: Config, is_summary: bool) -> float:
    """The decision score of one sentence, as the summary or as a body
    sentence, with every cue of ``config`` tried: at threshold 0
    ``extract_decisions`` keeps and scores every sentence it is given."""
    # Sentence 0 at offset 0 is the summary exactly when the artifact has one.
    artifact = Artifact(
        id=sentence.artifact_id,
        uri=f"git:{sentence.artifact_id}",
        author="",
        timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
        summary="summary" if is_summary else "",
        body="",
    )
    placed = sentence._replace(index=0, start=0)
    (decision,) = extract_decisions(artifact, [placed], at_decision_threshold(config, 0.0))
    return decision.score


def at_decision_threshold(config: Config, threshold: float) -> Config:
    """``config`` with its decision threshold set to ``threshold``."""
    return config._replace(thresholds=config.thresholds._replace(decision=threshold))


STRUCTURAL_VIOLATION = "structural-violation"


def validate_structure(graph: RdGraph) -> list[ValidationFinding]:
    """Every broken invariant ``graph_violations`` lists, as one error finding
    each in the package's finding order: the structural reporter the package
    exported before ``graph_violations`` became the one owner of them."""
    return _sorted_findings(
        [
            ValidationFinding(STRUCTURAL_VIOLATION, "error", subjects, (), message)
            for subjects, message in graph_violations(graph)
        ]
    )


# The clause scan of the package before it moved to one pattern pass over the
# lowered sentence, kept here so that the oracle shares none of its code.
_SUBJECT_WORDS = frozenset(
    {"it", "we", "they", "he", "she", "i", "you", "this", "that", "there",
     "the", "a", "an"}
)
_COORDINATORS = frozenset({"and", "but", "or", "so", "yet", "nor"})
_WORD_RE = re.compile(r"[A-Za-z0-9_']+")
_CLAUSE_STOP_RE = re.compile(r"[(),;]")


def _word_index(text: str) -> tuple[list[int], list[str]]:
    """The words of ``text.lower()``, each with the index in ``text`` it starts at.

    ``str.lower`` can change lengths (``"\u0130"`` becomes ``"i\u0307"``), so a
    non-ASCII text is lowered one character at a time to keep the offsets.
    Only the final sigma is lowered by context, and neither of its forms is a
    word character, so the words are those of lowering the text as a whole.
    """
    if text.isascii():
        lowered, origin = text.lower(), None
    else:
        pieces = [ch.lower() for ch in text]
        lowered = "".join(pieces)
        origin = [index for index, piece in enumerate(pieces) for _ in piece]
    starts: list[int] = []
    words: list[str] = []
    for match in _WORD_RE.finditer(lowered):
        starts.append(match.start() if origin is None else origin[match.start()])
        words.append(match.group())
    return starts, words


def _clause_end(
    text: str, start: int, stop: int, starts: list[int], words: list[str]
) -> int:
    """Scan from start to the clause boundary, or to ``stop`` if none comes
    first; offsets are sentence-local.

    ``starts``/``words`` are :func:`_word_index` of ``text``, so the two words
    after a comma are a binary search away instead of a scan of the rest.
    """
    i = start
    depth = 0
    while (boundary := _CLAUSE_STOP_RE.search(text, i, stop)) is not None:
        i = boundary.start()
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and ch == ";":
            return i
        elif depth == 0 and ch == ",":
            k = bisect_right(starts, i)
            if k < len(words):
                first = words[k]
                second = words[k + 1] if k + 1 < len(words) else ""
                if first in _SUBJECT_WORDS:
                    return i
                if first in _COORDINATORS and second in _SUBJECT_WORDS:
                    return i
        i += 1
    return stop


def reference_extract_rationale(sentence, markers=None):
    """What ``rationale.extract_rationale`` returns, found without its
    combined pattern: every marker of every role is searched on its own,
    and the hits are sorted and accepted leftmost-longest."""
    marker_map = markers if markers is not None else DEFAULT_MARKERS
    text = sentence.text
    hits = []
    for role in ROLES:
        for marker in marker_map.get(role, ()):
            this_way = " ".join(marker.lower().split()) == "this way"
            for match in _marker_pattern(marker).finditer(text):
                if this_way and match.start() != 0:
                    continue
                hits.append((match.start(), match.end(), role, marker))
    if MANNER in marker_map:
        for match in _BY_GERUND_RE.finditer(text):
            hits.append((match.start(), match.end(), MANNER, "by"))
    hits.sort(key=lambda h: (h[0], -(h[1] - h[0])))
    accepted = []
    for hit in hits:
        if not accepted or hit[0] >= accepted[-1][1]:
            accepted.append(hit)
    fragments = []
    starts, words = _word_index(text) if hits else ([], [])
    stops = [start for start, _, _, _ in accepted[1:]] + [len(text)]
    for (_, end, role, marker), stop in zip(accepted, stops):
        span_text, span_start, span_end = _trim(
            text, end, _clause_end(text, end, stop, starts, words)
        )
        if span_text:
            fragments.append(
                SpanFragment(
                    role=role,
                    marker=marker,
                    text=span_text,
                    start=sentence.start + span_start,
                    end=sentence.start + span_end,
                )
            )
    return fragments


def reference_attach_rationale(decision, sentences, window, markers=None):
    """``attach_rationale`` as a window loop over all of an artifact's
    sentences: the own sentence and, only when it gives no span, for each
    distance from 1 to ``window`` the following sentence, then the preceding
    one."""
    by_index = {s.index: s for s in sentences}
    own = decision_sentence_index(decision.id)
    collected = [(f, True) for f in extract_rationale(by_index[own], markers)]
    if not collected:
        for distance in range(1, window + 1):
            for neighbor in (own + distance, own - distance):
                if neighbor in by_index:
                    collected.extend(
                        (f, False) for f in extract_rationale(by_index[neighbor], markers)
                    )
    return [
        RationaleSpan(
            f"{decision.id}/r{n}", decision.id, fragment.role, fragment.marker,
            fragment.text, fragment.start, fragment.end, same_sentence,
        )
        for n, (fragment, same_sentence) in enumerate(collected)
    ]


# The feature of the one evidence record a similar edge's score stands for.
COSINE_SCORE = "cosine-score"


def derived_evidence(score: float) -> tuple[Evidence, ...]:
    """The one evidence record a similar edge's score derives, built here as
    graph format v2 specifies it; raises ValueError if score <= 0."""
    return (Evidence(COSINE_SCORE, f"cosine {score:.6f}", score),)


def derived_similar_edge(from_id: str, to_id: str, score: float) -> RelationEdge:
    """A similar edge as a built or loaded graph holds it: no stored evidence,
    and a score that ``derived_evidence`` accepts (ValueError otherwise)."""
    derived_evidence(score)
    return RelationEdge(SIMILAR, from_id, to_id, score)


def reference_detect_similar(decisions, provider, similar_threshold, documents):
    """The all-pairs reference for ``relations.detect_similar``: every pair of
    the topic, in ``(i, j)`` order, is scored with ``provider.score``."""
    ordered = sorted(decisions, key=lambda d: d.id)
    edges = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            score = provider.score(documents[a.id], documents[b.id])
            if score >= similar_threshold and score > 0.0:
                edges.append(derived_similar_edge(a.id, b.id, score))
    return edges


# Any text but lone surrogates, or text made only of the characters a JSON
# writer must escape or pass through: quotes, backslashes, controls and
# non-ASCII.
_TEXTS = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60),
    st.text(
        alphabet=st.sampled_from(
            '"\\/ \x00\x1f\x7f\n\r\t\b\f\u00e9\u2028\u20ac\U0001f600'
        ),
        max_size=12,
    ),
)
_DETAILS = st.sampled_from(["gen", "", 'say "hi" \\ \x00\x1f\n', "é€😀\u2028"])
# Scores and weights in [0, 1], with the smallest subnormal, a float that
# repr writes in exponent form, and 1.0 drawn often.
_NOTABLE_FLOATS = st.sampled_from([5e-324, 1e-7, 1.0])
_SCORES = st.one_of(
    _NOTABLE_FLOATS, st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)
# A similar edge's score is also its evidence weight, so it is positive.
_SIMILAR_SCORES = st.one_of(
    _NOTABLE_FLOATS, st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
)
_WEIGHTS = st.one_of(
    _NOTABLE_FLOATS, st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
)
_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def git_sources(decisions) -> list[SourceRef]:
    """One commit source per artifact the decisions name, with uri
    ``git:<artifact_id>``: the ``sources`` argument of a test's
    ``build_graph``."""
    artifact_ids = sorted({d.artifact_id for d in decisions})
    return [SourceRef(a, f"git:{a}", "commit") for a in artifact_ids]


@st.composite
def valid_graph_parts(draw):
    """Decisions, rationales, topics, edges, sources for a valid graph.

    Similar edges store no evidence, as a built graph's do; history and
    contradicts edges carry none or one drawn record.

    Decision ``i`` is the ``i``-th oldest; its id is drawn from a permutation,
    so id order and time order may disagree, as they do for commit hashes.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.permutations(range(n)))
    decisions = []
    for i in range(n):
        decisions.append(
            Decision(
                id=f"a{labels[i]}#0",
                text=draw(_TEXTS),
                artifact_id=f"a{labels[i]}",
                timestamp=_EPOCH + timedelta(days=i, seconds=draw(st.integers(0, 3600))),
                score=draw(_SCORES),
                author=draw(st.sampled_from(["ada", "grace", "linus"])),
            )
        )

    rationales = []
    for i, decision in enumerate(decisions):
        for r in range(draw(st.integers(min_value=0, max_value=2))):
            rationales.append(
                RationaleSpan(
                    id=f"{decision.id}/r{r}",
                    decision_id=decision.id,
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
        if draw(st.integers(0, 3)) == 0:
            return ()
        weight = draw(_WEIGHTS)
        return (Evidence(feature="cosine-score", detail=draw(_DETAILS), weight=weight),)

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
                if kind == SIMILAR:
                    edges.append(
                        derived_similar_edge(from_id, to_id, draw(_SIMILAR_SCORES))
                    )
                    continue
                edges.append(
                    RelationEdge(
                        kind=kind,
                        from_id=from_id,
                        to_id=to_id,
                        score=draw(_SCORES),
                        evidence=evidence(),
                    )
                )

    return decisions, rationales, topics, edges, git_sources(decisions)


def assert_records_keep_their_types(graph: RdGraph, loaded: RdGraph) -> None:
    """``loaded``, which is ``load(save(graph))``, equals ``graph``, and each of
    its records, and each evidence record its edges store, has its
    public class (not a bare named-tuple base), refuses field assignment, and
    hashes as the record of ``graph`` it equals and as its own field tuple.
    No similar edge stores evidence."""
    assert loaded == graph
    assert all(e.evidence == () for e in loaded.relation_edges if e.kind == SIMILAR)
    edge_pairs = list(zip(graph.relation_edges, loaded.relation_edges))
    pairs = [
        *((Decision, graph.decisions[k], loaded.decisions[k]) for k in graph.decisions),
        *((RationaleSpan, graph.rationales[k], loaded.rationales[k]) for k in graph.rationales),
        *((Topic, graph.topics[k], loaded.topics[k]) for k in graph.topics),
        *((SourceRef, graph.sources[k], loaded.sources[k]) for k in graph.sources),
        *((RelationEdge, a, b) for a, b in edge_pairs),
        *(
            (Evidence, x, y)
            for a, b in edge_pairs
            for x, y in zip(a.evidence, b.evidence)
        ),
    ]
    for cls, original, record in pairs:
        assert type(record) is cls
        assert record == original and hash(record) == hash(original)
        assert hash(record) == hash(tuple(record))
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def _reference_edge_record(edge: RelationEdge) -> dict:
    record = {"from": edge.from_id, "kind": edge.kind, "score": edge.score, "to": edge.to_id}
    if edge.kind != SIMILAR:  # a similar edge's evidence is derived
        record["evidence"] = [
            {"detail": e.detail, "feature": e.feature, "weight": e.weight}
            for e in edge.evidence
        ]
    return record


def reference_save(graph: RdGraph) -> str:
    """The ``json.dumps`` reference for ``graph.save``: the graph's document
    as a dict, serialized with sorted keys and two-space indentation."""
    doc = {
        "rdg_version": 3,
        "decisions": [
            {
                "artifact_id": d.artifact_id,
                "author": d.author,
                "id": d.id,
                "score": d.score,
                "text": d.text,
                "timestamp": format_timestamp(d.timestamp),
            }
            for d in (graph.decisions[i] for i in sorted(graph.decisions))
        ],
        "rationales": [
            {
                "decision_id": r.decision_id,
                "end": r.end,
                "id": r.id,
                "marker": r.marker,
                "role": r.role,
                "same_sentence": r.same_sentence,
                "start": r.start,
                "text": r.text,
            }
            for r in (graph.rationales[i] for i in sorted(graph.rationales))
        ],
        "topics": [
            {"id": t.id, "members": list(t.member_decision_ids), "title": t.title}
            for t in (graph.topics[i] for i in sorted(graph.topics))
        ],
        "sources": [
            {"artifact_kind": s.artifact_kind, "id": s.id, "uri": s.uri}
            for s in (graph.sources[i] for i in sorted(graph.sources))
        ],
        "edges": [
            _reference_edge_record(edge)
            for edge in sorted(
                graph.relation_edges, key=lambda e: (e.kind, e.from_id, e.to_id)
            )
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# Scores outside [0, 1], zero scores and non-finite ones, besides valid ones.
_BROKEN_SCORES = st.one_of(
    _SCORES, st.sampled_from([0.0, -0.0, -0.5, 1.5, math.nan, math.inf, -math.inf])
)


@st.composite
def broken_graphs(draw):
    """A ``valid_graph_parts()`` graph, constructed directly, whose edges are
    shuffled together with copies of some of them (duplicates) and with up to
    six drawn edges: an unknown kind, self edges, a missing end, scores
    outside [0, 1] or zero, non-canonical similar edges, history and
    contradicts edges in either time order, and similar edges with stored
    evidence.  The two oldest decisions may share a timestamp, a topic may
    list one of its members again, and a decision's source may be missing."""
    decisions, rationales, topics, edges, sources = draw(valid_graph_parts())
    if draw(st.booleans()):
        del sources[0]
    if len(decisions) > 1 and draw(st.booleans()):
        decisions[1] = decisions[1]._replace(timestamp=decisions[0].timestamp)
    if topics and draw(st.booleans()):
        members = topics[0].member_decision_ids
        again = draw(st.lists(st.sampled_from(members), min_size=1, max_size=2))
        topics[0] = topics[0]._replace(member_decision_ids=members + tuple(again))
    ends = st.sampled_from([d.id for d in decisions] + ["ghost#0"])
    evidence = st.sampled_from(
        [(), derived_evidence(0.5), (Evidence("keyword", "x", 1.0),)]
    )
    drawn = draw(
        st.lists(
            st.builds(
                RelationEdge,
                st.sampled_from([SIMILAR, HISTORY, CONTRADICTS, "cites"]),
                ends,
                ends,
                _BROKEN_SCORES,
                evidence,
            ),
            max_size=6,
        )
    )
    copies = draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    return RdGraph(
        decisions={d.id: d for d in decisions},
        rationales={r.id: r for r in rationales},
        topics={t.id: t for t in topics},
        sources={s.id: s for s in sources},
        relation_edges=tuple(draw(st.permutations(edges + drawn + copies))),
    )


def reference_graph_violations(graph: RdGraph) -> Iterator[tuple[tuple[str, ...], str]]:
    """The reference for ``graph.graph_violations``: the same invariant pass
    with one attribute read per edge field and a subject tuple per edge, and
    without the similar-edge evidence check.  It yields ``(subject ids,
    message)`` for every broken graph invariant but a similar edge's stored
    evidence or zero score.

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
        if decision.artifact_id not in graph.sources:
            yield (decision_id,), (
                f"decision {decision_id!r} has no source for artifact "
                f"{decision.artifact_id!r}"
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


def reference_neighbors(graph: RdGraph, decision_id: str, kinds) -> list:
    """The scan-based reference for ``graph.neighbors``: every relation edge
    is tested against the decision."""
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


def _reference_adjacent(graph: RdGraph, node_kind: str, node_id: str, kinds) -> list:
    peers = []
    if node_kind == "decision":
        for edge in graph.relation_edges:
            if edge.kind not in kinds:
                continue
            if edge.from_id == node_id:
                peers.append(("decision", edge.to_id))
            elif edge.to_id == node_id:
                peers.append(("decision", edge.from_id))
        if "rationale" in kinds:
            peers.extend(
                ("rationale", span.id)
                for span in graph.rationales.values()
                if span.decision_id == node_id
            )
        if "topic" in kinds:
            peers.extend(
                ("topic", topic.id)
                for topic in graph.topics.values()
                if node_id in topic.member_decision_ids
            )
    elif node_kind == "rationale" and "rationale" in kinds:
        peers.append(("decision", graph.rationales[node_id].decision_id))
    elif node_kind == "topic" and "topic" in kinds:
        peers.extend(("decision", m) for m in graph.topics[node_id].member_decision_ids)
    return peers


def reference_k_hop(graph: RdGraph, decision_id: str, k: int, kinds) -> Subgraph:
    """The scan-based reference for ``graph.k_hop``: each expanded node scans
    every relation edge, rationale and topic, and the subgraph's edges come
    from a scan of every relation edge."""
    start = ("decision", decision_id)
    frontier, visited = {start}, {start}
    for _ in range(k):
        frontier = {
            peer
            for node_kind, node_id in frontier
            for peer in _reference_adjacent(graph, node_kind, node_id, kinds)
        } - visited
        visited |= frontier
    decision_ids = frozenset(i for kind, i in visited if kind == "decision")
    edges = sorted(
        (
            e
            for e in graph.relation_edges
            if e.kind in kinds and e.from_id in decision_ids and e.to_id in decision_ids
        ),
        key=lambda e: (e.kind, e.from_id, e.to_id),
    )
    return Subgraph(
        decision_ids=decision_ids,
        rationale_ids=frozenset(i for kind, i in visited if kind == "rationale"),
        topic_ids=frozenset(i for kind, i in visited if kind == "topic"),
        edges=tuple(edges),
    )


def finding_to_dict(finding) -> dict:
    """A validation finding as the dict its JSON line encodes."""
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


def reference_findings_to_jsonl(findings) -> str:
    """The ``json.dumps`` reference for ``validate.findings_to_jsonl``."""
    lines = [
        json.dumps(finding_to_dict(f), sort_keys=True, ensure_ascii=False)
        for f in findings
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def findings(draw):
    """Validation findings whose strings need escaping and whose paths hold
    zero to three edges with notable scores."""

    def edge() -> RelationEdge:
        return RelationEdge(
            kind=draw(st.sampled_from([SIMILAR, HISTORY, CONTRADICTS])),
            from_id=draw(_TEXTS),
            to_id=draw(_TEXTS),
            score=draw(_SCORES),
        )

    return [
        ValidationFinding(
            kind=draw(_TEXTS),
            severity=draw(st.sampled_from(["error", "warning", "info"])),
            subject_ids=tuple(draw(st.lists(_TEXTS, max_size=3))),
            path=tuple(edge() for _ in range(draw(st.integers(0, 3)))),
            message=draw(_TEXTS.filter(bool)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]


def _reference_expect(obj, key, types, path):
    if key not in obj:
        raise GraphError(f"{path}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise GraphError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def reference_graph_from_doc(doc: dict) -> RdGraph:
    """The per-field reference for ``graph.load``: every field of every record
    goes through ``_expect``, and errors come in the loader's field order."""
    _expect = _reference_expect
    version = _expect(doc, "rdg_version", int, "graph")
    if version != 3:
        raise GraphError(f"unsupported rdg_version {version}; rebuild with `rdgraph build`")

    decisions = []
    for n, obj in enumerate(_expect(doc, "decisions", list, "graph")):
        path = f"decisions[{n}]"
        if not isinstance(obj, dict):
            raise GraphError(f"{path}: expected object")
        stamp = _expect(obj, "timestamp", str, path)
        try:
            timestamp = parse_timestamp(stamp)
        except ValueError as exc:
            raise GraphError(f"{path}.timestamp: {exc}") from exc
        decisions.append(
            Decision(
                id=_expect(obj, "id", str, path),
                text=_expect(obj, "text", str, path),
                artifact_id=_expect(obj, "artifact_id", str, path),
                timestamp=timestamp,
                score=float(_expect(obj, "score", (int, float), path)),
                author=_expect(obj, "author", str, path),
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
                role=_expect(obj, "role", str, path),
                marker=_expect(obj, "marker", str, path),
                text=_expect(obj, "text", str, path),
                start=int(_expect(obj, "start", int, path)),
                end=int(_expect(obj, "end", int, path)),
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
        id_ = _expect(obj, "id", str, path)
        uri = _expect(obj, "uri", str, path)
        artifact_kind = _expect(obj, "artifact_kind", str, path)
        try:
            sources.append(SourceRef(id=id_, uri=uri, artifact_kind=artifact_kind))
        except ValueError as exc:
            raise GraphError(f"{path}: {exc}") from exc

    edges = []
    for n, obj in enumerate(_expect(doc, "edges", list, "graph")):
        path = f"edges[{n}]"
        if not isinstance(obj, dict):
            raise GraphError(f"{path}: expected object")
        kind = _expect(obj, "kind", str, path)
        from_id = _expect(obj, "from", str, path)
        to_id = _expect(obj, "to", str, path)
        score = float(_expect(obj, "score", (int, float), path))
        if kind == SIMILAR:
            try:
                edges.append(derived_similar_edge(from_id, to_id, score))
            except ValueError as exc:
                raise GraphError(f"{path}.score: {exc}") from exc
            continue
        evidence = []
        for m, ev in enumerate(_expect(obj, "evidence", list, path)):
            ev_path = f"{path}.evidence[{m}]"
            if not isinstance(ev, dict):
                raise GraphError(f"{ev_path}: expected object")
            feature = _expect(ev, "feature", str, ev_path)
            detail = _expect(ev, "detail", str, ev_path)
            weight = float(_expect(ev, "weight", (int, float), ev_path))
            try:
                evidence.append(Evidence(feature=feature, detail=detail, weight=weight))
            except ValueError as exc:
                raise GraphError(f"{ev_path}: {exc}") from exc
        edges.append(RelationEdge(kind, from_id, to_id, score, tuple(evidence)))

    return build_graph(decisions, rationales, topics, edges, sources)
