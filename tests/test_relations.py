from __future__ import annotations

import collections
import itertools
import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import D1, D2, D3, D4, D5
from rdgraph import (
    build_model,
    build_pipeline,
    cluster_topics,
    contradiction_score,
    detect_contradicts,
    detect_history,
    detect_similar,
    title_topic,
)
from rdgraph import relations, textsim
from rdgraph.corpus import Artifact, normalized_text
from rdgraph.decisions import Decision
from rdgraph.relations import (
    ACKED_BY,
    CONTRADICTS,
    EXPLICIT_REFERENCE,
    HISTORY,
    KEYWORD,
    NEGATION_MISMATCH,
    REVERT_METADATA,
    SAME_AUTHOR,
    SHARED_FILES,
    SIMILAR,
    Evidence,
    Topic,
    jaccard,
)
from rdgraph.textsim import TfIdfProvider
from rdgraph.validate import check_new_decision, graph_documents

EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def make_decision(n: int, text: str, files: tuple[str, ...] = (), author: str = "A <a@x>") -> Decision:
    return Decision(
        id=f"a{n}#0",
        text=text,
        artifact_id=f"a{n}",
        source_uri=f"git:a{n}",
        timestamp=EPOCH + timedelta(days=n),
        score=1.0,
        author=author,
        files_touched=files,
    )


def make_artifact(n: int, summary: str, body: str = "", trailers=None, author: str = "A <a@x>") -> Artifact:
    return Artifact(
        id=f"a{n}",
        uri=f"git:a{n}",
        author=author,
        timestamp=EPOCH + timedelta(days=n),
        summary=summary,
        body=body,
        trailers=trailers or {},
        kind="commit",
    )


@pytest.fixture()
def provider():
    docs = [
        "reap the memory of the victim task",
        "reap the memory of the dying task",
        "tune the scheduler for latency",
        "rework the scheduler tick for latency",
    ]
    return TfIdfProvider(build_model(docs)), docs


def test_all_pairs_below_threshold_gives_singletons(provider):
    scorer, docs = provider
    decisions = [make_decision(n, docs[n]) for n in range(4)]
    contexts = {d.id: d.text for d in decisions}
    topics = cluster_topics(decisions, scorer, 0.99, contexts)
    assert len(topics) == 4
    assert all(len(t.member_decision_ids) == 1 for t in topics)


def test_two_vocabulary_islands_make_two_topics(provider):
    scorer, docs = provider
    decisions = [make_decision(n, docs[n]) for n in range(4)]
    contexts = {d.id: d.text for d in decisions}
    topics = cluster_topics(decisions, scorer, 0.2, contexts)
    assert len(topics) == 2
    groups = [set(t.member_decision_ids) for t in topics]
    assert {"a0#0", "a1#0"} in groups
    assert {"a2#0", "a3#0"} in groups


def test_fixture_clusters_into_a_single_topic(fixture_graph):
    assert len(fixture_graph.topics) == 1
    (topic,) = fixture_graph.topics.values()
    assert list(topic.member_decision_ids) == [D1, D2, D3, D4, D5]


def test_topic_ids_are_invariant_under_input_permutation(fixture_artifacts, config):
    shuffled = list(fixture_artifacts)
    random.Random(7).shuffle(shuffled)
    graph = build_pipeline(shuffled, config)
    reference = build_pipeline(fixture_artifacts, config)
    assert {t.id: t.member_decision_ids for t in graph.topics.values()} == {
        t.id: t.member_decision_ids for t in reference.topics.values()
    }


def test_singleton_topic_title_uses_only_member_tokens():
    decisions = [make_decision(0, "introduce oom reaper")]
    model = build_model([d.text for d in decisions])
    topic = Topic(id="t1", title="", member_decision_ids=("a0#0",))
    title = title_topic(topic, model, {"a0#0": "introduce oom reaper"})
    assert set(title.split()) <= {"introduce", "oom", "reaper"}
    assert len(title.split()) == 3


def test_fixture_topic_title_is_pinned(fixture_graph):
    (topic,) = fixture_graph.topics.values()
    assert topic.title == "oom introduce mm"


def test_empty_member_texts_give_empty_title():
    model = build_model(["filler corpus text"])
    topic = Topic(id="t1", title="", member_decision_ids=("a0#0",))
    assert title_topic(topic, model, {"a0#0": ""}) == ""


def test_identical_decision_texts_make_a_similar_edge_with_score_one(provider):
    scorer, _ = provider
    decisions = [make_decision(0, "reap the memory"), make_decision(1, "reap the memory")]
    documents = {d.id: d.text for d in decisions}
    (edge,) = detect_similar(decisions, scorer, 0.99, documents)
    assert edge.kind == SIMILAR
    assert edge.score == 1.0
    assert edge.from_id < edge.to_id
    assert edge.evidence[0].feature == "cosine-score"


def test_fixture_has_the_one_similar_edge(fixture_graph):
    similar = [e for e in fixture_graph.relation_edges if e.kind == SIMILAR]
    assert [(e.from_id, e.to_id) for e in similar] == [(D2, D1)]  # canonical order


def test_no_similar_edges_below_threshold(provider):
    scorer, docs = provider
    decisions = [make_decision(0, docs[0]), make_decision(1, docs[2])]
    documents = {d.id: d.text for d in decisions}
    assert detect_similar(decisions, scorer, 0.5, documents) == []


def test_history_edge_for_the_revert_pair(fixture_graph, fixture_artifacts, config):
    history = [e for e in fixture_graph.relation_edges if e.kind == HISTORY]
    assert {(e.from_id, e.to_id) for e in history} == {(D3, D1), (D3, D2)}
    for edge in history:
        features = {ev.feature for ev in edge.evidence}
        assert EXPLICIT_REFERENCE in features
        assert REVERT_METADATA in features
        assert ACKED_BY in features
        assert edge.score == 1.0


def test_history_requires_strict_timestamp_order():
    artifacts = {a.id: a for a in [make_artifact(0, "s: one"), make_artifact(1, "s: two")]}
    earlier = make_decision(0, "s: one")
    later = make_decision(1, "s: two")
    with pytest.raises(ValueError, match="timestamp"):
        detect_history(earlier, later, artifacts, 0.5)


def test_history_without_evidence_is_none():
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "s: one", "Nothing related.", author="A <a@x>"),
            make_artifact(1, "s: two", "Also unrelated.", author="B <b@x>"),
        ]
    }
    earlier = make_decision(0, "s: one", author="A <a@x>")
    later = make_decision(1, "s: two", author="B <b@x>")
    assert detect_history(later, earlier, artifacts, 0.5) is None


def test_same_author_alone_is_below_the_default_threshold():
    artifacts = {a.id: a for a in [make_artifact(0, "s: one"), make_artifact(1, "s: two")]}
    earlier = make_decision(0, "s: one")
    later = make_decision(1, "s: two")
    assert detect_history(later, earlier, artifacts, 0.5) is None
    edge = detect_history(later, earlier, artifacts, 0.1)
    assert edge is not None
    assert [e.feature for e in edge.evidence] == [SAME_AUTHOR]
    assert edge.score == pytest.approx(0.1)


def test_shared_files_and_acked_by_evidence():
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "s: one", author="A <a@x>"),
            make_artifact(
                1, "s: two", trailers={"Acked-by": ("A <a@x>",)}, author="B <b@x>"
            ),
        ]
    }
    earlier = make_decision(0, "s: one", files=("mm/oom_kill.c",), author="A <a@x>")
    later = make_decision(1, "s: two", files=("mm/oom_kill.c",), author="B <b@x>")
    edge = detect_history(later, earlier, artifacts, 0.4)
    assert edge is not None
    assert {e.feature for e in edge.evidence} == {SHARED_FILES, ACKED_BY}
    assert edge.score == pytest.approx(0.4)


def test_explicit_reference_via_id_prefix():
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "s: one"),
            make_artifact(1, "s: two", "Builds on commit a0 badly."),
        ]
    }
    # "a0" is only two characters; id references need at least seven.
    earlier = make_decision(0, "s: one")
    later = make_decision(1, "s: two")
    assert detect_history(later, earlier, artifacts, 0.5) is None


def test_contradicts_via_revert_metadata(fixture_graph):
    contradicts = [e for e in fixture_graph.relation_edges if e.kind == CONTRADICTS]
    assert {(e.from_id, e.to_id) for e in contradicts} == {(D3, D1), (D3, D2)}
    for edge in contradicts:
        assert edge.score == 1.0
        assert [e.feature for e in edge.evidence] == [REVERT_METADATA]


def test_contradicts_via_revert_summary_form():
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "mm: add the fast path"),
            make_artifact(1, 'Revert "mm: add the fast path"', "It broke the slow path."),
        ]
    }
    earlier = make_decision(0, "mm: add the fast path")
    later = make_decision(1, 'Revert "mm: add the fast path"')
    edge = detect_contradicts(later, earlier, artifacts)
    assert edge is not None
    assert edge.evidence[0].feature == REVERT_METADATA


def test_contradiction_pair_from_negation_mismatch(config):
    score, evidence = contradiction_score(
        "There is no need to do anymore changes",
        "We need to implement this feature to be able to satisfy the requirements",
        config.contradiction_keywords,
        config.negation_cues,
        config.stopwords,
    )
    assert score == pytest.approx(0.9)
    assert evidence[0].feature == NEGATION_MISMATCH
    assert evidence[0].detail == "need"


def test_identical_sentences_do_not_contradict(config):
    score, evidence = contradiction_score(
        "We need this feature",
        "We need this feature",
        config.contradiction_keywords,
        config.negation_cues,
        config.stopwords,
    )
    assert score == 0.0
    assert evidence == ()


def test_keyword_rule_fires_on_object_overlap(config):
    score, evidence = contradiction_score(
        "disable the oom reaper for cgroups",
        "enable the oom reaper everywhere",
        config.contradiction_keywords,
        config.negation_cues,
        config.stopwords,
    )
    assert score == pytest.approx(0.7)
    assert evidence[0].feature == KEYWORD
    assert evidence[0].detail == "disable"


def test_keyword_rule_needs_object_overlap(config):
    score, _ = contradiction_score(
        "remove the legacy parser",
        "enable the oom reaper everywhere",
        config.contradiction_keywords,
        config.negation_cues,
        config.stopwords,
    )
    assert score == 0.0


def test_constant_zero_scorer_leaves_only_revert_edges(fixture_artifacts, config):
    graph = build_pipeline(fixture_artifacts, config)
    artifacts = {a.id: a for a in fixture_artifacts}
    d3 = graph.decisions[D3]
    d4 = graph.decisions[D4]
    assert detect_contradicts(d4, d3, artifacts, nli=lambda a, b: 0.0) is None
    edge = detect_contradicts(d3, graph.decisions[D1], artifacts, nli=lambda a, b: 0.0)
    assert edge is not None and edge.evidence[0].feature == REVERT_METADATA


def test_constant_one_scorer_contradicts_every_pair(fixture_artifacts, config):
    graph = build_pipeline(fixture_artifacts, config)
    artifacts = {a.id: a for a in fixture_artifacts}
    ordered = sorted(graph.decisions.values(), key=lambda d: d.timestamp)
    for earlier, later in itertools.combinations(ordered, 2):
        edge = detect_contradicts(later, earlier, artifacts, nli=lambda a, b: 1.0)
        assert edge is not None
        assert edge.score == 1.0


def test_default_heuristic_on_fixture_yields_exactly_the_two_revert_edges(fixture_graph):
    contradicts = {(e.from_id, e.to_id) for e in fixture_graph.relation_edges if e.kind == CONTRADICTS}
    assert contradicts == {(D3, D1), (D3, D2)}


def test_revert_contradiction_implies_parallel_history(fixture_graph):
    contradicts = {
        (e.from_id, e.to_id)
        for e in fixture_graph.relation_edges
        if e.kind == CONTRADICTS
        and any(ev.feature == REVERT_METADATA for ev in e.evidence)
    }
    history = {
        (e.from_id, e.to_id) for e in fixture_graph.relation_edges if e.kind == HISTORY
    }
    assert contradicts <= history


def test_history_edges_respect_timestamps(fixture_graph):
    for edge in fixture_graph.relation_edges:
        if edge.kind in (HISTORY, CONTRADICTS):
            assert (
                fixture_graph.decisions[edge.from_id].timestamp
                > fixture_graph.decisions[edge.to_id].timestamp
            )


def test_raising_thresholds_never_adds_edges(fixture_artifacts, config):
    from rdgraph.config import DEFAULTS, from_dict

    tighter_raw = {
        **DEFAULTS,
        "thresholds": {
            **DEFAULTS["thresholds"],
            "relatedness": 0.4,
            "similar": 0.5,
            "history": 0.9,
        },
    }
    loose = build_pipeline(fixture_artifacts, config)
    tight = build_pipeline(fixture_artifacts, from_dict(tighter_raw))
    loose_edges = {(e.kind, e.from_id, e.to_id) for e in loose.relation_edges}
    tight_edges = {(e.kind, e.from_id, e.to_id) for e in tight.relation_edges}
    assert tight_edges <= loose_edges
    assert len(tight.topics) >= len(loose.topics)


def test_evidence_weight_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        Evidence(feature=KEYWORD, detail="x", weight=0.0)


def _one_topic_corpus(n: int) -> list[Artifact]:
    rng = random.Random(11)
    words = ["alpha", "bravo", "delta", "gamma", "kilo", "lima", "oscar", "sierra"]
    artifacts = []
    for i in range(n):
        a, b = rng.sample(words, 2)
        verb = "remove" if i % 7 == 6 else "add"
        body = f"This keeps the {a} memory cache handler fast because {b} is not shared."
        artifacts.append(make_artifact(i, f"mm: {verb} {a} {b} memory cache handler", body))
    return artifacts


@pytest.fixture()
def vectorize_calls(monkeypatch):
    """Count vectorize calls by text, wherever the package calls it from."""
    calls: collections.Counter[str] = collections.Counter()
    original = textsim.vectorize

    def counting(model, text):
        calls[text] += 1
        return original(model, text)

    monkeypatch.setattr(textsim, "vectorize", counting)
    monkeypatch.setattr(relations, "vectorize", counting)
    return calls


def test_pair_work_vectorizes_each_text_once(vectorize_calls, config):
    artifacts = _one_topic_corpus(60)
    graph = build_pipeline(artifacts, config)
    (topic,) = graph.topics.values()
    n = len(topic.member_decision_ids)
    assert n == 60
    contexts = {normalized_text(a) for a in artifacts}
    docs = list(graph_documents(graph).values())
    # One call per distinct context and document, plus one per sentence in
    # title_topic; scoring every pair afresh would make about n * n calls.
    assert sum(vectorize_calls.values()) <= len(contexts) + len(set(docs)) + n

    vectorize_calls.clear()
    candidate = "add the alpha memory cache handler"
    check_new_decision(graph, candidate, TfIdfProvider(build_model(docs + [candidate])))
    assert vectorize_calls[candidate] == 1
    assert max(vectorize_calls.values()) == 1


def _reference_contradiction_score(later_text, earlier_text, keywords, negation_cues, stopwords):
    """The heuristic as written before sentence features were shared."""

    def tokens_of(text):
        return re.findall(r"[a-z0-9_']+", text.lower())

    def content(tokens):
        return {t for t in tokens if len(t) > 1 and t not in stopwords}

    def states(tokens):
        out = {}
        for i, token in enumerate(tokens):
            negated = any(
                tokens[j] in negation_cues or tokens[j].endswith("n't")
                for j in (i - 1, i - 2)
                if j >= 0
            )
            out.setdefault(token, set()).add(negated)
        return out

    later, earlier = tokens_of(later_text), tokens_of(earlier_text)
    best = (0.0, ())
    for keyword in sorted(keywords):
        if keyword in later:
            obj = content(later[later.index(keyword) + 1 :])
            if obj and jaccard(obj, content(earlier)) >= 0.3:
                best = (0.7, (Evidence(KEYWORD, keyword, 0.7),))
                break
    a_states, b_states = states(later), states(earlier)
    for token in sorted(content(later) & content(earlier)):
        a, b = a_states[token], b_states[token]
        if (True in a and False in b) or (False in a and True in b):
            best = (0.9, (Evidence(NEGATION_MISMATCH, token, 0.9),))
            break
    return best


_SENTENCE = st.lists(
    st.sampled_from(
        ["remove", "revert", "disable", "no", "not", "never", "don't", "isn't",
         "the", "oom", "reaper", "memory", "task", "a", "priority", "boost"]
    ),
    max_size=12,
).map(" ".join)


@given(_SENTENCE, _SENTENCE)
@settings(max_examples=200)
def test_contradiction_score_is_independent_of_the_feature_cache(config, a, b):
    args = (config.contradiction_keywords, config.negation_cues, config.stopwords)
    relations._sentence_features.cache_clear()
    forward = contradiction_score(a, b, *args)
    backward = contradiction_score(b, a, *args)
    relations._sentence_features.cache_clear()
    assert contradiction_score(b, a, *args) == backward
    assert contradiction_score(a, b, *args) == forward
    assert forward == _reference_contradiction_score(a, b, *args)
    assert backward == _reference_contradiction_score(b, a, *args)
