from __future__ import annotations

import collections
import math
import random
import re
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import D1, D2, D3, D4, D5
from helpers import reference_detect_similar, reference_vectorize
from rdgraph import (
    build_pipeline,
    cluster_topics,
    default_config,
    detect_similar,
    pair_edges,
    title_topic,
)
from rdgraph import GraphError, pipeline, relations, save, textsim
from rdgraph import graph as graph_module
from rdgraph.corpus import Artifact, normalized_text
from rdgraph.decisions import Decision, strip_subsystem_prefix
from rdgraph.relations import (
    ACKED_BY,
    CONTRADICTS,
    EXPLICIT_REFERENCE,
    HISTORY,
    KEYWORD,
    NEGATION_MISMATCH,
    REVERT_METADATA,
    SAME_AUTHOR,
    SIMILAR,
    Evidence,
    RelationEdge,
    Topic,
    jaccard,
)
from rdgraph.textsim import TfIdfProvider
from rdgraph.validate import check_new_decision, graph_documents

EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def make_decision(n: int, text: str, author: str = "A <a@x>") -> Decision:
    return Decision(
        id=f"a{n}#0",
        text=text,
        artifact_id=f"a{n}",
        timestamp=EPOCH + timedelta(days=n),
        score=1.0,
        author=author,
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


def kind_edges(kind, later, earlier, artifacts, history=0.5, config=None):
    """The ``kind`` edges ``pair_edges`` gives one pair at a history threshold."""
    cfg = config or default_config()
    cfg = cfg._replace(thresholds=cfg.thresholds._replace(history=history))
    return [e for e in pair_edges(later, earlier, artifacts, cfg) if e.kind == kind]


def contradiction(later_text, earlier_text, keywords, negation_cues, stopwords):
    """The sentence rule over the feature records of two texts."""
    lexicons = (keywords, negation_cues, stopwords)
    return relations._contradiction(
        relations._sentence_features(later_text, *lexicons),
        relations._sentence_features(earlier_text, *lexicons),
    )


@pytest.fixture()
def provider():
    docs = [
        "reap the memory of the victim task",
        "reap the memory of the dying task",
        "tune the scheduler for latency",
        "rework the scheduler tick for latency",
    ]
    return TfIdfProvider.fit(docs), docs


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
    model = TfIdfProvider.fit([d.text for d in decisions]).model
    topic = Topic(id="t1", title="", member_decision_ids=("a0#0",))
    title = title_topic(topic, model, {"a0#0": "introduce oom reaper"})
    assert set(title.split()) <= {"introduce", "oom", "reaper"}
    assert len(title.split()) == 3


def test_fixture_topic_title_is_pinned(fixture_graph):
    (topic,) = fixture_graph.topics.values()
    assert topic.title == "oom introduce mm"


def test_empty_member_texts_give_empty_title():
    model = TfIdfProvider.fit(["filler corpus text"]).model
    topic = Topic(id="t1", title="", member_decision_ids=("a0#0",))
    assert title_topic(topic, model, {"a0#0": ""}) == ""


def _reference_title(topic, model, texts):
    """``title_topic`` as it was when each call inverted the vocabulary."""
    index_to_token = {i: t for t, i in model.vocabulary.items()}
    totals = {}
    for member in topic.member_decision_ids:
        for index, weight in reference_vectorize(model, texts[member]).items():
            token = index_to_token[index]
            totals[token] = totals.get(token, 0.0) + weight
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return " ".join(token for token, _ in ranked[:3])


_TITLE_TEXTS = st.lists(
    st.sampled_from(["reap", "memory", "task", "tick", "latency", "oom", "the", "unseen"]),
    max_size=8,
).map(" ".join)


@given(corpus=st.lists(_TITLE_TEXTS, min_size=1, max_size=4), members=st.lists(_TITLE_TEXTS, max_size=5))
@settings(max_examples=200)
def test_topic_title_equals_the_per_topic_inversion(corpus, members):
    model = TfIdfProvider.fit(corpus, frozenset({"the"})).model
    texts = {f"a{n}#0": text for n, text in enumerate(members)}
    topic = Topic(id="t1", title="", member_decision_ids=tuple(texts))
    assert title_topic(topic, model, texts) == _reference_title(topic, model, texts)


def test_titles_of_singleton_topics_take_linear_time():
    # Inverting the whole vocabulary for each topic took 2.75 s for 1,600
    # singleton topics of unrelated commits; a title reads only its tokens.
    n = 6_000
    texts = {f"a{k}#0": f"w{k}a w{k}b" for k in range(n)}
    model = TfIdfProvider.fit(texts.values()).model
    started = time.perf_counter()
    titles = [
        title_topic(Topic(id=f"t{k}", title="", member_decision_ids=(m,)), model, texts)
        for k, m in enumerate(texts)
    ]
    assert time.perf_counter() - started < 1.0
    assert titles[7] == "w7a w7b"


def test_identical_decision_texts_make_a_similar_edge_with_score_one(provider):
    scorer, _ = provider
    decisions = [make_decision(0, "reap the memory"), make_decision(1, "reap the memory")]
    documents = {d.id: d.text for d in decisions}
    (edge,) = detect_similar(decisions, scorer, 0.99, documents)
    assert edge.kind == SIMILAR
    assert edge.score == 1.0
    assert edge.from_id < edge.to_id
    assert edge.evidence == ()


@pytest.mark.parametrize(
    "score, message",
    [
        (0.0, "evidence weight must be positive"),
        (-0.5, "evidence weight must be positive"),
        (-math.inf, "evidence weight must be positive"),
        (math.nan, "evidence weight must be finite, got nan"),
        (math.inf, "evidence weight must be finite, got inf"),
    ],
    ids=["zero", "negative", "-inf", "nan", "inf"],
)
def test_similar_edge_refuses_a_score_its_evidence_could_not_weigh(score, message):
    """A similar edge's score stands for its one evidence record, so the graph
    decoder refuses a score that record could not weigh, with its message."""
    record = {"from": "a0#0", "kind": SIMILAR, "score": score, "to": "a1#0"}
    with pytest.raises(GraphError) as info:
        graph_module._edge(record, 0)
    assert str(info.value) == f"edges[0].score: {message}"


def test_fixture_has_the_one_similar_edge(fixture_graph):
    similar = [e for e in fixture_graph.relation_edges if e.kind == SIMILAR]
    assert [(e.from_id, e.to_id) for e in similar] == [(D2, D1)]  # canonical order


def test_no_similar_edges_below_threshold(provider):
    scorer, docs = provider
    decisions = [make_decision(0, docs[0]), make_decision(1, docs[2])]
    documents = {d.id: d.text for d in decisions}
    assert detect_similar(decisions, scorer, 0.5, documents) == []


def test_pairs_reach_only_pairs_sharing_a_token_in_order():
    provider = TfIdfProvider.fit(["reap memory", "tune tick", "the of"], frozenset({"the", "of"}))
    texts = ["reap memory", "tune tick", "memory reap", "", "the of", "reap tick"]
    pairs = list(provider.pairs(texts, 0.0))
    assert [(i, j) for i, j, _ in pairs] == [(0, 2), (0, 5), (1, 5), (2, 5)]
    assert pairs[0][2] == 1.0  # equal vectors, whatever the word order
    assert all(score == provider.score(texts[i], texts[j]) for i, j, score in pairs)
    # A threshold keeps the pairs that reach it, equal scores included.
    assert list(provider.pairs(texts, 1.0)) == [(0, 2, 1.0)]
    cut = pairs[1][2]
    assert list(provider.pairs(texts, cut)) == [p for p in pairs if p[2] >= cut]


_JOIN_DOCS = st.lists(
    st.sampled_from(["reap", "memory", "task", "tick", "latency", "the", "of"]),
    max_size=6,
).map(" ".join)


@given(
    corpus=st.lists(_JOIN_DOCS, min_size=1, max_size=5),
    docs=st.lists(_JOIN_DOCS, max_size=10),
    repeats=st.lists(st.integers(0, 9), max_size=4),
    order=st.randoms(use_true_random=False),
    threshold=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_similar_join_matches_the_all_pairs_loop(corpus, docs, repeats, order, threshold):
    # Duplicates, empty and stopword-only documents, and words the model has
    # not seen (half the documents are left out of its corpus) all occur.
    docs = docs + [docs[k % len(docs)] for k in repeats if docs]
    numbers = list(range(len(docs)))
    order.shuffle(numbers)
    decisions = [make_decision(n, doc) for n, doc in zip(numbers, docs)]
    documents = {d.id: d.text for d in decisions}
    provider = TfIdfProvider.fit(corpus + docs[::2], frozenset({"the", "of"}))
    expected = reference_detect_similar(decisions, provider, threshold, documents)
    assert detect_similar(decisions, provider, threshold, documents) == expected


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
        pair_edges(earlier, later, artifacts, default_config())


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
    assert kind_edges(HISTORY, later, earlier, artifacts, 0.5) == []


def test_same_author_alone_is_below_the_default_threshold():
    artifacts = {a.id: a for a in [make_artifact(0, "s: one"), make_artifact(1, "s: two")]}
    earlier = make_decision(0, "s: one")
    later = make_decision(1, "s: two")
    assert kind_edges(HISTORY, later, earlier, artifacts, 0.5) == []
    (edge,) = kind_edges(HISTORY, later, earlier, artifacts, 0.1)
    assert [e.feature for e in edge.evidence] == [SAME_AUTHOR]
    assert edge.score == pytest.approx(0.1)


def test_acked_by_evidence():
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "s: one", author="A <a@x>"),
            make_artifact(
                1, "s: two", trailers={"Acked-by": ("A <a@x>",)}, author="B <b@x>"
            ),
        ]
    }
    earlier = make_decision(0, "s: one", author="A <a@x>")
    later = make_decision(1, "s: two", author="B <b@x>")
    assert kind_edges(HISTORY, later, earlier, artifacts, 0.3) == []
    (edge,) = kind_edges(HISTORY, later, earlier, artifacts, 0.2)
    assert [e.feature for e in edge.evidence] == [ACKED_BY]
    assert edge.score == pytest.approx(0.2)


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
    assert kind_edges(HISTORY, later, earlier, artifacts, 0.5) == []


_HEX_DIGITS = "0123456789abcdef"
_WORD_PIECE = st.one_of(
    st.sampled_from([6, 7, 40, 41]).flatmap(
        lambda n: st.text(_HEX_DIGITS, min_size=n, max_size=n)
    ),
    st.text(_HEX_DIGITS.upper(), min_size=7, max_size=8),
    st.sampled_from(["_", "7", "x", "é", "ß", "٣", " ", "-", ".", "\n", "/"]),
)


@given(st.lists(_WORD_PIECE, max_size=12).map("".join))
@example("deadbee_ deadbeef é1234567 1234567٣ cafe42 " + "a" * 40 + " " + "b" * 41)
@settings(max_examples=300)
def test_word_runs_hex_tokens_are_the_hex_words(text):
    reference = set(re.findall(r"\b[0-9a-f]{7,40}\b", text))
    assert relations._word_runs(text)[1] == reference


def test_contradicts_via_revert_metadata(fixture_graph):
    contradicts = [e for e in fixture_graph.relation_edges if e.kind == CONTRADICTS]
    assert {(e.from_id, e.to_id) for e in contradicts} == {(D3, D1), (D3, D2)}
    for edge in contradicts:
        assert edge.score == 1.0
        assert [e.feature for e in edge.evidence] == [REVERT_METADATA]


def test_contradicts_via_revert_summary_form(config):
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "mm: add the fast path"),
            make_artifact(1, 'Revert "mm: add the fast path"', "It broke the slow path."),
        ]
    }
    earlier = make_decision(0, "mm: add the fast path")
    later = make_decision(1, 'Revert "mm: add the fast path"')
    (edge,) = kind_edges(CONTRADICTS, later, earlier, artifacts, config=config)
    assert edge.evidence[0].feature == REVERT_METADATA


def test_revert_below_the_history_threshold_takes_the_contradicts_edge(config):
    # The summary form is the only history evidence (0.5): the body names no
    # summary or id, and the authors differ.
    artifacts = {
        a.id: a
        for a in [
            make_artifact(0, "mm: add the fast path", author="A <a@x>"),
            make_artifact(
                1, 'Revert "mm: add the fast path"', "It broke the slow path.", author="B <b@x>"
            ),
        ]
    }
    earlier = make_decision(0, "mm: add the fast path", author="A <a@x>")
    later = make_decision(1, 'Revert "mm: add the fast path"', author="B <b@x>")
    revert = Evidence(REVERT_METADATA, "a1 reverts a0", 1.0)
    (contra,) = kind_edges(CONTRADICTS, later, earlier, artifacts, 0.6, config)
    assert contra == RelationEdge(CONTRADICTS, later.id, earlier.id, 1.0, (revert,))
    (fallback,) = kind_edges(HISTORY, later, earlier, artifacts, 0.6, config)
    assert fallback == RelationEdge(HISTORY, later.id, earlier.id, 1.0, (revert,))
    # At 0.5 the evidence itself reaches the threshold, at its own weight.
    (history,) = kind_edges(HISTORY, later, earlier, artifacts, 0.5, config)
    assert history.score == 0.5
    assert history.evidence == (revert._replace(weight=0.5),)
    # A build keeps both edges of the pair.
    cfg = config._replace(thresholds=config.thresholds._replace(history=0.6))
    graph = build_pipeline(artifacts.values(), cfg)
    assert {contra, fallback} <= set(graph.relation_edges)


def test_a_build_reads_each_candidate_pair_for_a_revert_once(
    monkeypatch, fixture_artifacts, config
):
    counts: collections.Counter[str] = collections.Counter()
    real_pairs, real_revert = pipeline.candidate_pairs, relations._revert_metadata

    def counting_pairs(*args):
        found = real_pairs(*args)
        counts["pairs"] += len(found)
        return found

    def counting_revert(*args):
        counts["revert"] += 1
        return real_revert(*args)

    monkeypatch.setattr(pipeline, "candidate_pairs", counting_pairs)
    monkeypatch.setattr(relations, "_revert_metadata", counting_revert)
    low = config._replace(thresholds=config.thresholds._replace(history=0.3))
    for artifacts, cfg in [(fixture_artifacts, config), (_one_topic_corpus(30), low)]:
        counts.clear()
        build_pipeline(artifacts, cfg)
        assert 0 < counts["revert"] == counts["pairs"]


def test_contradiction_pair_from_negation_mismatch(config):
    score, evidence = contradiction(
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
    score, evidence = contradiction(
        "We need this feature",
        "We need this feature",
        config.contradiction_keywords,
        config.negation_cues,
        config.stopwords,
    )
    assert score == 0.0
    assert evidence == ()


def test_keyword_rule_fires_on_object_overlap(config):
    score, evidence = contradiction(
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
    score, _ = contradiction(
        "remove the legacy parser",
        "enable the oom reaper everywhere",
        config.contradiction_keywords,
        config.negation_cues,
        config.stopwords,
    )
    assert score == 0.0


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


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_evidence_weight_must_be_finite(weight):
    with pytest.raises(ValueError) as info:
        Evidence(feature=KEYWORD, detail="x", weight=weight)
    assert str(info.value) == f"evidence weight must be finite, got {weight!r}"


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
def tokenize_calls(monkeypatch):
    """Count token_counts calls by text, wherever the package calls it from."""
    calls: collections.Counter[str] = collections.Counter()
    original = textsim.token_counts

    def counting(text, *args):
        calls[text] += 1
        return original(text, *args)

    monkeypatch.setattr(textsim, "token_counts", counting)
    monkeypatch.setattr(relations, "token_counts", counting)
    return calls


def test_pair_work_vectorizes_each_text_once(tokenize_calls, config):
    artifacts = _one_topic_corpus(60)
    graph = build_pipeline(artifacts, config)
    (topic,) = graph.topics.values()
    n = len(topic.member_decision_ids)
    assert n == 60
    contexts = {normalized_text(a) for a in artifacts}
    docs = list(graph_documents(graph).values())
    # One call per distinct context and document, plus one per sentence in
    # title_topic; scoring every pair afresh would make about n * n calls.
    assert sum(tokenize_calls.values()) <= len(contexts) + len(set(docs)) + n

    tokenize_calls.clear()
    candidate = "add the alpha memory cache handler"
    check_new_decision(graph, candidate, config)
    # The fit tokenizes each distinct document and the candidate, and their
    # vectors come from those token counts.
    assert tokenize_calls == collections.Counter(set(docs) | {candidate})


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
    forward = contradiction(a, b, *args)
    backward = contradiction(b, a, *args)
    relations._sentence_features.cache_clear()
    assert contradiction(b, a, *args) == backward
    assert contradiction(a, b, *args) == forward
    assert forward == _reference_contradiction_score(a, b, *args)
    assert backward == _reference_contradiction_score(b, a, *args)


# The config's lexicons; a keyword that is also a stopword; negation cues
# matched only by the "n't" suffix; and no keywords at all.
_LEXICONS = st.sampled_from(
    [
        None,
        (frozenset({"the", "remove"}), frozenset({"no"}), frozenset({"the", "oom"})),
        (frozenset({"revert", "memory"}), frozenset(), frozenset({"the"})),
        (frozenset(), frozenset({"not", "never"}), frozenset()),
    ]
)


@given(_SENTENCE, _SENTENCE, _LEXICONS)
@settings(max_examples=300)
def test_feature_record_rule_equals_the_reference_both_ways(config, a, b, lexicons):
    args = lexicons or (config.contradiction_keywords, config.negation_cues, config.stopwords)
    fa, fb = relations._sentence_features(a, *args), relations._sentence_features(b, *args)
    assert relations._contradiction(fa, fb) == _reference_contradiction_score(a, b, *args)
    assert relations._contradiction(fb, fa) == _reference_contradiction_score(b, a, *args)
    # pair_edges reads the config's lexicons into the same rule.
    keywords, cues, stopwords = args
    cfg = config._replace(contradiction_keywords=keywords, negation_cues=cues, stopwords=stopwords)
    later, earlier = make_decision(1, a), make_decision(0, b)
    artifacts = {x.id: x for x in [make_artifact(0, "s: one"), make_artifact(1, "s: two")]}
    score, evidence = _reference_contradiction_score(a, b, *args)
    expected = [RelationEdge(CONTRADICTS, later.id, earlier.id, score, evidence)] if score else []
    assert kind_edges(CONTRADICTS, later, earlier, artifacts, config=cfg) == expected


def test_relation_stage_scores_only_candidate_pairs(monkeypatch, config):
    calls: collections.Counter[str] = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "pair_edges", counting("pair_edges", pipeline.pair_edges))
    artifacts = _one_topic_corpus(60)
    graph = build_pipeline(artifacts, config)
    (topic,) = graph.topics.values()
    n = len(topic.member_decision_ids)
    edges = sum(e.kind in (HISTORY, CONTRADICTS) for e in graph.relation_edges)
    # All ordered pairs would be n * (n - 1) / 2 = 1770 calls.
    assert 0 < calls["pair_edges"] <= 4 * (edges + n)

    class CountingProvider(TfIdfProvider):
        def score(self, text_a, text_b):
            calls["score"] += 1
            return super().score(text_a, text_b)

    texts = {a.id: normalized_text(a) for a in artifacts}
    decisions = list(graph.decisions.values())
    contexts = {d.id: texts[d.artifact_id] for d in decisions}
    provider = CountingProvider.fit(texts.values(), config.stopwords)
    topics = cluster_topics(decisions, provider, config.thresholds.relatedness, contexts)
    assert [t.member_decision_ids for t in topics] == [topic.member_decision_ids]
    # Pairs already in one component are skipped: at most 4n of 1770.
    assert calls["score"] <= 4 * n


def _all_ordered_pairs(members, artifacts, config):
    """The relation loop as written before candidate indices: every strictly
    time-ordered pair of a topic."""
    ordered = sorted(members, key=lambda d: (d.timestamp, d.id))
    return [
        (later, earlier)
        for i, earlier in enumerate(ordered)
        for later in ordered[i + 1 :]
        if later.timestamp > earlier.timestamp
    ]


def _union_find_topics(decisions, provider, relatedness_threshold, contexts):
    """Single-link clustering as written before components were skipped:
    every pair is scored, roots are the smallest id."""
    parent = {d.id: d.id for d in decisions}

    def find(key):
        while parent[key] != key:
            key = parent[key]
        return key

    ordered = sorted(decisions, key=lambda d: d.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if provider.score(contexts[a.id], contexts[b.id]) >= relatedness_threshold:
                low, high = sorted((find(a.id), find(b.id)))
                parent[high] = low
    groups = {}
    for decision in ordered:
        groups.setdefault(find(decision.id), []).append(decision)
    components = sorted(
        (sorted(ms, key=lambda d: (d.timestamp, d.id)) for ms in groups.values()),
        key=lambda ms: (ms[0].timestamp, ms[0].id),
    )
    return [
        Topic(id=f"t{n}", title="", member_decision_ids=tuple(d.id for d in ms))
        for n, ms in enumerate(components, start=1)
    ]


_WORDS = ["add", "remove", "revert", "disable", "use", "cache", "reaper", "oom",
          "task", "memory", "the", "of", "no", "not", "never", "don't", "without"]
_AUTHORS = ["A <a@x>", "B <b@x>", "A", ""]
# Six- and seven-character prefixes that several ids share.
_ID_HEADS = ["a1b2c3d", "a1b2c3e", "0f0f0f0"]


@st.composite
def _relation_corpora(draw):
    """Artifacts whose summaries, bodies and trailers name each other in
    every way the history and contradicts evidence reads."""
    phrase = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join)
    artifacts = []
    for i in range(draw(st.integers(min_value=2, max_value=7))):
        if draw(st.booleans()):
            aid = draw(st.sampled_from(_ID_HEADS)) + f"{i:033x}"
        else:
            aid = f"m{i}"
        earlier = draw(st.sampled_from(artifacts)) if artifacts else None

        def ref(text):
            """``text`` with {id} and {summary} filled from an earlier artifact."""
            if earlier is None:
                return draw(phrase)
            cut = draw(st.sampled_from([6, 7, 40]))
            summary = draw(st.sampled_from([earlier.summary, strip_subsystem_prefix(earlier.summary)]))
            return text.format(id=earlier.id[:cut], summary=summary)

        summary = draw(
            st.one_of(
                phrase,
                phrase.map(lambda p: f"mm, oom: {p}"),
                st.sampled_from(["fix", "oom:", "", "mm: x"]),
                st.just('Revert "{summary}"').map(ref),
                st.just("{summary} again").map(ref),
            )
        )
        lines = draw(
            st.lists(
                st.one_of(
                    phrase.map(lambda p: p.capitalize() + "."),
                    st.sampled_from(
                        [
                            "This reverts commit {id}.",
                            'This reverts commit {id} ("{summary}").',
                            "Follow-up to {summary}, see {id}.",
                            "{summary}",
                        ]
                    ).map(ref),
                ),
                max_size=4,
            )
        )
        trailers = {}
        acked = draw(st.lists(st.sampled_from(_AUTHORS + ["Someone <a@x>"]), max_size=2))
        if acked:
            trailers["Acked-by"] = tuple(acked)
        if draw(st.booleans()):
            trailers["Fixes"] = (ref('{id} ("{summary}")'),)
        artifacts.append(
            Artifact(
                id=aid,
                uri=f"git:{aid}",
                author=draw(st.sampled_from(_AUTHORS)),
                timestamp=EPOCH + timedelta(days=draw(st.integers(min_value=0, max_value=3))),
                summary=summary,
                body=" ".join(lines),
                trailers=trailers,
                kind="commit",
            )
        )
    return artifacts


def _lexicon(draw_from):
    return st.lists(st.sampled_from(draw_from), min_size=1, max_size=4, unique=True)


def _indexed_and_all_pairs(artifacts, cfg):
    """Graphs built with the candidate indices and with the all-pairs loop."""
    indexed = build_pipeline(artifacts, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "candidate_pairs", _all_ordered_pairs)
        mp.setattr(pipeline, "cluster_topics", _union_find_topics)
        reference = build_pipeline(artifacts, cfg)
    return indexed, reference


def _relation_config(history, relatedness=0.0, keywords=None, cues=None, stopwords=None):
    from rdgraph.config import DEFAULTS, from_dict

    lexicons = DEFAULTS["lexicons"]
    return from_dict(
        {
            **DEFAULTS,
            # A body sentence opening with an action verb is a decision too,
            # so artifacts carry several decisions.
            "thresholds": {
                **DEFAULTS["thresholds"],
                "decision": 0.3,
                "history": history,
                "relatedness": relatedness,
            },
            "lexicons": {
                **lexicons,
                "contradiction_keywords": keywords or lexicons["contradiction_keywords"],
                "negation_cues": cues or lexicons["negation_cues"],
                "stopwords": stopwords or lexicons["stopwords"],
            },
        }
    )


@given(
    _relation_corpora(),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.2 + 0.1, 0.5, 1.0]),
    st.sampled_from([0.0, 0.05, 0.12, 0.5]),
    _lexicon(["revert", "remove", "disable", "cache", "add"]),
    _lexicon(["no", "not", "never", "n't", "without"]),
    _lexicon(["the", "of", "a", "cache", "not"]),
)
@settings(max_examples=300, deadline=None)
def test_indexed_relations_equal_all_pairs(artifacts, history, relatedness, keywords, cues, stopwords):
    cfg = _relation_config(history, relatedness, keywords, cues, stopwords)
    indexed, reference = _indexed_and_all_pairs(artifacts, cfg)
    assert {t.member_decision_ids for t in indexed.topics.values()} == {
        t.member_decision_ids for t in reference.topics.values()
    }
    assert set(indexed.relation_edges) == set(reference.relation_edges)
    assert save(indexed) == save(reference)


def _pair(earlier_summary, later_summary, earlier_body="", later_body="", later_trailers=None,
          later_author="B <b@x>", earlier_id="m0"):
    def artifact(aid, day, summary, body, trailers, author):
        return Artifact(
            id=aid, uri=f"git:{aid}", author=author, timestamp=EPOCH + timedelta(days=day),
            summary=summary, body=body, trailers=trailers or {}, kind="commit",
        )

    return [
        artifact(earlier_id, 0, earlier_summary, earlier_body, None, "A <a@x>"),
        artifact("m1", 1, later_summary, later_body, later_trailers, later_author),
    ]


_HEX_ID = "a1b2c3d4e5f60718293a4b5c6d7e8f9012345678"


@pytest.mark.parametrize(
    "artifacts, history",
    [
        (_pair("add the cache", "use the reaper", later_body=f"This reverts commit {_HEX_ID[:7]}.",
               earlier_id=_HEX_ID), 0.5),
        # "add" is no whole word of the later body, so only "cache" can find it.
        (_pair("add cache oom", "use the reaper", later_body="Readd cache oom."), 0.5),
        (_pair("mm: add cache oom", "use the reaper", later_body="Follow-up to add cache oom, again."), 0.5),
        (_pair("oom:", "use the reaper", earlier_body="Add the cache.", later_body="See oom: above."), 0.5),
        (_pair("add the cache", "use the reaper", later_trailers={"Acked-by": ("A <a@x>",)},
               later_author="A <a@x>"), 0.2 + 0.1),
        (_pair("add the cache", "remove the cache"), 0.5),
        (_pair("add the cache", "use no cache"), 0.5),
        (_pair("add no cache oom", "use the cache"), 0.5),
    ],
    ids=["reverts-id-prefix", "summary-inside-a-word", "prefix-stripped-summary",
         "summary-without-interior-word", "acked-and-same-author", "keyword",
         "later-negated", "earlier-negated"],
)
def test_each_way_to_a_relation_edge_is_a_candidate(artifacts, history):
    indexed, reference = _indexed_and_all_pairs(artifacts, _relation_config(history))
    assert any(e.kind in (HISTORY, CONTRADICTS) for e in reference.relation_edges)
    assert indexed.relation_edges == reference.relation_edges
