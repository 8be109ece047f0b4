from __future__ import annotations

import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_similarity
from rdgraph import build_model, default_config, similarity, tokenize
from rdgraph.textsim import TfIdfProvider, vectorize


@pytest.fixture(scope="module")
def stopwords():
    return default_config().stopwords


def test_tokenize_drops_stopwords_and_lowercases(stopwords):
    assert tokenize("Give the dying task a higher priority", stopwords) == [
        "give", "dying", "task", "higher", "priority",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_punctuation():
    assert tokenize("exit() soon") == ["exit", "soon"]


def test_tokenize_keeps_underscore_tokens():
    assert tokenize("remove boost_dying_task_prio()") == [
        "remove", "boost_dying_task_prio",
    ]


def test_tokenize_drops_single_characters():
    assert tokenize("a b cd") == ["cd"]


def test_build_model_single_doc_idf_is_one():
    model = build_model(["alpha beta"])
    assert model.doc_count == 1
    assert all(value == pytest.approx(1.0) for value in model.idf)


def test_build_model_token_in_all_docs_idf_is_one():
    model = build_model(["common alpha", "common beta", "common gamma"])
    assert model.idf[model.vocabulary["common"]] == pytest.approx(1.0)


def test_build_model_token_in_one_of_three_docs():
    model = build_model(["rare alpha", "beta beta", "gamma"])
    expected = math.log(4 / 2) + 1  # 1.693...
    assert model.idf[model.vocabulary["rare"]] == pytest.approx(expected)


def test_build_model_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        build_model([])


def test_similarity_identical_texts_is_exactly_one():
    model = build_model(["kernel thread reaps memory", "other words entirely"])
    assert similarity(model, "kernel thread reaps memory", "kernel thread reaps memory") == 1.0


def test_similarity_disjoint_vocabulary_is_zero():
    model = build_model(["alpha beta", "gamma delta"])
    assert similarity(model, "alpha beta", "gamma delta") == 0.0


def test_similarity_matches_hand_built_three_doc_corpus(stopwords):
    docs = [
        "reap memory from the dying task",
        "raise the priority of the dying task",
        "add a system call",
    ]
    model = build_model(docs, stopwords)
    got = similarity(model, docs[0], docs[1])
    expected = oracle_similarity(docs, 0, 1, stopwords)
    assert got == pytest.approx(expected, abs=1e-9)
    assert 0.0 < got < 1.0


def _random_corpus(rng: random.Random) -> list[str]:
    vocabulary = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 6)))
                  for _ in range(rng.randint(3, 12))]
    docs = []
    for _ in range(rng.randint(1, 5)):
        docs.append(" ".join(rng.choices(vocabulary, k=rng.randint(0, 30))))
    return docs


def test_similarity_agrees_with_oracle_on_randomized_corpora(stopwords):
    checked = 0
    for seed in range(25):
        rng = random.Random(seed)
        docs = _random_corpus(rng)
        model = build_model(docs, stopwords)
        for i in range(len(docs)):
            for j in range(len(docs)):
                got = similarity(model, docs[i], docs[j])
                expected = oracle_similarity(docs, i, j, stopwords)
                assert got == pytest.approx(expected, abs=1e-9)
                checked += 1
    assert checked > 100


def test_similarity_symmetry_is_exact():
    for seed in range(10):
        rng = random.Random(1000 + seed)
        docs = _random_corpus(rng)
        model = build_model(docs)
        for i in range(len(docs)):
            for j in range(len(docs)):
                assert similarity(model, docs[i], docs[j]) == similarity(
                    model, docs[j], docs[i]
                )


@given(st.data())
@settings(max_examples=100)
def test_similarity_range_property(data):
    words = st.sampled_from(["oom", "task", "memory", "priority", "exit", "reap"])
    docs = data.draw(st.lists(st.lists(words, max_size=10).map(" ".join), min_size=1, max_size=4))
    model = build_model(docs)
    a = data.draw(st.sampled_from(docs))
    b = data.draw(st.sampled_from(docs))
    score = similarity(model, a, b)
    assert 0.0 <= score <= 1.0


def test_duplicating_text_does_not_change_cosine():
    docs = ["reap the memory early", "raise the task priority", "memory priority tuning"]
    model = build_model(docs)
    base = similarity(model, docs[0], docs[2])
    doubled = similarity(model, docs[0] + " " + docs[0], docs[2])
    assert doubled == pytest.approx(base, abs=1e-12)


def test_unseen_tokens_are_ignored():
    model = build_model(["alpha beta", "beta gamma"])
    assert vectorize(model, "unseen words only") == {}
    assert similarity(model, "alpha unseen", "alpha other") > 0.0


def test_provider_wraps_model():
    model = build_model(["alpha beta", "gamma"])
    provider = TfIdfProvider(model)
    assert provider.score("alpha", "alpha") == 1.0


@given(st.data())
@settings(max_examples=100)
def test_memoised_provider_scores_equal_uncached_similarity(data):
    words = st.sampled_from(["oom", "task", "memory", "priority", "exit", "reap", "unseen"])
    text = st.lists(words, max_size=10).map(" ".join)
    docs = data.draw(st.lists(text, min_size=1, max_size=4))
    model = build_model(docs)
    texts = docs + data.draw(st.lists(text, max_size=2))
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(texts), st.sampled_from(texts)), min_size=1, max_size=12)
    )
    provider = TfIdfProvider(model)
    for a, b in pairs:
        expected = similarity(model, a, b)
        assert provider.score(a, b) == expected
        assert provider.score(b, a) == similarity(model, b, a)
        assert provider.score(a, b) == expected
        assert TfIdfProvider(model).score(a, b) == expected


@given(st.data())
@settings(max_examples=100)
def test_fitted_provider_equals_a_provider_over_build_model(data):
    words = st.sampled_from(["oom", "task", "Memory", "a", "the", "exit_now", "reap"])
    text = st.lists(words, max_size=10).map(" ".join)
    docs = data.draw(st.lists(text, min_size=1, max_size=5))
    docs += data.draw(st.lists(st.sampled_from(docs), max_size=2))  # duplicates
    stopwords = data.draw(st.sampled_from([frozenset(), frozenset({"the", "oom"})]))
    fitted = TfIdfProvider.fit(iter(docs), stopwords)
    assert fitted.model == build_model(docs, stopwords)
    reference = TfIdfProvider(build_model(docs, stopwords))
    texts = docs + data.draw(st.lists(text, max_size=2))
    for a in texts:
        for b in texts:
            assert fitted.score(a, b) == reference.score(a, b)


def test_fit_rejects_an_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        TfIdfProvider.fit([])
