from __future__ import annotations

import math
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_similarity,
    reference_model,
    reference_tokens,
    reference_vectorize,
)
from rdgraph import default_config, textsim
from rdgraph.textsim import TfIdfModel, TfIdfProvider, _with_norm, token_counts


@pytest.fixture(scope="module")
def stopwords():
    return default_config().stopwords


def test_tokenize_drops_stopwords_and_lowercases(stopwords):
    counts = token_counts("Give the dying task a higher priority, the task", stopwords)
    assert list(counts.items()) == [
        ("give", 1), ("dying", 1), ("task", 2), ("higher", 1), ("priority", 1),
    ]


def test_stopwords_are_always_given():
    # Every command passes the config's list; frozenset() means none.
    with pytest.raises(TypeError):
        token_counts("reap the memory")
    with pytest.raises(TypeError):
        TfIdfProvider.fit(["reap the memory"])
    with pytest.raises(TypeError):
        TfIdfModel(vocabulary={}, idf=(), doc_count=0)


def test_tokenize_empty():
    assert token_counts("", frozenset()) == {}


def test_tokenize_splits_on_punctuation():
    assert token_counts("exit() soon", frozenset()) == {"exit": 1, "soon": 1}


def test_tokenize_keeps_underscore_tokens():
    assert list(token_counts("remove boost_dying_task_prio()", frozenset())) == [
        "remove", "boost_dying_task_prio",
    ]


def test_tokenize_drops_single_characters():
    assert token_counts("a b cd a", frozenset()) == {"cd": 1}


_STOPWORD_SETS = st.sampled_from(
    [frozenset(), frozenset({"the", "ab"}), default_config().stopwords]
)
# ASCII token and non-token characters, whitespace str.split splits on, and
# non-ASCII letters whose case mappings touch ASCII: İ lowers to "i" and a
# combining dot, ſ uppercases to "S", the Kelvin sign lowers to "k".
_TOKEN_TEXTS = (
    st.text(
        alphabet=string.ascii_letters + string.digits + "_" + string.punctuation
        + " \t\n\x1c\u00a0" + "\u0130\u017f\u212a\u00df\u00e9",
        max_size=40,
    )
    | st.lists(
        st.sampled_from(["the", "ab", "of", "a", "x", "AB", "The", ""]), max_size=6
    ).map(" ".join)  # stopword-only and empty texts
    | st.text()
)


@given(text=_TOKEN_TEXTS, stopwords=_STOPWORD_SETS)
@example(text="", stopwords=frozenset())
@example(text="\u212a", stopwords=frozenset())  # Kelvin sign: lowers to ASCII "k"
@example(text="\u212aa", stopwords=frozenset())
@example(text="\u0130x", stopwords=frozenset())  # lowers to "i" + a combining dot
@example(text="\ud800ab", stopwords=frozenset())  # a lone surrogate
@example(text="a\x1cb", stopwords=frozenset())  # whitespace to str.split
@example(text="ab\x1ccd", stopwords=frozenset())
@example(text="a\u00a0b", stopwords=frozenset())
@example(text="\u00df", stopwords=frozenset())  # lowers to itself, upper is "SS"
@example(text="the ab The AB", stopwords=frozenset({"the", "ab"}))  # only stopwords
@example(text="x ab y cd ab z", stopwords=frozenset())  # dropped keys between kept ones
@settings(max_examples=500)
def test_tokenize_equals_the_token_regex(text, stopwords):
    # Counted by a loop over the regex tokens, so keys keep first-occurrence
    # order, which matches relies on when it sums its bound.
    expected: dict[str, int] = {}
    for token in reference_tokens(text, stopwords):
        expected[token] = expected.get(token, 0) + 1
    assert list(token_counts(text, stopwords).items()) == list(expected.items())


@given(
    docs=st.lists(st.text(alphabet="ab \u212a_.", max_size=12), min_size=1, max_size=4),
    texts=st.lists(st.text(max_size=30) | st.text(alphabet="ab \u212a_.", max_size=12), max_size=4),
    stopwords=st.sampled_from([frozenset(), frozenset({"ab"})]),
)
@settings(max_examples=200)
def test_vectorize_equals_the_per_token_count_loop(docs, texts, stopwords):
    # Fitted texts are vectorized from the fit's token counts, others afresh.
    provider = TfIdfProvider.fit(docs, stopwords)
    for text in docs + texts:
        got = provider._lookup(text)[0]
        expected = reference_vectorize(provider.model, text)
        assert got == expected
        assert list(got) == list(expected)


def test_build_model_single_doc_idf_is_one():
    model = TfIdfProvider.fit(["alpha beta"], frozenset()).model
    assert model.doc_count == 1
    assert all(value == pytest.approx(1.0) for value in model.idf)


def test_build_model_token_in_all_docs_idf_is_one():
    model = TfIdfProvider.fit(["common alpha", "common beta", "common gamma"], frozenset()).model
    assert model.idf[model.vocabulary["common"]] == pytest.approx(1.0)


def test_build_model_token_in_one_of_three_docs():
    model = TfIdfProvider.fit(["rare alpha", "beta beta", "gamma"], frozenset()).model
    expected = math.log(4 / 2) + 1  # 1.693...
    assert model.idf[model.vocabulary["rare"]] == pytest.approx(expected)


def test_build_model_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        TfIdfProvider.fit(iter(()), frozenset())  # an iterator that yields nothing


def test_similarity_identical_texts_is_exactly_one():
    provider = TfIdfProvider.fit(["kernel thread reaps memory", "other words entirely"], frozenset())
    assert provider.score("kernel thread reaps memory", "kernel thread reaps memory") == 1.0


def test_similarity_disjoint_vocabulary_is_zero():
    provider = TfIdfProvider.fit(["alpha beta", "gamma delta"], frozenset())
    assert provider.score("alpha beta", "gamma delta") == 0.0


def test_similarity_matches_hand_built_three_doc_corpus(stopwords):
    docs = [
        "reap memory from the dying task",
        "raise the priority of the dying task",
        "add a system call",
    ]
    got = TfIdfProvider.fit(docs, stopwords).score(docs[0], docs[1])
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
        provider = TfIdfProvider.fit(docs, stopwords)
        for i in range(len(docs)):
            for j in range(len(docs)):
                got = provider.score(docs[i], docs[j])
                expected = oracle_similarity(docs, i, j, stopwords)
                assert got == pytest.approx(expected, abs=1e-9)
                checked += 1
    assert checked > 100


def test_similarity_symmetry_is_exact():
    for seed in range(10):
        rng = random.Random(1000 + seed)
        docs = _random_corpus(rng)
        provider = TfIdfProvider.fit(docs, frozenset())
        for i in range(len(docs)):
            for j in range(len(docs)):
                assert provider.score(docs[i], docs[j]) == provider.score(docs[j], docs[i])


@given(st.data())
@settings(max_examples=100)
def test_similarity_range_property(data):
    words = st.sampled_from(["oom", "task", "memory", "priority", "exit", "reap"])
    docs = data.draw(st.lists(st.lists(words, max_size=10).map(" ".join), min_size=1, max_size=4))
    provider = TfIdfProvider.fit(docs, frozenset())
    a = data.draw(st.sampled_from(docs))
    b = data.draw(st.sampled_from(docs))
    score = provider.score(a, b)
    assert 0.0 <= score <= 1.0


def test_duplicating_text_does_not_change_cosine():
    docs = ["reap the memory early", "raise the task priority", "memory priority tuning"]
    provider = TfIdfProvider.fit(docs, frozenset())
    base = provider.score(docs[0], docs[2])
    doubled = provider.score(docs[0] + " " + docs[0], docs[2])
    assert doubled == pytest.approx(base, abs=1e-12)


def test_unseen_tokens_are_ignored():
    provider = TfIdfProvider.fit(["alpha beta", "beta gamma"], frozenset())
    assert provider._lookup("unseen words only") == ({}, 0.0)
    assert provider.score("alpha unseen", "alpha other") > 0.0


def test_provider_wraps_model():
    provider = TfIdfProvider(reference_model(["alpha beta", "gamma"]))
    assert provider.score("alpha", "alpha") == 1.0


@given(st.data())
@settings(max_examples=100)
def test_memoised_provider_scores_equal_uncached_similarity(data):
    words = st.sampled_from(["oom", "task", "memory", "priority", "exit", "reap", "unseen"])
    text = st.lists(words, max_size=10).map(" ".join)
    docs = data.draw(st.lists(text, min_size=1, max_size=4))
    model = TfIdfProvider.fit(docs, frozenset()).model
    texts = docs + data.draw(st.lists(text, max_size=2))
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(texts), st.sampled_from(texts)), min_size=1, max_size=12)
    )
    provider = TfIdfProvider(model)
    for a, b in pairs:
        # A provider's first score of a pair is uncached.
        expected = TfIdfProvider(model).score(a, b)
        assert provider.score(a, b) == expected
        assert provider.score(b, a) == TfIdfProvider(model).score(b, a)
        assert provider.score(a, b) == expected


@given(st.data())
@settings(max_examples=100)
def test_fitted_provider_equals_a_provider_over_build_model(data):
    words = st.sampled_from(["oom", "task", "Memory", "a", "the", "exit_now", "reap"])
    text = st.lists(words, max_size=10).map(" ".join) | _TOKEN_TEXTS
    docs = data.draw(st.lists(text, min_size=1, max_size=5))
    docs += data.draw(st.lists(st.sampled_from(docs), max_size=2))  # duplicates
    stopwords = data.draw(
        st.sampled_from([frozenset(), frozenset({"the", "oom"}), default_config().stopwords])
    )
    fitted = TfIdfProvider.fit(iter(docs), stopwords)
    assert fitted.model == reference_model(docs, stopwords)
    reference = TfIdfProvider(reference_model(docs, stopwords))
    texts = docs + data.draw(st.lists(text, max_size=2))
    for a in texts:
        for b in texts:
            assert fitted.score(a, b) == reference.score(a, b)


def test_fit_rejects_an_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        TfIdfProvider.fit([], frozenset())


_PAIR_TEXTS = st.lists(
    st.sampled_from(["reap", "memory", "task", "tick", "latency", "the", "of"]),
    max_size=6,
).map(" ".join)


@given(
    corpus=st.lists(_PAIR_TEXTS, min_size=1, max_size=5),
    texts=st.lists(_PAIR_TEXTS, max_size=10),
    repeats=st.lists(st.integers(0, 9), max_size=4),
    threshold=st.one_of(
        st.sampled_from([0.0, 1.0, math.nextafter(1.0, 2.0), -0.5, math.nan]),
        st.floats(0.0, 1.0),
    ),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_pairs_equal_the_brute_force_score_loop(corpus, texts, repeats, threshold, data):
    # Duplicates (score exactly 1.0), empty and stopword-only texts, and words
    # the model has not seen (half the texts are left out of its corpus).
    texts = texts + [texts[k % len(texts)] for k in repeats if texts]
    provider = TfIdfProvider.fit(corpus + texts[::2], frozenset({"the", "of"}))
    scores = [
        (i, j, provider.score(texts[i], texts[j]))
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
    ]
    if scores and data.draw(st.booleans()):
        threshold = data.draw(st.sampled_from(scores))[2]  # a threshold a pair meets exactly
    expected = [(i, j, s) for i, j, s in scores if s >= threshold and s > 0.0]
    assert list(provider.pairs(texts, threshold)) == expected


def test_norm_sums_squares_left_to_right():
    # 1 + 2**-54 rounds back to 1 at each step, while a compensated sum (the
    # float sum() of Python 3.12 on) keeps the eight small squares.
    vector = {0: 1.0, **{k: 2.0**-27 for k in range(1, 9)}}
    total = 0.0
    for _, w in sorted(vector.items()):
        total += w * w
    assert math.fsum(w * w for w in vector.values()) != total
    assert _with_norm(vector) == (vector, math.sqrt(total))


@given(
    corpus=st.lists(_PAIR_TEXTS, min_size=1, max_size=6),
    outside=st.lists(_PAIR_TEXTS, max_size=3),
    repeats=st.lists(st.integers(0, 9), max_size=3),
    query=st.one_of(_PAIR_TEXTS, st.just("reap latency")),
    placement=st.sampled_from(["fitted", "in corpus", "outside"]),
    threshold=st.sampled_from([0.0, 0.25, 0.999, 1.0, -0.5, math.nan]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_matches_keeps_every_text_the_score_loop_finds(
    corpus, outside, repeats, query, placement, threshold, data
):
    # Empty, stopword-only and duplicate texts, texts outside the fitted
    # corpus, and a query that is a corpus text (scoring exactly 1.0 against
    # itself), a fitted text of its own, or unseen by the fit.
    if placement == "in corpus":
        query = data.draw(st.sampled_from(corpus))
    texts = corpus + outside
    texts += [texts[k % len(texts)] for k in repeats]
    fitted = corpus + [query] if placement == "fitted" else corpus
    stopwords = frozenset({"the", "of"})
    reference = TfIdfProvider.fit(fitted, stopwords)
    scores = [reference.score(query, text) for text in texts]
    if data.draw(st.booleans()):
        # Just at, below and above a score some text gets.
        score = data.draw(st.sampled_from(scores))
        step = data.draw(st.sampled_from([None, 0.0, 2.0]))
        threshold = score if step is None else math.nextafter(score, step)
    found = list(TfIdfProvider.fit(fitted, stopwords).matches(query, texts, threshold))
    assert [i for i, _ in found] == sorted({i for i, _ in found})
    assert all(score == scores[i] for i, score in found)
    kept = {i for i, _ in found}
    assert {i for i, score in enumerate(scores) if score >= threshold} <= kept


def test_matches_vectorizes_only_the_texts_the_bound_keeps(monkeypatch):
    provider = TfIdfProvider.fit(["reap memory early", "tune the tick", "reap task"], frozenset())
    built, vector = [], textsim._vector
    monkeypatch.setattr(
        textsim, "_vector", lambda model, counts: built.append(sorted(counts)) or vector(model, counts)
    )
    assert list(provider.matches("reap memory early", ["tune the tick", "reap task"], 0.9)) == []
    assert built == [["early", "memory", "reap"]]  # the query's own vector
    assert list(provider.matches("reap memory early", ["reap task"], 0.0)) == [
        (0, provider.score("reap memory early", "reap task"))
    ]
    assert built[1:] == [["reap", "task"]]
