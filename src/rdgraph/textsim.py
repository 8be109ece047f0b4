"""Deterministic TF-IDF cosine similarity over a fixed corpus.

This is the similarity behind topic clustering, similar edges, and the
validation checks.  Scores are corpus-dependent and fully reproducible.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

_TOKEN_RE = re.compile(r"[a-z0-9_]+")

DEFAULT_STOPWORDS = frozenset()


def tokenize(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase tokens split on non-alphanumerics (keeping ``_``).

    Single-character tokens and stopwords are dropped; no stemming.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return [t for t in tokens if len(t) > 1 and t not in stopwords]


@dataclass(frozen=True)
class TfIdfModel:
    """Vocabulary, smoothed idf weights, and the document count behind them.

    idf(t) = ln((doc_count + 1) / (df(t) + 1)) + 1, which is strictly
    positive for every vocabulary token.
    """

    vocabulary: dict[str, int]
    idf: tuple[float, ...]
    doc_count: int
    stopwords: frozenset[str] = DEFAULT_STOPWORDS


def _fit(entries: list[Iterable[str]], stopwords: frozenset[str]) -> TfIdfModel:
    """Vocabulary and idf from each corpus entry's distinct tokens."""
    if not entries:
        raise ValueError("cannot build a similarity model over an empty corpus")
    df = Counter(chain.from_iterable(entries))
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    n = len(entries)
    idf = tuple(
        math.log((n + 1) / (df[token] + 1)) + 1.0 for token in sorted(df)
    )
    return TfIdfModel(
        vocabulary=vocabulary, idf=idf, doc_count=n, stopwords=stopwords
    )


def build_model(
    docs: Iterable[str], stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> TfIdfModel:
    """Fit vocabulary and idf over a corpus; the corpus must be non-empty."""
    return _fit([set(tokenize(doc, stopwords)) for doc in docs], stopwords)


def vectorize(model: TfIdfModel, text: str) -> dict[int, float]:
    """Sparse tf·idf vector (raw counts times idf); unseen tokens are ignored."""
    counts: dict[int, int] = {}
    for token in tokenize(text, model.stopwords):
        index = model.vocabulary.get(token)
        if index is not None:
            counts[index] = counts.get(index, 0) + 1
    return {i: c * model.idf[i] for i, c in counts.items()}


# A sparse tf·idf vector together with its L2 norm.
_Weighted = tuple[dict[int, float], float]


def _with_norm(vector: dict[int, float]) -> _Weighted:
    return vector, math.sqrt(sum(w * w for _, w in sorted(vector.items())))


def _weighted(model: TfIdfModel, text: str) -> _Weighted:
    return _with_norm(vectorize(model, text))


def _cosine(a: _Weighted, b: _Weighted) -> float:
    """Cosine of two weighted vectors; sums run in sorted index order."""
    va, norm_a = a
    vb, norm_b = b
    if not va or not vb:
        return 0.0
    if va == vb:
        return 1.0
    dot = 0.0
    for index in sorted(va.keys() & vb.keys()):
        dot += va[index] * vb[index]
    value = dot / (norm_a * norm_b)
    return min(1.0, max(0.0, value))


def similarity(model: TfIdfModel, text_a: str, text_b: str) -> float:
    """Cosine of the L2-normalized tf·idf vectors, in [0, 1].

    Either vector empty gives 0; equal vectors give exactly 1.
    """
    return _cosine(_weighted(model, text_a), _weighted(model, text_b))


class TfIdfProvider:
    """Scores two texts symmetrically into [0, 1] under a fixed TfIdfModel.

    Each distinct text is vectorized once per provider: its vector and norm
    are kept for the provider's lifetime, which is one command.
    """

    def __init__(self, model: TfIdfModel):
        self.model = model
        self._memo: dict[str, _Weighted] = {}

    @classmethod
    def fit(
        cls, docs: Iterable[str], stopwords: frozenset[str] = DEFAULT_STOPWORDS
    ) -> TfIdfProvider:
        """A provider over ``build_model(docs, stopwords)``, tokenizing each text once.

        Each distinct corpus text's token counts give both its share of the
        document frequencies (once per corpus entry, duplicates included)
        and its vector, which the provider keeps from the start.
        """
        counts: dict[str, Counter[str]] = {}
        entries = []
        for doc in docs:
            if doc not in counts:
                counts[doc] = Counter(tokenize(doc, stopwords))
            entries.append(counts[doc])
        provider = cls(_fit(entries, stopwords))
        vocabulary, idf = provider.model.vocabulary, provider.model.idf
        for doc, doc_counts in counts.items():
            vector = {}
            for token, count in doc_counts.items():
                index = vocabulary[token]
                vector[index] = count * idf[index]
            provider._memo[doc] = _with_norm(vector)
        return provider

    def _lookup(self, text: str) -> _Weighted:
        entry = self._memo.get(text)
        if entry is None:
            entry = self._memo[text] = _weighted(self.model, text)
        return entry

    def score(self, text_a: str, text_b: str) -> float:
        return _cosine(self._lookup(text_a), self._lookup(text_b))
