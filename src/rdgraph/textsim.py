"""Deterministic TF-IDF cosine similarity over a fixed corpus.

This is the similarity behind topic clustering, similar edges, and the
validation checks.  Scores are corpus-dependent and fully reproducible.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from itertools import chain, compress
from typing import Iterable, Iterator, NamedTuple, Sequence

_TOKEN_RE = re.compile(r"[a-z0-9_]+")
# str.translate table: each ASCII character stays if _TOKEN_RE can match it,
# and becomes a space otherwise.
_SEPARATORS = "".join(
    c if _TOKEN_RE.fullmatch(c) else " " for c in map(chr, range(128))
)


@functools.cache
def _dropped(stopwords: frozenset[str]) -> frozenset[str]:
    return stopwords | frozenset(_SEPARATORS.replace(" ", ""))


def token_counts(text: str, stopwords: frozenset[str]) -> Counter[str]:
    """Counts of ``_TOKEN_RE.findall(text.lower())`` in first-occurrence order,
    less one-character tokens and stopwords (removed after counting); no
    stemming.  Every other character of the lowered text splits tokens."""
    lowered = text.lower()
    if not lowered.isascii():
        lowered = lowered.encode("ascii", "replace").decode()
    counts = Counter(lowered.translate(_SEPARATORS).split())
    for key in _dropped(stopwords).intersection(counts):
        counts.pop(key)  # dict.pop: Counter's own __delitem__ runs in Python
    return counts


class TfIdfModel(NamedTuple):
    """Vocabulary, smoothed idf weights, and the document count behind them.

    idf(t) = ln((doc_count + 1) / (df(t) + 1)) + 1, which is strictly
    positive for every vocabulary token.
    """

    vocabulary: dict[str, int]
    idf: tuple[float, ...]
    doc_count: int
    stopwords: frozenset[str]


def _fit(entries: list[Iterable[str]], stopwords: frozenset[str]) -> TfIdfModel:
    """Vocabulary and idf from each corpus entry's distinct tokens."""
    if not entries:
        raise ValueError("cannot build a similarity model over an empty corpus")
    df = Counter(chain.from_iterable(entries))
    tokens = sorted(df)
    vocabulary = {token: i for i, token in enumerate(tokens)}
    n = len(entries)
    idf = tuple(math.log((n + 1) / (df[token] + 1)) + 1.0 for token in tokens)
    return TfIdfModel(
        vocabulary=vocabulary, idf=idf, doc_count=n, stopwords=stopwords
    )


def _vector(model: TfIdfModel, counts: Counter[str]) -> dict[int, float]:
    """Sparse tf·idf vector of token counts; unseen tokens are ignored."""
    vocabulary, idf = model.vocabulary, model.idf
    vector = {}
    for token, count in counts.items():
        index = vocabulary.get(token)
        if index is not None:
            vector[index] = count * idf[index]
    return vector


# A sparse tf·idf vector together with its L2 norm.
_Weighted = tuple[dict[int, float], float]


def _with_norm(vector: dict[int, float]) -> _Weighted:
    # Left to right with +=: float sum() is compensated from Python 3.12 on.
    total = 0.0
    for _, w in sorted(vector.items()):
        total += w * w
    return vector, math.sqrt(total)


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


class TfIdfProvider:
    """Scores two texts symmetrically into [0, 1] under a fixed TfIdfModel.

    Each distinct text is vectorized at most once per provider, when it is
    first scored, and kept for the provider's lifetime (one command).
    ``matches`` skips the fitted texts a score bound keeps below a threshold.
    """

    def __init__(self, model: TfIdfModel):
        self.model = model
        self._memo: dict[str, _Weighted] = {}
        # Token counts of fitted texts not vectorized yet.
        self._counts: dict[str, Counter[str]] = {}

    @classmethod
    def fit(cls, docs: Iterable[str], stopwords: frozenset[str]) -> TfIdfProvider:
        """A provider over the TF-IDF model of ``docs``, a non-empty corpus.

        Each distinct corpus text is counted once by ``token_counts``: the
        counts give its share of the document frequencies (once per corpus
        entry, duplicates included) and are kept until its vector is needed.
        """
        counts: dict[str, Counter[str]] = {}
        entries = []
        for doc in docs:
            if doc not in counts:
                counts[doc] = token_counts(doc, stopwords)
            entries.append(counts[doc])
        provider = cls(_fit(entries, stopwords))
        provider._counts = counts
        return provider

    def _lookup(self, text: str) -> _Weighted:
        entry = self._memo.get(text)
        if entry is None:
            if (counts := self._counts.pop(text, None)) is None:
                counts = token_counts(text, self.model.stopwords)
            entry = self._memo[text] = _with_norm(_vector(self.model, counts))
        return entry

    def score(self, text_a: str, text_b: str) -> float:
        """Cosine of the L2-normalized tf·idf vectors, in [0, 1].

        Either vector empty gives 0; equal vectors give exactly 1.
        """
        return _cosine(self._lookup(text_a), self._lookup(text_b))

    def matches(
        self, query: str, texts: Sequence[str], threshold: float
    ) -> Iterator[tuple[int, float]]:
        """``(i, score(query, texts[i]))`` in index order, for every ``i`` whose
        score may reach ``threshold``.

        A fitted text not vectorized yet is skipped, unvectorized, when its
        Cauchy-Schwarz bound ``‖q on the text's tokens‖ / ‖q‖`` (``q`` the
        query's vector, summed in ``token_counts`` order) is below
        ``threshold`` by a relative 1e-9, far above the rounding of either
        side on any Python version.
        """
        model = self.model
        counts = self._counts.get(query) or token_counts(query, model.stopwords)
        names = [t for t in counts if t in model.vocabulary]
        squares = [(counts[t] * model.idf[model.vocabulary[t]]) ** 2 for t in names]
        floor = (max(threshold, 0.0) * (1.0 - 1e-9) * self._lookup(query)[1]) ** 2
        for i, text in enumerate(texts):
            held = self._counts.get(text)
            if held is None or (
                sum(compress(squares, map(held.__contains__, names))) >= floor
            ):
                yield i, self.score(query, text)

    def pairs(
        self, texts: Sequence[str], threshold: float
    ) -> Iterator[tuple[int, int, float]]:
        """``(i, j, score(texts[i], texts[j]))`` in ``(i, j)`` order, for each
        ``i < j`` whose score is at least ``threshold`` and above 0.

        An inverted index replaces the pairwise loop: each pair sums its
        products in ascending index order from 0.0, as ``_cosine`` does, so
        every score is the same float.  Every product is at least 1 (counts
        and idf weights are), so a dot of exactly 0.0 is a pair that shares
        no token, and every other pair scores above 0.
        """
        if not threshold <= 1.0:
            return  # every score is at most 1, and none reaches a NaN
        weighted = [self._lookup(text) for text in texts]
        n = len(weighted)
        # Each postings list runs from the last text down to the first, so
        # when text i is reached, its own entry is the last one left.
        postings: dict[int, list[tuple[int, float]]] = {}
        for j in range(n - 1, -1, -1):
            for index, weight in weighted[j][0].items():
                postings.setdefault(index, []).append((j, weight))
        for i, (va, norm_a) in enumerate(weighted):
            dots = [0.0] * n
            for index, wa in sorted(va.items()):
                later = postings[index]
                later.pop()
                for j, wb in later:
                    dots[j] += wa * wb
            for j in range(i + 1, n):
                dot = dots[j]
                if dot == 0.0:
                    continue
                vb, norm_b = weighted[j]
                if norm_a == norm_b and va == vb:
                    yield i, j, 1.0
                elif (score := dot / (norm_a * norm_b)) >= threshold:
                    yield i, j, min(1.0, score)
