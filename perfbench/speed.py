"""Host speed probe: a fixed pure-Python loop timed between operations.

A VM that shares its host with other tenants can change speed by up to 75%
in spells that last from seconds to minutes (measured on a 2-core Xeon VM),
and guest CPU time changes with it, so a run that falls into a slow spell
reads slow however long it is.  The probe measures that speed next to the
operations: every operation's wall time is multiplied by
``REFERENCE_S / probe``, where ``probe`` is the mean of the probe times taken
just before and just after it.  The result is the operation's time on a host
that runs the probe in ``REFERENCE_S``.

The loop is independent of rdgraph (tokenising, counting into dicts and
sparse dot products over fixed pseudo-documents, the kind of work rdgraph's
hot paths do), so no change to the program can move it.  It allocates a few
hundred kilobytes and runs with the garbage collector off, so the program's
heap does not slow it either.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from time import perf_counter

# The probe loop's median time on the 2-core Xeon VM the benchmark was
# written on (Python 3.11.7); a normalised time is that host's time.
REFERENCE_S = 0.005
# Median of this many loop passes per probe, so that one interrupt does not
# count.
PASSES = 5
# Operations that start within this many seconds of a probe share it.
INTERVAL_S = 0.5


def _documents() -> list[str]:
    rng = random.Random(0)
    words = [
        "".join(rng.choice("abcdefghij") for _ in range(rng.randint(3, 8)))
        for _ in range(300)
    ]
    return [" ".join(rng.choice(words) for _ in range(30)) for _ in range(40)]


def _loop(documents: list[str]) -> float:
    vectors = []
    for doc in documents:
        counts: dict[str, int] = {}
        for token in doc.lower().split():
            counts[token] = counts.get(token, 0) + 1
        norm = math.sqrt(sum(v * v for v in counts.values()))
        vectors.append({k: v / norm for k, v in counts.items()})
    total = 0.0
    for i, a in enumerate(vectors):
        for b in vectors[:i]:
            total += sum(v * b.get(k, 0.0) for k, v in a.items())
    return total


class Probe:
    """Probe times taken at operation boundaries during one run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._documents = _documents()
        self._at = float("-inf")

    def measure(self) -> int:
        """Probe now; returns the new probe's index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            passes = []
            for _ in range(PASSES):
                start = perf_counter()
                _loop(self._documents)
                passes.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(statistics.median(passes))
        self._at = perf_counter()
        return len(self.times) - 1

    def tick(self) -> int:
        """Probe if INTERVAL_S has passed; returns the latest probe's index.

        Call it just before an operation and store the index with the
        operation's time; ``measure`` once more after the last operation.
        """
        if perf_counter() - self._at >= INTERVAL_S:
            return self.measure()
        return len(self.times) - 1

    def normalise(self, seconds: float, index: int) -> float:
        """``seconds`` measured after probe ``index``, at the reference speed."""
        local = (self.times[index] + self.times[index + 1]) / 2
        return seconds * REFERENCE_S / local
