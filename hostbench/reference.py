"""A frozen, engine-shaped reference workload timed between queries.

The host this benchmark was sized on drifts: the same queries ran 20–40%
faster or slower from one quarter of an hour to the next, on both CPUs
at once.  :class:`Reference` is a small level-synchronous BFS written in
the engine's style — a Python loop over 16 ranks per level, each doing
a handful of small numpy calls to expand, bucket by owner and apply —
over a fixed seeded graph.  It lives here, not in ``src/``, so no change
to the program changes it.  Timed beside the engine on that host, its
time followed the engine's slowdowns more closely than a loop of small
numpy calls, a random gather or a sort did.

A run times it every :data:`SAMPLE_EVERY_NS` between queries (never
inside one) and reports its ``*_ref`` metrics scaled to a machine on
which the reference takes :data:`REF_NS`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference time the ``*_ref`` metrics are scaled to.
REF_NS = 10_000_000
#: Least time between two samples inside a timed loop.
SAMPLE_EVERY_NS = 500_000_000
_SCALE, _RANKS = 12, 16


class Reference:
    """The reference graph and the reference times taken so far."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2024)
        n = 1 << _SCALE
        src = rng.integers(0, n, 8 * n)
        dst = rng.integers(0, n, 8 * n)
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        self._targets = dst[np.argsort(src, kind="stable")]
        self._offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(src, minlength=n))]
        )
        self._bounds = np.linspace(0, n, _RANKS + 1).astype(np.int64)
        self._root = int(src[0])
        self.samples: list[int] = []
        self._last = 0

    def _bfs(self) -> np.ndarray:
        off, tgt, bounds = self._offsets, self._targets, self._bounds
        empty = np.empty(0, dtype=np.int64)
        parent = np.full(off.size - 1, -1, dtype=np.int64)
        parent[self._root] = self._root
        frontier = [empty] * _RANKS
        frontier[int(np.searchsorted(bounds, self._root, "right")) - 1] = (
            np.array([self._root])
        )
        while any(f.size for f in frontier):
            outbox: list[list] = [[] for _ in range(_RANKS)]
            for f in frontier:
                if not f.size:
                    continue
                starts = off[f]
                counts = off[f + 1] - starts
                first = np.repeat(starts - np.cumsum(counts) + counts, counts)
                nbrs = tgt[first + np.arange(first.size)]
                srcs = np.repeat(f, counts)
                owner = np.searchsorted(bounds, nbrs, "right") - 1
                order = np.argsort(owner, kind="stable")
                cuts = np.cumsum(np.bincount(owner, minlength=_RANKS))[:-1]
                for dst, pair in enumerate(zip(np.split(nbrs[order], cuts),
                                               np.split(srcs[order], cuts))):
                    if pair[0].size:
                        outbox[dst].append(pair)
            for r, box in enumerate(outbox):
                if not box:
                    frontier[r] = empty
                    continue
                v = np.concatenate([a for a, _b in box])
                p = np.concatenate([b for _a, b in box])
                new = parent[v] < 0
                v, first = np.unique(v[new], return_index=True)
                parent[v] = p[new][first]
                frontier[r] = v
        return parent

    def sample(self) -> None:
        """Time one reference BFS."""
        t0 = time.perf_counter_ns()
        self._bfs()
        self._last = time.perf_counter_ns()
        self.samples.append(self._last - t0)

    def sample_if_due(self) -> None:
        """Sample when :data:`SAMPLE_EVERY_NS` passed since the last one."""
        if time.perf_counter_ns() - self._last >= SAMPLE_EVERY_NS:
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's host times into reference times."""
        return REF_NS / statistics.median(self.samples)
