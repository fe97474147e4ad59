"""Per-rank mutable BFS state of the 2-D engine (:mod:`repro.core.twod`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.graph.partition import LocalGraph

__all__ = ["RankState"]


@dataclass
class RankState:
    """Everything one simulated MPI process owns during a BFS run."""

    local: LocalGraph
    # parent[i] is the global parent id of local vertex (lo + i); -1 while
    # undiscovered; the root is its own parent (Graph500 convention).
    parent: np.ndarray = field(init=False)
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.parent = np.full(
            self.local.num_local_vertices, -1, dtype=np.int64
        )
        self.degrees = np.diff(self.local.offsets)

    @property
    def rank(self) -> int:
        """This state's MPI rank."""
        return self.local.rank

    def to_local(self, vertices: np.ndarray) -> np.ndarray:
        """Translate global vertex ids owned by this rank to local ids."""
        v = np.asarray(vertices, dtype=np.int64)
        if v.size and (
            int(v.min()) < self.local.lo or int(v.max()) >= self.local.hi
        ):
            raise SimulationError(
                f"rank {self.rank}: vertex outside owned range "
                f"[{self.local.lo}, {self.local.hi})"
            )
        return v - self.local.lo

    def discover(self, local_ids: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Record parents for previously-unvisited local vertices.

        Returns the subset of ``local_ids`` that were actually new (first
        writer wins, as in the reference code's atomic compare-and-swap).
        """
        local_ids = np.asarray(local_ids, dtype=np.int64)
        parents = np.asarray(parents, dtype=np.int64)
        if local_ids.shape != parents.shape:
            raise SimulationError("discover: mismatched id/parent arrays")
        fresh = self.parent[local_ids] < 0
        # With duplicate ids in one batch, keep the first occurrence only.
        if local_ids.size:
            first_occurrence = np.zeros(local_ids.size, dtype=bool)
            _, first_idx = np.unique(local_ids, return_index=True)
            first_occurrence[first_idx] = True
            fresh &= first_occurrence
        ids = local_ids[fresh]
        self.parent[ids] = parents[fresh]
        return ids

    def visited_count(self) -> int:
        """Number of discovered local vertices."""
        return int(np.count_nonzero(self.parent >= 0))
