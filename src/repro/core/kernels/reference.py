"""The reference (full-materialization) kernel backend.

This is the repo's original vectorized bottom-up scan, kept as the
accounting *oracle*: it flattens the **entire** adjacency of every
candidate into one array and computes the early-exit counts over it with
the segmented helpers.  Per-level temporary memory is therefore
proportional to the total candidate degree (nearly all ``2E`` local arcs
on mid-BFS levels), which is exactly what the active-set backend
(:mod:`repro.core.kernels.activeset`) avoids — but its very simplicity
makes it the ground truth the equivalence tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    BottomUpResult,
    KernelBackend,
    register_backend,
    split_by_rank,
)
from repro.util.segments import gather_adjacency, segment_first_true_and_counts

__all__ = ["ReferenceBackend"]


@register_backend
class ReferenceBackend(KernelBackend):
    """Full-materialization kernels — simple, memory-hungry, and the oracle."""

    name = "reference"

    def bottom_up_scan(
        self, graph, bounds, parent, in_queue, summary
    ) -> BottomUpResult:
        """Scan by materializing every candidate's full adjacency at once."""
        cand = np.flatnonzero((parent < 0) & (np.diff(graph.offsets) > 0))
        gather = gather_adjacency(graph.offsets, cand)
        total = int(gather.seg_offsets[-1])
        neighbors = graph.targets[gather.pos]

        hits = in_queue.test(neighbors)
        first, examined = segment_first_true_and_counts(
            hits, gather.seg_offsets
        )
        found = first >= 0

        if summary is None:
            # Without the summary structure every examined edge reads in_queue.
            reads = examined
        else:
            # Edges inside the early-exit prefix whose summary block is
            # non-empty: only those fall through to the in_queue word read.
            within_prefix = gather.rel < np.repeat(examined, gather.lens)
            summary_hits = summary.test_vertices(neighbors)
            csum = np.concatenate(
                ([0], np.cumsum(within_prefix & summary_hits))
            )
            reads = np.diff(csum[gather.seg_offsets])

        return split_by_rank(
            bounds, parent, cand, gather.lens, found,
            neighbors[first[found]], examined, reads,
            gathered=total, rounds=1 if total else 0,
        )

    def bottom_up_scan_batch(
        self, local, active_lanes, inq_lanes, summary_lanes, granularity,
        groups=None, num_groups=1,
    ):
        """Batched scan in the reference style: materialize every
        candidate's full adjacency in a single round (the counts are
        chunk-schedule-independent, so this only spends more memory)."""
        from repro.core.kernels.batched import lane_scan

        return lane_scan(
            local,
            active_lanes,
            inq_lanes,
            summary_lanes,
            granularity,
            initial_width=None,
            groups=groups,
            num_groups=num_groups,
        )
