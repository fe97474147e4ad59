"""The native compiled (`cnative`) kernel backend.

A thin ctypes wrapper over ``bfs_kernels.c`` (compiled and cached by
:mod:`repro.core.kernels.cnative.build`): the bottom-up scan runs the
*true* per-vertex early-exit loop — summary-bitmap probe, first-hit
break, zero temporaries — directly on the numpy buffers (no copies).
Accounting is bit-identical to the reference backend; see
docs/PERFORMANCE.md for the algorithm sketch and the
build/cache/fallback semantics.

The class always registers so the name shows up in
``available_backends()`` and the benchmark matrix; whether it can
actually *run* is a separate, lazily-probed question
(:meth:`CNativeBackend.availability`), and resolution falls back to
``activeset`` with a structured warning when the answer is no.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    BottomUpResult,
    KernelBackend,
    register_backend,
)
from repro.core.kernels.cnative import build
from repro.core.kernels.cnative.build import _i64, _u64
from repro.errors import SimulationError

__all__ = ["CNativeBackend", "build"]


@register_backend
class CNativeBackend(KernelBackend):
    """Compiled C kernels behind ctypes — fastest backend when a
    toolchain is available, gracefully absent when not."""

    name = "cnative"

    @classmethod
    def availability(cls) -> tuple[bool, str | None]:
        """Delegate to the build machinery's (memoized) probe."""
        return build.availability()

    def bottom_up_scan(
        self, graph, bounds, parent, in_queue, summary
    ) -> BottomUpResult:
        """Scan with the native fused loop (one C call per level).

        Candidate selection, the early-exit walk and the discovery
        writes all happen inside the C pass, rank range after rank
        range, directly on ``parent`` (zero-copy).
        """
        n = int(graph.num_vertices)
        # Keep every buffer referenced in a local for the call's duration.
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        # The C loop trusts these: it reads parent[u] and offsets[u + 1]
        # for every u in the rank ranges and writes parent in place.
        if (
            parent.dtype != np.int64
            or not parent.flags.c_contiguous
            or parent.shape != (n,)
            or bounds.size < 1
            or bounds[0] < 0
            or bounds[-1] > n
            or np.any(np.diff(bounds) < 0)
        ):
            raise SimulationError(
                "bottom_up_scan needs a C-contiguous int64 parent array of "
                "one entry per vertex and non-decreasing bounds within "
                f"[0, {n}]"
            )
        lib = build.load_library()
        offsets = np.ascontiguousarray(graph.offsets, dtype=np.int64)
        targets = np.ascontiguousarray(graph.targets, dtype=np.int64)
        inq_words = np.ascontiguousarray(in_queue.words, dtype=np.uint64)
        if summary is None:
            summary_words, summary_ptr, granularity = None, None, 0
        else:
            summary_words = np.ascontiguousarray(
                summary.words, dtype=np.uint64
            )
            summary_ptr = _u64(summary_words)
            granularity = int(summary.granularity)
        nranks = bounds.size - 1
        out_new = np.empty(n, dtype=np.int64)
        counts = np.empty((4, nranks), dtype=np.int64)

        nfound = lib.repro_bu_scan(
            nranks, _i64(bounds), _i64(offsets), _i64(targets),
            _u64(inq_words), summary_ptr, granularity,
            _i64(parent), _i64(out_new), _i64(counts),
        )
        return BottomUpResult(
            vertices=out_new[:nfound],
            rank_candidates=counts[0],
            rank_examined=counts[1],
            rank_inqueue_reads=counts[2],
            rank_degree=counts[3],
            # The native loop materializes nothing: it reads the CSR in
            # place and retires candidates inline, in one pass.
            gathered_edges=0,
            chunk_rounds=1,
        )
