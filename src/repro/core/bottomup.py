"""Bottom-up BFS step (Beamer et al., the paper's Section II.A approach 2).

Each rank scans its *unvisited* local vertices; a vertex joins the next
frontier if any neighbour lies in the current frontier (``in_queue``),
and that first frontier neighbour becomes its parent.  The scan early-
exits at the first hit, which is what makes bottom-up cheap on the big
levels.  Rank partitions are contiguous ranges of one global CSR, so a
single kernel call runs every rank's pass of a level, in rank order.

Two accounting subtleties the cost model depends on:

* ``examined_edges`` counts edges an early-exiting scan touches — the
  position of the first frontier neighbour (inclusive), or the full
  degree when there is none.  It does not depend on the summary.
* ``inqueue_reads`` counts the examined edges whose *summary* bit was 1:
  only those pay the random read into the large ``in_queue`` (Section
  II.B.2); examined edges in empty summary blocks are filtered by the
  much smaller summary structure.  Raising the granularity reduces the
  summary's size but also its zero fraction, moving reads back to
  ``in_queue`` — the Fig. 16 trade-off, measured here exactly.

The actual scan implementation is pluggable (:mod:`repro.core.kernels`):
the ``reference`` backend materializes every candidate's full adjacency,
the default ``activeset`` backend peels it in early-exiting chunks, and
the ``cnative`` backend (when a C toolchain is available) runs the true
per-vertex early-exit loop in compiled code.  All are bit-identical on
the accounting above.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitmap import Bitmap, SummaryBitmap
from repro.core.kernels import KernelBackend, default_backend
from repro.core.kernels.base import BottomUpResult
from repro.graph.types import Graph
from repro.obs.tracer import NULL_TRACER

__all__ = ["BottomUpResult", "scan"]


def scan(
    graph: Graph,
    bounds: np.ndarray,
    parent: np.ndarray,
    in_queue: Bitmap,
    summary: SummaryBitmap | None,
    tracer=NULL_TRACER,
    backend: KernelBackend | None = None,
) -> BottomUpResult:
    """Scan every rank's unvisited vertices against the frontier bitmap
    (rank ``r`` owns vertices ``[bounds[r], bounds[r + 1])``), writing
    discoveries into ``parent``.

    ``backend`` selects the kernel implementation; ``None`` uses the
    process default (``$REPRO_KERNEL`` or the active-set backend).  With
    a recording ``tracer`` the scan is wrapped in one ``bu.scan`` span
    carrying the level's total Section II.B.2 counts plus the backend's
    gathered-edge/round diagnostics."""
    if backend is None:
        backend = default_backend()
    with tracer.span("bu.scan", cat="compute") as sp:
        out = backend.bottom_up_scan(graph, bounds, parent, in_queue, summary)
        if tracer.enabled:
            sp.set(
                backend=backend.name,
                candidates=out.candidates,
                examined_edges=out.examined_edges,
                inqueue_reads=out.inqueue_reads,
                discovered=int(out.vertices.size),
                gathered_edges=out.gathered_edges,
                chunk_rounds=out.chunk_rounds,
            )
    return out
