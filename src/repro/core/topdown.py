"""Top-down BFS step (the ``mpi_simple`` approach of the Graph500
reference code).

Each rank expands the frontier vertices it owns: it walks their adjacency
lists and routes every (neighbour, would-be parent) pair to the
neighbour's owner; owners keep the first parent for each undiscovered
vertex.  The pair exchange is the only communication of a top-down level
(an ``alltoallv``), which is why the paper's bitmap/allgather machinery
only concerns the bottom-up phase.

One level is three calls, shared by the single-source engine (one lane)
and the batched engine (one lane per source):

1. :func:`expand` builds the whole level's send side at once — every
   (lane, sender rank) is expanded in one vectorized pass into a single
   flat ``(child, parent)`` buffer in ``MPI_Alltoallv`` send layout
   (sender-major, then destination), plus the per-lane ``(P, P)`` count
   matrix;
2. :meth:`repro.mpi.simcomm.SimComm.alltoallv` reorders that buffer to
   receiver-major order and prices the exchange;
3. :func:`apply_received` coalesces the received pairs (the lowest
   sender wins) and records the discoveries.

The results are those of the per-rank formulation: each sender keeps
one pair per distinct child (the first parent in frontier order, then
CSR edge order), children ascending per message; each receiver takes
messages sender-ascending and discovers in (sender, child) order — the
order that seeds the next level's first-parent choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.counts import LevelCounts
from repro.graph.partition import Partition1D
from repro.graph.types import Graph
from repro.obs.tracer import NULL_TRACER
from repro.util.segments import gather_adjacency

__all__ = ["Outbox", "Discovered", "expand", "apply_received", "PAIR_BYTES"]

# A (child, parent) pair on the wire: two int64 vertex ids.
PAIR_BYTES = 16


@dataclass
class Outbox:
    """The send side of one top-down level, all lanes and ranks."""

    #: ``(N, 2)`` int64 (child, parent) rows ordered by (lane, sender,
    #: destination, child) — per lane, the send buffer of one
    #: ``MPI_Alltoallv``.
    pairs: np.ndarray
    #: ``(L, P, P)``: rows lane ``l``'s rank ``i`` sends to rank ``j``.
    counts: np.ndarray
    #: ``(L, P)``: adjacency entries each sender walked.
    examined_edges: np.ndarray

    def record(self, lane: int, lc: LevelCounts) -> None:
        """Fill one lane's top-down level counts."""
        num_ranks = self.examined_edges.shape[1]
        lc.examined_edges = self.examined_edges[lane]
        lc.candidates = np.zeros(num_ranks, dtype=np.int64)
        lc.inqueue_reads = np.zeros(num_ranks, dtype=np.int64)
        lc.td_send_bytes = self.counts[lane] * PAIR_BYTES


@dataclass
class Discovered:
    """What one top-down level discovered, all lanes and ranks."""

    #: Global ids in discovery order: lane, owner, then first (sender,
    #: child) occurrence.
    vertices: np.ndarray
    #: ``(L, P)``: discoveries per lane and owner rank (the segment
    #: lengths of ``vertices``).
    counts: np.ndarray
    #: ``(L, P)``: summed degree of those discoveries.
    degree: np.ndarray


def expand(
    graph: Graph,
    partition: Partition1D,
    frontier: np.ndarray,
    lane_sizes,
    tracer=NULL_TRACER,
) -> Outbox:
    """Expand the frontiers of every lane into one flat send buffer.

    ``frontier`` holds global vertex ids, lane after lane
    (``lane_sizes`` entries each); within a lane each sender rank's
    vertices keep their discovery order, which decides the first parent
    per child.  With a recording ``tracer`` the expansion is wrapped in
    one ``td.expand`` span carrying the frontier size and examined edge
    count.
    """
    n = graph.num_vertices
    num_ranks = partition.num_parts
    owners = partition.owners
    frontier = np.asarray(frontier, dtype=np.int64)
    lane_sizes = np.asarray(lane_sizes, dtype=np.int64)
    lanes = lane_sizes.size
    with tracer.span("td.expand", cat="compute") as sp:
        # (lane, sender) group of every frontier vertex.
        group = (
            np.repeat(np.arange(lanes, dtype=np.int64), lane_sizes)
            * num_ranks
            + owners[frontier]
        )
        gather = gather_adjacency(graph.offsets, frontier)
        examined = (
            np.bincount(
                group,
                weights=gather.lens.astype(np.float64),
                minlength=lanes * num_ranks,
            )
            .astype(np.int64)
            .reshape(lanes, num_ranks)
        )
        # One pair per (lane, sender, child), the first occurrence's
        # parent winning: np.unique's first-occurrence indices keep the
        # stream order, and its sorted keys put children ascending per
        # (lane, sender) — owners being contiguous child ranges, that is
        # also destination order.
        keys, first = np.unique(
            np.repeat(group * n, gather.lens) + graph.targets[gather.pos],
            return_index=True,
        )
        sender_group = keys // n
        children = keys - sender_group * n
        parents = np.repeat(frontier, gather.lens)[first]
        counts = (
            np.bincount(
                sender_group * num_ranks + owners[children],
                minlength=lanes * num_ranks * num_ranks,
            )
            .astype(np.int64)
            .reshape(lanes, num_ranks, num_ranks)
        )
        if tracer.enabled:
            sp.set(
                frontier=int(frontier.size),
                examined_edges=int(examined.sum()),
            )
    return Outbox(
        pairs=np.stack([children, parents], axis=1),
        counts=counts,
        examined_edges=examined,
    )


def apply_received(
    parent: np.ndarray,
    rows,
    recv: np.ndarray,
    recv_counts: np.ndarray,
    degrees: np.ndarray,
    tracer=NULL_TRACER,
) -> Discovered:
    """Apply the received (child, parent) pairs of every lane.

    ``recv`` is the receiver-major buffer of
    :meth:`~repro.mpi.simcomm.SimComm.alltoallv` and ``recv_counts`` its
    ``(L, receiver, sender)`` counts.  Lane ``l`` reads and writes
    ``parent[rows[l]]`` of the C-contiguous ``parent`` (global parent
    ids, -1 = undiscovered); of the pairs naming one undiscovered child
    the first — lowest sender — wins, as in the reference code's atomic
    compare-and-swap.
    """
    lanes, num_ranks, _ = recv_counts.shape
    flat = parent.reshape(-1)
    rows = np.asarray(rows, dtype=np.int64) * parent.shape[1]
    with tracer.span("td.apply", cat="compute") as sp:
        # (lane, receiver) segment of every received row.
        seg = np.repeat(
            np.arange(lanes * num_ranks, dtype=np.int64),
            recv_counts.sum(axis=2).ravel(),
        )
        # Each row's slot in ``flat``: one per (lane, child).
        slot = rows[seg // num_ranks] + recv[:, 0]
        fresh = np.flatnonzero(flat[slot] < 0)
        # Freshness is per slot, so filtering first keeps the same first
        # occurrences; sorting their indices restores the receive order,
        # which is the discovery order.
        _, first = np.unique(slot[fresh], return_index=True)
        win = fresh[np.sort(first)]
        vertices = recv[win, 0]
        flat[slot[win]] = recv[win, 1]
        won = seg[win]
        counts = np.bincount(won, minlength=lanes * num_ranks)
        degree = np.bincount(
            won,
            weights=degrees[vertices].astype(np.float64),
            minlength=lanes * num_ranks,
        )
        if tracer.enabled:
            sp.set(received_pairs=int(recv.shape[0]), discovered=int(win.size))
    return Discovered(
        vertices=vertices,
        counts=counts.astype(np.int64).reshape(lanes, num_ranks),
        degree=degree.astype(np.int64).reshape(lanes, num_ranks),
    )
