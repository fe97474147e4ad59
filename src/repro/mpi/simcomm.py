"""The simulated communicator.

``SimComm`` owns the channel timing primitives (shared-memory copies
inside a node, InfiniBand transfers between nodes) and the functional
implementations of the small collectives the BFS engine needs besides
allgather (``alltoallv`` for the top-down queue exchange, ``allreduce``
for frontier counts and termination detection, ``barrier`` for stall
accounting).  The allgather family lives in
:mod:`repro.mpi.collectives`.

Ranks execute bulk-synchronously in one Python process, so a collective
receives every rank's contribution at once, moves the real bytes, and
returns both the received data and the simulated per-rank durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CommunicationError
from repro.machine.costmodel import CodecCostModel
from repro.machine.memory import MemoryModel
from repro.machine.network import NetworkModel
from repro.machine.spec import ClusterSpec
from repro.mpi.mapping import ProcessMapping
from repro.obs.tracer import NULL_TRACER

__all__ = ["SimComm", "CollectiveResult"]


@dataclass
class CollectiveResult:
    """Outcome of one simulated collective.

    ``raw_bytes`` is the pre-codec logical payload (the sum of every
    rank's contribution); ``wire_bytes`` is that payload as transmitted —
    after the frontier codec shrank it and, for alltoallv, minus free
    self-messages.  The message schedule may carry *multiples* of
    ``wire_bytes`` (e.g. the leader broadcast re-moves the gathered data
    on every node); the per-channel split of that carried volume lives in
    the comm event's ``intra_bytes``/``inter_bytes`` attributes.
    """

    data: object
    rank_times: np.ndarray  # ns per rank
    breakdown: dict[str, float] = field(default_factory=dict)
    raw_bytes: float = 0.0
    wire_bytes: float = 0.0
    wire_part_bytes: float = 0.0
    codec: str | None = None

    @property
    def max_time(self) -> float:
        """Slowest rank's time (the collective's completion)."""
        return float(self.rank_times.max()) if self.rank_times.size else 0.0


class SimComm:
    """Communicator over the ranks of a :class:`ProcessMapping`."""

    def __init__(
        self,
        cluster: ClusterSpec,
        mapping: ProcessMapping,
        tracer=None,
    ) -> None:
        if mapping.cluster is not cluster and mapping.cluster != cluster:
            raise CommunicationError("mapping belongs to a different cluster")
        self.cluster = cluster
        self.mapping = mapping
        self.network = NetworkModel(cluster)
        self.memory = MemoryModel(cluster.node)
        # Encode/decode throughputs charged when a frontier codec is
        # active (repro.mpi.codecs); the allgather path and the pricer
        # both read this so functional events and assembled timings agree.
        self.codec_model = CodecCostModel()
        self.num_ranks = mapping.num_ranks
        # Telemetry sink: every collective emits one CommEvent with its
        # per-rank simulated durations; the default null tracer makes
        # that a no-op guarded by a single attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Fault injector (repro.faults): consulted by every collective
        # before delivering data and by the channel models for link
        # degradation.  None (the default) keeps the hot path unchanged —
        # each hook is a single attribute check.
        self.injector = None

    # ---- channel primitives ------------------------------------------------

    def same_node(self, r1: int, r2: int) -> bool:
        """True when two ranks share a node."""
        return self.mapping.node_of(r1) == self.mapping.node_of(r2)

    def shm_copy_time(self, nbytes: float, concurrent_flows: int = 1) -> float:
        """Time (ns) for one rank to copy ``nbytes`` within its node while
        ``concurrent_flows`` copies contend for the memory system."""
        if nbytes < 0:
            raise CommunicationError("negative byte count")
        if nbytes == 0:
            return 0.0
        bw = self.memory.copy_bandwidth(concurrent_flows)
        return self.cluster.node.shm_latency_ns + nbytes / bw * 1e9

    def inter_node_time(
        self, nbytes: float, flows: int = 1, node_index: int | None = None
    ) -> float:
        """Time (ns) to move ``nbytes`` out of ``node_index`` while
        ``flows`` streams share its NICs."""
        if nbytes < 0:
            raise CommunicationError("negative byte count")
        if nbytes == 0:
            return 0.0
        return self.network.transfer_time(nbytes, flows=flows, node_index=node_index)

    def _rank_topology(self) -> tuple[np.ndarray, ...]:
        """Memoized per-rank topology arrays for the pricing hot path:
        owning node per rank, the rank×rank same-node mask, that mask
        without the diagonal (distinct ranks sharing a node), and each
        rank's *static* network derating (the injector's dynamic link
        derating is applied by the caller — it can change run to run)."""
        cached = getattr(self, "_rank_topo", None)
        if cached is None:
            nodes = np.array(
                [self.mapping.node_of(r) for r in range(self.num_ranks)],
                dtype=np.int64,
            )
            same = nodes[:, None] == nodes[None, :]
            base = np.array(
                [self.cluster.network_derating(int(n)) for n in nodes],
                dtype=np.float64,
            )
            intra = same & ~np.eye(self.num_ranks, dtype=bool)
            cached = (nodes, same, intra, base)
            self._rank_topo = cached
        return cached

    def node_derating(self, node_index: int) -> float:
        """Combined network derating of one node: the cluster's own weak
        link times any injected degradation."""
        factor = self.cluster.network_derating(node_index)
        if self.injector is not None:
            factor *= self.injector.link_derating(node_index)
        return factor

    def slowest_node_inter_time(self, nbytes: float, flows: int = 1) -> float:
        """Inter-node step time bounded by the slowest (possibly derated)
        node — a bulk step completes when its worst channel does."""
        if nbytes <= 0:
            return 0.0
        worst = min(
            (self.node_derating(n) for n in range(self.cluster.nodes)),
            default=1.0,
        )
        bw = self.network.flow_bandwidth(flows) * worst
        return self.cluster.node.ib.message_latency_ns + nbytes / bw * 1e9

    # ---- small collectives ---------------------------------------------------

    def barrier(self, clocks: np.ndarray) -> np.ndarray:
        """Stall times that align every rank to the latest clock."""
        clocks = np.asarray(clocks, dtype=np.float64)
        if clocks.shape != (self.num_ranks,):
            raise CommunicationError(
                f"barrier expects {self.num_ranks} clocks, got {clocks.shape}",
                collective="barrier",
            )
        stalls = clocks.max() - clocks
        if self.tracer.enabled:
            self.tracer.comm_event(
                "barrier",
                rank_times=stalls,
                breakdown={"stall": float(stalls.max(initial=0.0))},
            )
        return stalls

    def allreduce_time(self) -> float:
        """Latency of a small-payload allreduce: log2(np) rounds, each at
        the latency of the slowest channel class in use."""
        rounds = max(1, math.ceil(math.log2(max(2, self.num_ranks))))
        if self.cluster.nodes > 1:
            per_round = self.cluster.node.ib.message_latency_ns
        else:
            per_round = self.cluster.node.shm_latency_ns
        return rounds * per_round

    def allreduce_sum(self, values: np.ndarray) -> CollectiveResult:
        """Sum a per-rank scalar (or vector) across all ranks."""
        values = np.asarray(values)
        if values.shape[0] != self.num_ranks:
            raise CommunicationError(
                f"allreduce expects one value per rank ({self.num_ranks})",
                collective="allreduce_sum",
            )
        if self.injector is not None:
            self.injector.collective_attempt(
                "allreduce", wasted_ns=self.allreduce_time()
            )
        total = values.sum(axis=0)
        t = self.allreduce_time()
        result = CollectiveResult(
            data=total,
            rank_times=np.full(self.num_ranks, t),
            breakdown={"allreduce": t},
        )
        if self.tracer.enabled:
            self.tracer.comm_event(
                "allreduce_sum",
                nbytes=float(values.nbytes),
                rank_times=result.rank_times,
                breakdown=result.breakdown,
            )
        return result

    def allreduce_max(self, values: np.ndarray) -> CollectiveResult:
        """Elementwise maximum across all ranks."""
        values = np.asarray(values)
        if values.shape[0] != self.num_ranks:
            raise CommunicationError(
                f"allreduce expects one value per rank ({self.num_ranks})",
                collective="allreduce_max",
            )
        if self.injector is not None:
            self.injector.collective_attempt(
                "allreduce", wasted_ns=self.allreduce_time()
            )
        total = values.max(axis=0)
        t = self.allreduce_time()
        result = CollectiveResult(
            data=total,
            rank_times=np.full(self.num_ranks, t),
            breakdown={"allreduce": t},
        )
        if self.tracer.enabled:
            self.tracer.comm_event(
                "allreduce_max",
                nbytes=float(values.nbytes),
                rank_times=result.rank_times,
                breakdown=result.breakdown,
            )
        return result

    # ---- alltoallv ------------------------------------------------------------

    def alltoallv_time(self, send_bytes: np.ndarray) -> np.ndarray:
        """Per-rank time of an alltoallv given its byte matrix.

        ``send_bytes[..., i, j]`` is the payload rank ``i`` sends to rank
        ``j``; leading axes stack independent exchanges, each priced on
        its own.  Self-messages are free (local pointer hand-off).  A
        rank's time is the maximum of its send side and its receive side.
        """
        np_ranks = self.num_ranks
        send_bytes = np.asarray(send_bytes, dtype=np.float64)
        if send_bytes.ndim < 2 or send_bytes.shape[-2:] != (np_ranks, np_ranks):
            raise CommunicationError(
                f"alltoallv expects a {np_ranks}x{np_ranks} byte matrix",
                collective="alltoallv",
            )
        ppn = self.mapping.ppn
        ib_lat = self.cluster.node.ib.message_latency_ns
        shm_lat = self.cluster.node.shm_latency_ns
        inter_bw = self.network.flow_bandwidth(max(1, ppn))
        intra_bw = self.memory.copy_bandwidth(max(1, ppn))

        nodes, same_node, intra, derate = self._rank_topology()
        if self.injector is not None:
            derate = derate * np.array(
                [self.injector.link_derating(int(n)) for n in nodes]
            )

        positive = send_bytes > 0
        intra_mask = positive & intra
        inter_mask = positive & ~same_node
        intra_bytes = send_bytes * intra_mask
        inter_bytes = send_bytes * inter_mask
        send_t = (
            intra_mask.sum(axis=-1) * shm_lat
            + intra_bytes.sum(axis=-1) / intra_bw * 1e9
            + inter_mask.sum(axis=-1) * ib_lat
            + inter_bytes.sum(axis=-1) / (inter_bw * derate) * 1e9
        )
        recv_t = (
            (intra_mask | inter_mask).sum(axis=-2) * min(ib_lat, shm_lat)
            + intra_bytes.sum(axis=-2) / intra_bw * 1e9
            + inter_bytes.sum(axis=-2) / inter_bw * 1e9
        )
        return np.maximum(send_t, recv_t)

    def alltoallv(
        self, sendbuf: np.ndarray, sendcounts: np.ndarray
    ) -> CollectiveResult:
        """``MPI_Alltoallv`` over one flat send buffer.

        ``sendcounts[..., i, j]`` is the number of ``sendbuf`` rows rank
        ``i`` sends to rank ``j``; the rows are laid out in that order
        (sender-major, then destination), as every rank's send buffer
        with its displacements would be.  Leading axes stack independent
        exchanges — one per batched BFS lane — that are priced, and
        traced, one by one.  The result's ``data`` is ``(recvbuf,
        recvcounts)``: the rows in receiver-major order (each receiver's
        rows sender-ascending) and ``recvcounts[..., j, i]`` =
        ``sendcounts[..., i, j]``.  Used by the top-down phase to route
        discovered (vertex, parent) pairs to their owners.
        """
        np_ranks = self.num_ranks
        counts = np.asarray(sendcounts, dtype=np.int64)
        if (
            counts.ndim < 2
            or counts.shape[-2:] != (np_ranks, np_ranks)
            or counts.sum() != len(sendbuf)
        ):
            raise CommunicationError(
                f"alltoallv expects {np_ranks}x{np_ranks} send counts "
                f"covering all {len(sendbuf)} rows",
                collective="alltoallv",
            )
        recvcounts = np.swapaxes(counts, -1, -2)
        # Block b of the send buffer holds sendcounts.flat[b] rows; the
        # receive buffer takes the same blocks in transposed order.
        flat = counts.ravel()
        send_start = np.cumsum(flat) - flat
        order = np.swapaxes(
            np.arange(flat.size).reshape(counts.shape), -1, -2
        ).ravel()
        lens = flat[order]
        recv_start = np.cumsum(lens) - lens
        src = np.arange(len(sendbuf)) + np.repeat(
            send_start[order] - recv_start, lens
        )
        recvbuf = np.take(sendbuf, src, axis=0)

        row_bytes = sendbuf.dtype.itemsize * math.prod(sendbuf.shape[1:])
        send_bytes = (counts * row_bytes).astype(np.float64)
        times = self.alltoallv_time(send_bytes)
        if self.injector is not None:
            # A scheduled transient failure wastes the whole attempt:
            # the raise carries the priced duration so the engine can
            # charge the retransmission before retrying.
            self.injector.collective_attempt(
                "alltoallv", wasted_ns=float(times.max(initial=0.0))
            )
        self_bytes = np.trace(send_bytes, axis1=-2, axis2=-1).sum()
        result = CollectiveResult(
            data=(recvbuf, recvcounts),
            rank_times=times,
            breakdown={"alltoallv": float(times.max(initial=0.0))},
            raw_bytes=float(send_bytes.sum()),
            wire_bytes=float(send_bytes.sum() - self_bytes),
        )
        if self.tracer.enabled:
            _nodes, same_node, intra, _derate = self._rank_topology()
            self_mask = np.eye(np_ranks, dtype=bool)
            for lane_bytes, lane_times in zip(
                send_bytes.reshape(-1, np_ranks, np_ranks),
                times.reshape(-1, np_ranks),
            ):
                intra_b = float(lane_bytes[intra].sum())
                inter_b = float(lane_bytes[~same_node].sum())
                self.tracer.comm_event(
                    "alltoallv",
                    nbytes=float(lane_bytes.sum()),
                    rank_times=lane_times,
                    breakdown={
                        "alltoallv": float(lane_times.max(initial=0.0))
                    },
                    # Pre-share payload vs. bytes on an actual channel:
                    # self-messages are pointer hand-offs and never hit
                    # a wire, so wire_bytes excludes the diagonal.
                    raw_bytes=float(lane_bytes.sum()),
                    wire_bytes=intra_b + inter_b,
                    self_bytes=float(lane_bytes[self_mask].sum()),
                    intra_bytes=intra_b,
                    inter_bytes=inter_b,
                )
        return result
