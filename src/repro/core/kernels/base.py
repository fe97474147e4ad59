"""Kernel backend contract and shared machinery of the BFS compute path.

A *kernel backend* supplies the bottom-up frontier scan, the compute
kernel the paper's optimizations concern (the top-down step is one
shared vectorized pass, :mod:`repro.core.topdown`).  Backends are
interchangeable implementations of the same algorithm — every backend
must reproduce the paper's accounting **bit-identically**
(``examined_edges`` and ``inqueue_reads`` per Section II.B.2, the parent
of every discovered vertex, and the discovery order within a level),
because the cost model and the Fig. 16 experiment consume those counts.
What backends may differ in is how much temporary memory and how many
bitmap probes they spend producing them.

This module holds the contract (:class:`KernelBackend`), the scan's
result dataclass, the per-rank split the numpy backends share and the
backend registry.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.errors import ConfigError
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.bitmap import Bitmap, SummaryBitmap
    from repro.core.config import BFSConfig
    from repro.core.kernels.batched import LaneScanResult
    from repro.graph.partition import LocalGraph
    from repro.graph.types import Graph

__all__ = [
    "BottomUpResult",
    "KernelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "FALLBACK_BACKEND",
]


@dataclass
class BottomUpResult:
    """Outcome of one bottom-up scan over every rank's partition.

    The discoveries and the per-rank ``(P,)`` arrays are the paper's
    accounting and must be backend-invariant; the last two fields are
    backend diagnostics (how much work the kernel *materialized* to
    produce those counts) and are never priced.
    """

    #: Newly discovered global vertex ids, ascending — the sequential
    #: rank-major discovery order, partitions being ascending ranges.
    vertices: np.ndarray
    rank_candidates: np.ndarray
    rank_examined: np.ndarray
    rank_inqueue_reads: np.ndarray
    #: Summed degree of each rank's discoveries (maintains the hybrid
    #: policy's unexplored-edge count).
    rank_degree: np.ndarray
    # Diagnostics: edges actually gathered/tested by the kernel and the
    # number of wavefront rounds it took.  The reference backend gathers
    # the full candidate adjacency in one round; the active-set backend
    # gathers roughly the examined prefix over a few rounds.
    gathered_edges: int = 0
    chunk_rounds: int = 0

    @property
    def candidates(self) -> int:
        """Unvisited vertices with at least one edge, all ranks."""
        return int(self.rank_candidates.sum())

    @property
    def examined_edges(self) -> int:
        """Edges the early-exiting scans touched, all ranks."""
        return int(self.rank_examined.sum())

    @property
    def inqueue_reads(self) -> int:
        """Examined edges that read ``in_queue``, all ranks."""
        return int(self.rank_inqueue_reads.sum())


def split_by_rank(
    bounds, parent, cand, degs, found, parents, examined, reads,
    gathered, rounds,
) -> BottomUpResult:
    """Apply a vectorized scan's per-candidate outcome and sum it per rank.

    The candidates ``cand`` are the undiscovered vertices with edges,
    ascending, of degrees ``degs``; ``found`` marks those with a
    frontier neighbour and ``parents`` holds those neighbours, in
    candidate order; ``examined``/``reads`` are per-candidate counts.
    Writes the discoveries into ``parent``.
    """
    vertices = cand[found]
    parent[vertices] = parents
    cuts = np.searchsorted(cand, bounds)

    def per_rank(values):
        csum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
        return np.diff(csum[cuts])

    return BottomUpResult(
        vertices=vertices,
        rank_candidates=np.diff(cuts),
        rank_examined=per_rank(examined),
        rank_inqueue_reads=per_rank(reads),
        rank_degree=per_rank(np.where(found, degs, 0)),
        gathered_edges=int(gathered),
        chunk_rounds=int(rounds),
    )


class KernelBackend(abc.ABC):
    """One interchangeable implementation of the bottom-up BFS kernel.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`bottom_up_scan`.
    """

    name: ClassVar[str]

    @classmethod
    def from_config(cls, config: "BFSConfig | None") -> "KernelBackend":
        """Instance configured from a :class:`BFSConfig` (default: no knobs)."""
        return cls()

    @classmethod
    def availability(cls) -> tuple[bool, str | None]:
        """Whether this backend can actually run in this process.

        ``(True, None)`` when usable — the default, since pure-numpy
        backends always are.  Backends with external requirements (a C
        toolchain, say) return ``(False, reason)`` instead, and
        :func:`get_backend` then falls back to
        :data:`FALLBACK_BACKEND` with a structured warning rather than
        failing the run.
        """
        return (True, None)

    @abc.abstractmethod
    def bottom_up_scan(
        self,
        graph: "Graph",
        bounds: np.ndarray,
        parent: np.ndarray,
        in_queue: "Bitmap",
        summary: "SummaryBitmap | None",
    ) -> BottomUpResult:
        """Scan every rank's unvisited vertices against the frontier bitmap.

        ``graph`` is the global CSR and rank ``r`` owns vertices
        ``[bounds[r], bounds[r + 1])``; ``parent`` is the global parent
        array (-1 = undiscovered), written in place.  Must discover
        exactly the candidates with a frontier neighbour, assign each
        its *first* frontier neighbour (CSR order) as parent, and return
        the per-rank Section II.B.2 counts bit-identically to the
        reference backend.
        """

    def bottom_up_scan_batch(
        self,
        local: "LocalGraph",
        active_lanes: np.ndarray,
        inq_lanes: np.ndarray,
        summary_lanes: np.ndarray | None,
        granularity: int,
        groups: np.ndarray | None = None,
        num_groups: int = 1,
    ) -> "LaneScanResult":
        """Batched bottom-up scan: one pass serving up to 64 sources.

        ``local`` may be a per-rank :class:`LocalGraph` or any CSR view
        with ``offsets``/``targets`` (the engine passes the whole graph
        and splits the counts per rank via ``groups``).  Lane semantics
        and the bit-identity contract live in
        :mod:`repro.core.kernels.batched`.  The default implementation
        is the pure-numpy active-set lane scan, so backends without a
        native batched kernel (e.g. the compiled ``cnative`` backend)
        transparently fall back to it — accounting stays bit-identical
        because the counts are chunk-schedule-independent.
        """
        from repro.core.kernels.batched import lane_scan

        return lane_scan(
            local,
            active_lanes,
            inq_lanes,
            summary_lanes,
            granularity,
            initial_width=2,
            max_width=1 << 16,
            groups=groups,
            num_groups=num_groups,
        )


_REGISTRY: dict[str, type[KernelBackend]] = {}
_SHARED: dict[str, KernelBackend] = {}

#: Where resolution lands when a selected backend is unavailable.
FALLBACK_BACKEND = "activeset"

#: Backends already warned about this process (warn once, not per call).
_WARNED: set[str] = set()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Class decorator: register a backend under its ``name`` attribute."""
    if not getattr(cls, "name", None):
        raise ConfigError("kernel backend classes must set a non-empty name")
    _REGISTRY[cls.name] = cls
    _SHARED.pop(cls.name, None)
    return cls


def available_backends(detail: bool = False):
    """Registered kernel backends, sorted by name.

    By default a tuple of names — every *registered* backend, usable or
    not, so benchmark matrices and CLI validation see the full set.
    With ``detail=True`` a ``{name: (available, reason)}`` mapping
    instead, where ``reason`` is None for usable backends and the
    human-readable unavailability cause otherwise (probing may be as
    expensive as one compiler run for the cnative backend, memoized per
    process).
    """
    if not detail:
        return tuple(sorted(_REGISTRY))
    return {
        name: cls.availability() for name, cls in sorted(_REGISTRY.items())
    }


def get_backend(name: str, config: "BFSConfig | None" = None) -> KernelBackend:
    """Backend instance by registry name.

    Without a ``config`` the default-configured instance is shared across
    callers (backends are stateless between calls); with one, a fresh
    instance is built via :meth:`KernelBackend.from_config`.

    An *unknown* name raises :class:`ConfigError`; a registered backend
    that reports itself unavailable (no toolchain, failed build) instead
    degrades to :data:`FALLBACK_BACKEND` with a structured ``REPRO_LOG``
    warning — once per process per backend — so pinning
    ``REPRO_KERNEL=cnative`` never breaks a run on a machine without a
    compiler.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())} "
            f"(set BFSConfig.kernel or $REPRO_KERNEL)"
        )
    ok, reason = cls.availability()
    if not ok:
        if name == FALLBACK_BACKEND:  # pragma: no cover - always available
            raise ConfigError(
                f"fallback kernel backend {name!r} unavailable: {reason}"
            )
        if name not in _WARNED:
            _WARNED.add(name)
            get_logger("kernels").warning(
                "kernel backend unavailable; falling back",
                extra={
                    "backend": name,
                    "fallback": FALLBACK_BACKEND,
                    "reason": reason,
                },
            )
        return get_backend(FALLBACK_BACKEND, config=config)
    if config is not None:
        return cls.from_config(config)
    if name not in _SHARED:
        _SHARED[name] = cls()
    return _SHARED[name]
