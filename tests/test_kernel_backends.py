"""Backend-equivalence suite for the pluggable BFS kernels.

Every kernel backend must reproduce the paper's accounting
bit-identically — parents, discovery order, ``examined_edges`` and
``inqueue_reads`` (Section II.B.2) — because the cost model and Fig. 16
consume those counts.  These tests pin that invariant on randomized
R-MAT graphs and on the adversarial shapes the chunked scan is most
likely to get wrong: isolated vertices, an empty frontier, a single
giant-degree hub, and pathological chunk widths.
"""

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine, Bitmap, CommConfig, SummaryBitmap, bottomup
from repro.core.kernels import (
    ActiveSetBackend,
    CNativeBackend,
    ReferenceBackend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
)
from repro.errors import ConfigError
from repro.graph import (
    Partition1D,
    from_edge_arrays,
    path_graph,
    rmat_graph,
    star_graph,
)
from repro.machine import paper_cluster

# The backends under test: the oracle, the default active-set kernel,
# and active-set variants with adversarial chunk widths (1 forces one
# edge per candidate per round; 3 exercises ragged chunk tails; a huge
# width degenerates to full materialization in one round).  The native
# compiled backend joins whenever this machine can build it; without a
# toolchain it is exercised through the fallback tests instead
# (tests/test_cnative.py).
BACKENDS = {
    "reference": ReferenceBackend(),
    "activeset": ActiveSetBackend(),
    "activeset.chunk=1": ActiveSetBackend(chunk=1),
    "activeset.chunk=3": ActiveSetBackend(chunk=3),
    "activeset.chunk=big": ActiveSetBackend(chunk=1 << 20),
}
CNATIVE_AVAILABLE = CNativeBackend.availability()[0]
if CNATIVE_AVAILABLE:
    BACKENDS["cnative"] = CNativeBackend()

VARIANTS = sorted(k for k in BACKENDS if k != "reference")


def visited_parent(graph, visited):
    """A global parent array with ``visited`` discovered (parent=self is
    fine for setup)."""
    parent = np.full(graph.num_vertices, -1, dtype=np.int64)
    visited = np.asarray(visited, dtype=np.int64)
    parent[visited] = visited
    return parent


def scan_outcome(graph, backend, visited, frontier, granularity):
    """Run one bottom-up scan over three ranks from a reproducible
    state; return all per-rank accounting plus the post-scan parent
    array."""
    bounds = Partition1D(graph.num_vertices, 3).bounds
    parent = visited_parent(graph, visited)
    in_queue = Bitmap.from_indices(graph.num_vertices, frontier)
    summary = (
        SummaryBitmap.build(in_queue, granularity) if granularity else None
    )
    out = backend.bottom_up_scan(graph, bounds, parent, in_queue, summary)
    return {
        "vertices": out.vertices.tolist(),
        "candidates": out.rank_candidates.tolist(),
        "examined_edges": out.rank_examined.tolist(),
        "inqueue_reads": out.rank_inqueue_reads.tolist(),
        "parent": parent.tolist(),
        # The hybrid policy's m_u must stay in sync no matter how a
        # backend applies discoveries (cnative sums them in C).
        "rank_degree": out.rank_degree.tolist(),
    }


def assert_all_backends_agree(graph, visited, frontier, granularity):
    """The heart of the suite: identical outcome under every backend."""
    expected = scan_outcome(
        graph, BACKENDS["reference"], visited, frontier, granularity
    )
    for name in VARIANTS:
        got = scan_outcome(graph, BACKENDS[name], visited, frontier, granularity)
        assert got == expected, (
            f"{name} diverged from reference (granularity={granularity})"
        )


GRANULARITIES = [None, 64, 256]


class TestScanEquivalence:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rmat_random_levels(self, seed, granularity):
        graph = rmat_graph(scale=9, edgefactor=8, seed=seed)
        rng = np.random.default_rng(100 + seed)
        n = graph.num_vertices
        # A synthetic mid-BFS state: ~35% visited, frontier = a random
        # half of the visited set (a superset relation is not required
        # by the kernels).
        visited = rng.choice(n, size=n // 3, replace=False)
        frontier = rng.choice(visited, size=visited.size // 2, replace=False)
        assert_all_backends_agree(graph, visited, frontier, granularity)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_empty_frontier(self, granularity):
        graph = rmat_graph(scale=8, edgefactor=8, seed=5)
        # No frontier bits at all: every candidate scans its full degree.
        assert_all_backends_agree(
            graph, np.array([0]), np.array([], dtype=np.int64), granularity
        )

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_single_giant_degree_hub(self, granularity):
        # One hub adjacent to everything; the hub is the sole unvisited
        # candidate, so one candidate drives many doubling rounds.
        graph = star_graph(4000)
        leaves = np.arange(1, 4000)
        frontier = np.array([3990])  # deep in the hub's adjacency
        assert_all_backends_agree(graph, leaves, frontier, granularity)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_hub_with_no_hit(self, granularity):
        graph = star_graph(2048)
        # Frontier contains only the (visited) hub itself: every leaf
        # candidate hits on its single edge; the hub is visited.
        assert_all_backends_agree(
            graph, np.array([0]), np.array([0]), granularity
        )

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_isolated_vertices(self, granularity):
        # Vertices 3..9 isolated: candidates must skip them entirely.
        graph = from_edge_arrays(10, [0, 1, 0], [1, 2, 2])
        assert_all_backends_agree(
            graph, np.array([0]), np.array([0]), granularity
        )

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_no_candidates(self, granularity):
        graph = path_graph(8)
        assert_all_backends_agree(
            graph, np.arange(8), np.array([4]), granularity
        )

    def test_activeset_gathers_fewer_edges_than_reference(self):
        # The backend's raison d'être: on a dense-frontier level it must
        # materialize far less adjacency than the full candidate degree.
        graph = rmat_graph(scale=10, edgefactor=16, seed=7)
        rng = np.random.default_rng(8)
        n = graph.num_vertices
        visited = rng.choice(n, size=n // 2, replace=False)
        frontier = visited

        def gathered(backend):
            inq = Bitmap.from_indices(n, frontier)
            return backend.bottom_up_scan(
                graph, np.array([0, n]), visited_parent(graph, visited),
                inq, None,
            )

        ref = gathered(BACKENDS["reference"])
        act = gathered(BACKENDS["activeset"])
        assert ref.gathered_edges > 0
        assert act.gathered_edges < ref.gathered_edges / 4
        assert act.examined_edges == ref.examined_edges


class TestEngineEquivalence:
    """Whole-run equivalence: parents, per-level counts, priced time."""

    @pytest.mark.parametrize("config_kwargs", [
        {},
        {"comm": CommConfig(summary_granularity=256)},
        {"comm": CommConfig(use_summary=False)},
        {"kernel_chunk": 5},
        {"degree_balanced": True},
    ])
    def test_full_run_bit_identical(self, config_kwargs):
        graph = rmat_graph(scale=11, edgefactor=8, seed=3)
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(graph.degrees()))
        kernels = ["reference", "activeset"]
        if CNATIVE_AVAILABLE:
            kernels.append("cnative")
        results = {}
        for kernel in kernels:
            cfg = BFSConfig(kernel=kernel, **config_kwargs)
            results[kernel] = BFSEngine(graph, cluster, cfg).run(root)
        a = results["reference"]
        for kernel in kernels[1:]:
            b = results[kernel]
            assert np.array_equal(a.parent, b.parent), kernel
            assert a.levels == b.levels, kernel
            for la, lb in zip(a.counts.levels, b.counts.levels):
                assert la.direction == lb.direction, kernel
                assert np.array_equal(la.candidates, lb.candidates), kernel
                assert np.array_equal(la.examined_edges, lb.examined_edges), kernel
                assert np.array_equal(la.inqueue_reads, lb.inqueue_reads), kernel
                assert np.array_equal(la.discovered, lb.discovered), kernel
            # Identical counts must price identically: the backend can
            # never change a simulated (paper) result.
            assert a.seconds == b.seconds, kernel
            assert a.teps == b.teps, kernel


class TestRegistryAndResolution:
    def test_available_backends(self):
        names = available_backends()
        assert "reference" in names and "activeset" in names
        # cnative is always *registered*, even when it cannot build here.
        assert "cnative" in names

    def test_available_backends_detail(self):
        detail = available_backends(detail=True)
        assert set(detail) == set(available_backends())
        assert detail["reference"] == (True, None)
        assert detail["activeset"] == (True, None)
        ok, reason = detail["cnative"]
        assert ok is CNATIVE_AVAILABLE
        assert (reason is None) if ok else isinstance(reason, str)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("warp-drive")

    def test_engine_rejects_unknown_kernel(self):
        graph = path_graph(256)
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            BFSEngine(graph, paper_cluster(nodes=1), BFSConfig(kernel="nope"))

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert default_backend().name == "reference"
        assert resolve_backend(None).name == "reference"
        monkeypatch.delenv("REPRO_KERNEL")
        assert default_backend().name == "activeset"

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        backend = resolve_backend(BFSConfig(kernel="activeset"))
        assert backend.name == "activeset"

    def test_kernel_chunk_flows_from_config(self):
        backend = resolve_backend(BFSConfig(kernel="activeset", kernel_chunk=7))
        assert isinstance(backend, ActiveSetBackend)
        assert backend.chunk == 7

    def test_config_validates_chunk(self):
        with pytest.raises(ConfigError, match="kernel_chunk"):
            BFSConfig(kernel_chunk=0)

    def test_backend_rejects_bad_chunk(self):
        with pytest.raises(ConfigError, match="chunk"):
            ActiveSetBackend(chunk=0)

    def test_scan_wrapper_uses_process_default(self, monkeypatch):
        graph = path_graph(6)
        parent = visited_parent(graph, [2])
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        out = bottomup.scan(
            graph, np.array([0, 6]), parent,
            Bitmap.from_indices(6, np.array([2])), None,
        )
        assert out.chunk_rounds == 1  # reference: one full pass
        assert out.vertices.tolist() == [1, 3]
