"""Tests for the BFS kernels (rank state, top-down, bottom-up) and the
hybrid direction policy."""

import numpy as np
import pytest

from repro.core import BFSConfig, Bitmap, SummaryBitmap, TraversalMode
from repro.core import bottomup, topdown
from repro.core.counts import Direction
from repro.core.hybrid import DirectionPolicy, FrontierStats
from repro.core.state import RankState
from repro.errors import SimulationError
from repro.graph import Partition1D, path_graph
from repro.graph.generators import cycle_graph


def single_rank_state(graph):
    part = Partition1D(graph.num_vertices, 1)
    return RankState(part.extract_local(graph, 0)), part


class TestRankState:
    def test_discover_first_writer_wins(self):
        st, _ = single_rank_state(path_graph(5))
        new = st.discover(np.array([2, 2, 3]), np.array([1, 4, 2]))
        assert new.tolist() == [2, 3]
        assert st.parent[2] == 1  # first occurrence kept

    def test_discover_skips_visited(self):
        st, _ = single_rank_state(path_graph(5))
        st.discover(np.array([2]), np.array([1]))
        new = st.discover(np.array([2]), np.array([3]))
        assert new.size == 0
        assert st.parent[2] == 1

    def test_to_local_range_check(self):
        g = path_graph(8)
        part = Partition1D(8, 2)
        st = RankState(part.extract_local(g, 1))
        assert st.to_local(np.array([4])).tolist() == [0]
        with pytest.raises(SimulationError):
            st.to_local(np.array([3]))

    def test_discover_shape_mismatch(self):
        st, _ = single_rank_state(path_graph(3))
        with pytest.raises(SimulationError):
            st.discover(np.array([0, 1]), np.array([0]))


class TestTopDown:
    def test_expand_routes_to_owners(self):
        g = path_graph(8)
        part = Partition1D(8, 2)
        # Frontier = vertex 3 (rank 0); neighbours are 2 (owned by rank 0)
        # and 4 (owned by rank 1).
        out = topdown.expand(g, part, np.array([3]), [1])
        assert out.examined_edges.tolist() == [[2, 0]]
        assert out.counts.tolist() == [[[1, 1], [0, 0]]]
        assert out.pairs.tolist() == [[2, 3], [4, 3]]

    def test_expand_dedupes_children(self):
        g = cycle_graph(4)
        part = Partition1D(4, 1)
        # Vertices 0 and 2 are both adjacent to 1 and 3.
        out = topdown.expand(g, part, np.array([0, 2]), [2])
        # Each child once despite two finders; the first finder wins.
        assert out.pairs.tolist() == [[1, 0], [3, 0]]
        assert out.examined_edges.tolist() == [[4]]

    def test_expand_empty_frontier(self):
        g = path_graph(4)
        part = Partition1D(4, 2)
        out = topdown.expand(g, part, np.array([], dtype=np.int64), [0])
        assert out.examined_edges.tolist() == [[0, 0]]
        assert out.pairs.shape == (0, 2)
        assert not out.counts.any()

    def test_apply_received_discovers_once(self):
        g = path_graph(4)
        parent = np.full((1, 4), -1, dtype=np.int64)
        # Receiver-major: rank 0 got (1, 0) from itself and (1, 2) from
        # rank 1; rank 1 got (2, 1) from rank 0.
        recv = np.array([[1, 0], [1, 2], [2, 1]], dtype=np.int64)
        recv_counts = np.array([[[1, 1], [1, 0]]])
        found = topdown.apply_received(parent, [0], recv, recv_counts, g.degrees())
        assert found.vertices.tolist() == [1, 2]
        assert parent[0].tolist() == [-1, 0, 1, -1]  # first sender wins
        assert found.counts.tolist() == [[1, 1]]
        assert found.degree.tolist() == [[2, 2]]

    def test_apply_received_empty(self):
        g = path_graph(4)
        parent = np.full((1, 4), -1, dtype=np.int64)
        found = topdown.apply_received(
            parent, [0], np.zeros((0, 2), dtype=np.int64),
            np.zeros((1, 2, 2), dtype=np.int64), g.degrees(),
        )
        assert found.vertices.size == 0
        assert (parent == -1).all()


def bottom_up(graph, visited, frontier, granularity=None, ranks=1):
    """One whole-partition bottom-up scan from ``visited`` (their own
    parents) against ``frontier``; returns ``(result, parent)``."""
    n = graph.num_vertices
    parent = np.full(n, -1, dtype=np.int64)
    parent[visited] = visited
    inq = Bitmap.from_indices(n, np.asarray(frontier))
    summary = SummaryBitmap.build(inq, granularity) if granularity else None
    bounds = Partition1D(n, ranks).bounds
    return bottomup.scan(graph, bounds, parent, inq, summary), parent


class TestBottomUp:
    def setup_method(self):
        # Path 0-1-2-3-4-5, frontier = {2}; unvisited = all but 2.
        self.g = path_graph(6)

    def test_scan_finds_neighbors_of_frontier(self):
        res, parent = bottom_up(self.g, [2], [2])
        assert res.vertices.tolist() == [1, 3]
        assert parent[1] == 2
        assert parent[3] == 2
        assert res.candidates == 5  # all unvisited non-isolated

    def test_early_exit_examined_counts(self):
        res, _ = bottom_up(self.g, [2], [2], ranks=2)
        # v0: checks 1 -> miss (1 edge). v1: checks 0 (miss), 2 (hit) -> 2.
        # v3: checks 2 (hit) -> 1. v4: 3, 5 -> 2 misses. v5: 4 -> 1 miss.
        assert res.examined_edges == 1 + 2 + 1 + 2 + 1
        # Rank 0 owns 0..2, rank 1 owns 3..5.
        assert res.rank_examined.tolist() == [1 + 2, 1 + 2 + 1]
        assert res.rank_candidates.tolist() == [2, 3]
        assert res.rank_degree.tolist() == [2, 2]
        assert res.inqueue_reads == res.examined_edges  # no summary

    def test_summary_reduces_inqueue_reads(self):
        # Frontier block is bits 0..63; all of path fits in one block, so
        # use a bigger graph for a meaningful filter.
        g = path_graph(256)
        res, _ = bottom_up(g, [100], [100], granularity=64)
        res_nosum, _ = bottom_up(g, [100], [100])
        assert res.examined_edges > 0
        assert res.inqueue_reads < res.examined_edges
        # The summary never changes what is discovered or examined.
        assert res.examined_edges == res_nosum.examined_edges

    def test_scan_without_candidates(self):
        res, _ = bottom_up(self.g, np.arange(6), [2])
        assert res.candidates == 0
        assert res.vertices.size == 0

    def test_empty_frontier_discovers_nothing(self):
        res, parent = bottom_up(self.g, [2], [])
        assert res.vertices.size == 0
        # Every unvisited vertex scanned its whole adjacency.
        assert res.examined_edges == self.g.degrees()[parent < 0].sum()


class TestDirectionPolicy:
    def stats(self, n_f=1, m_f=1, m_u=1000, n=1000):
        return FrontierStats(
            frontier_vertices=n_f,
            frontier_edges=m_f,
            unexplored_edges=m_u,
            num_vertices=n,
        )

    def test_starts_top_down(self):
        p = DirectionPolicy(BFSConfig())
        assert p.decide(self.stats()) == Direction.TOP_DOWN

    def test_switches_to_bottom_up_on_alpha(self):
        p = DirectionPolicy(BFSConfig(alpha=14))
        assert p.decide(self.stats(m_f=1, m_u=1000)) == Direction.TOP_DOWN
        assert p.decide(self.stats(m_f=100, m_u=1000)) == Direction.BOTTOM_UP

    def test_switches_back_on_beta_and_stays(self):
        p = DirectionPolicy(BFSConfig(alpha=14, beta=24))
        p.decide(self.stats(m_f=500, m_u=1000))  # -> bottom-up
        assert p.direction == Direction.BOTTOM_UP
        assert p.decide(self.stats(n_f=10, n=1000)) == Direction.TOP_DOWN
        # Even with a huge frontier again, no second bottom-up phase.
        assert p.decide(self.stats(m_f=10**9, m_u=1)) == Direction.TOP_DOWN

    def test_pure_modes(self):
        p = DirectionPolicy(BFSConfig(mode=TraversalMode.TOP_DOWN))
        assert p.decide(self.stats(m_f=10**9, m_u=1)) == Direction.TOP_DOWN
        p = DirectionPolicy(BFSConfig(mode=TraversalMode.BOTTOM_UP))
        assert p.decide(self.stats()) == Direction.BOTTOM_UP
