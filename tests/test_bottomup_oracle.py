"""Differential test of the whole-partition bottom-up scan against a
per-rank oracle.

The oracle is the bottom-up level written out rank by rank in plain
Python: every rank walks its own vertex range in ascending order, and
each undiscovered vertex with edges (a candidate) reads its adjacency in
CSR order until the first neighbour in the frontier, which becomes its
parent.  Every edge of that walk counts as examined; it reads
``in_queue`` only when there is no summary or the neighbour's summary
block holds a frontier vertex (Section II.B.2).

Every kernel backend scans all ranks in one call
(:meth:`~repro.core.kernels.KernelBackend.bottom_up_scan`) and must
reproduce the oracle's parents, discovery order and per-rank candidate,
examined-edge, in_queue-read and discovered-degree counts at every level
of a bottom-up traversal; ``BFSEngine`` must report the same counts, and
call the kernel once per bottom-up level whatever the rank count.
"""

import numpy as np
import pytest

from repro.core import BFSConfig, BFSEngine, Bitmap, CommConfig, SummaryBitmap
from repro.core import TraversalMode
from repro.core.kernels import ReferenceBackend, get_backend
from repro.core.prepared import PreparedGraph
from repro.machine import paper_cluster
from tests.test_topdown_oracle import KINDS, NODES, make_graph, scipy_depths

BACKENDS = ["reference", "activeset", "cnative"]
GRANULARITIES = [None, 64, 256]


def oracle_level(graph, bounds, parent, frontier, granularity):
    """One bottom-up level, rank by rank.

    Writes ``parent`` and returns per-rank lists ``(candidates,
    examined, reads, degree, discovered)``, ``discovered[r]`` in
    discovery order.
    """
    offsets, targets = graph.offsets.tolist(), graph.targets.tolist()
    in_queue = set(frontier)
    blocks = (
        None if granularity is None else {v // granularity for v in in_queue}
    )
    out = []
    for r in range(len(bounds) - 1):
        cand = examined = reads = degree = 0
        found = []
        for u in range(bounds[r], bounds[r + 1]):
            edges = targets[offsets[u]:offsets[u + 1]]
            if parent[u] >= 0 or not edges:
                continue
            cand += 1
            for v in edges:
                examined += 1
                if blocks is not None and v // granularity not in blocks:
                    continue
                reads += 1
                if v in in_queue:
                    parent[u] = v
                    found.append(u)
                    degree += len(edges)
                    break
        out.append((cand, examined, reads, degree, found))
    return [list(col) for col in zip(*out)]


def oracle_bfs(graph, bounds, root, granularity):
    """Bottom-up levels to exhaustion: the parent array before each
    level, the level's frontier and its oracle outcome."""
    parent = [-1] * graph.num_vertices
    parent[root] = root
    frontier = [root]
    levels = []
    while frontier:
        before = list(parent)
        outcome = oracle_level(graph, bounds, parent, frontier, granularity)
        levels.append((before, frontier, outcome))
        frontier = [v for part in outcome[4] for v in part]
    return parent, levels


@pytest.fixture(scope="module", params=[(k, nodes, g) for nodes in NODES
                                        for k in KINDS
                                        for g in GRANULARITIES],
                ids=lambda p: f"{p[0]}-{p[1]}n-g{p[2]}")
def case(request):
    """A graph on ``nodes`` nodes with ``n`` not a multiple of 64 x
    ranks, its prepared partition, and the oracle's bottom-up runs from
    two roots (the isolated one, for that kind, and the hub)."""
    kind, nodes, granularity = request.param
    cluster = paper_cluster(nodes=nodes)
    config = BFSConfig(
        mode=TraversalMode.BOTTOM_UP,
        comm=(
            CommConfig(use_summary=False)
            if granularity is None
            else CommConfig(summary_granularity=granularity)
        ),
    )
    ranks = config.resolve_ppn(cluster) * nodes
    n = 64 * (ranks + 3)
    g, roots = make_graph(kind, n, np.random.default_rng(nodes))
    prepared = PreparedGraph.prepare(g, cluster, config)
    assert n % (64 * ranks) != 0
    bounds = prepared.partition.bounds.tolist()
    runs = [(r, *oracle_bfs(g, bounds, r, granularity)) for r in roots[:2]]
    return g, cluster, config, prepared, granularity, runs


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_scan_matches_oracle_level_by_level(case, backend_name):
    g, _cluster, _config, prepared, granularity, runs = case
    for root, final, levels in runs:
        check_levels(g, prepared, get_backend(backend_name), granularity,
                     root, final, levels)


def check_levels(g, prepared, backend, granularity, root, final, levels):
    bounds = prepared.partition.bounds
    n = g.num_vertices
    for before, frontier, (cand, examined, reads, degree, found) in levels:
        parent = np.array(before, dtype=np.int64)
        in_queue = Bitmap.from_indices(n, np.array(frontier, dtype=np.int64))
        summary = (
            None if granularity is None
            else SummaryBitmap.build(in_queue, granularity)
        )
        out = backend.bottom_up_scan(g, bounds, parent, in_queue, summary)
        # Discovery order: rank by rank, each ascending.
        assert out.vertices.tolist() == [v for part in found for v in part]
        assert out.rank_candidates.tolist() == cand
        assert out.rank_examined.tolist() == examined
        assert out.rank_inqueue_reads.tolist() == reads
        assert out.rank_degree.tolist() == degree
        assert out.candidates == sum(cand)
        assert out.examined_edges == sum(examined)
        assert out.inqueue_reads == sum(reads)
    assert parent.tolist() == final
    depth = scipy_depths(g, root)
    assert np.array_equal(parent >= 0, depth >= 0)


def test_engine_reports_the_oracle_counts(case):
    g, cluster, config, prepared, _g, runs = case
    engine = BFSEngine(g, cluster, config, prepared=prepared)
    for root, final, levels in runs:
        res = engine.run(root)
        assert res.parent.tolist() == final
        assert res.levels == len(levels)
        for lc, (_b, _f, outcome) in zip(res.counts.levels, levels):
            cand, examined, reads, _degree, found = outcome
            assert lc.direction == "bottom_up"
            assert lc.candidates.tolist() == cand
            assert lc.examined_edges.tolist() == examined
            assert lc.inqueue_reads.tolist() == reads
            assert lc.discovered.tolist() == [len(p) for p in found]


class CountingBackend(ReferenceBackend):
    """The reference scan, counting its calls."""

    def __init__(self):
        self.calls = 0

    def bottom_up_scan(self, *args):
        self.calls += 1
        return super().bottom_up_scan(*args)


@pytest.mark.parametrize("nodes", NODES)
def test_engine_calls_the_kernel_once_per_bottom_up_level(nodes):
    g, roots = make_graph("random", 64 * 140, np.random.default_rng(7))
    cluster = paper_cluster(nodes=nodes)
    config = BFSConfig(kernel="reference")
    engine = BFSEngine(g, cluster, config)
    expected = engine.run(roots[1])
    engine.kernel = stub = CountingBackend()
    res = engine.run(roots[1])
    bu_levels = sum(lc.direction == "bottom_up" for lc in res.counts.levels)
    assert bu_levels > 0
    assert stub.calls == bu_levels
    assert np.array_equal(res.parent, expected.parent)
    assert res.seconds == expected.seconds
