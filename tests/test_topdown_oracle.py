"""Differential test of the shared top-down step against a per-rank oracle.

The oracle is the Graph500 ``mpi_simple`` level written out rank by rank
in plain Python: every sender walks its frontier in discovery order and
keeps, per destination, a coalescing buffer holding the first parent
seen for each child; its message to a destination lists the buffer's
pairs with children ascending.  Every receiver then reads its messages
sender-ascending and keeps the first parent of each undiscovered child
(first sender wins), appending the child to its next frontier.

The fused step (:func:`repro.core.topdown.expand` →
:meth:`repro.mpi.simcomm.SimComm.alltoallv` →
:func:`repro.core.topdown.apply_received`) must reproduce the oracle's
parents, next-frontier order, ``examined_edges`` and send bytes at every
level, for one lane and for several at once, and both engines must
report the same through their results.  Depths are checked against
``scipy.sparse.csgraph``.
"""

from bisect import bisect_right

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core import BFSConfig, BFSEngine, TraversalMode, topdown
from repro.core.multisource import MultiSourceEngine
from repro.core.prepared import PreparedGraph
from repro.graph import from_edge_arrays
from repro.graph.types import Graph
from repro.machine import paper_cluster
from repro.mpi.simcomm import SimComm

CONFIG = BFSConfig(mode=TraversalMode.TOP_DOWN)


def oracle_level(graph, bounds, parent, frontier):
    """One top-down level, rank by rank.

    ``frontier[i]`` lists sender ``i``'s frontier (global ids, in
    discovery order).  Writes ``parent`` and returns ``(examined,
    messages, next_frontier)`` with ``messages[i][j]`` the (child,
    parent) pairs rank ``i`` sends to rank ``j``.
    """
    ranks = len(bounds) - 1
    offsets, targets = graph.offsets.tolist(), graph.targets.tolist()
    examined = [0] * ranks
    messages = []
    for i in range(ranks):
        buffers = [{} for _ in range(ranks)]
        for u in frontier[i]:
            for v in targets[offsets[u]:offsets[u + 1]]:
                examined[i] += 1
                buffers[bisect_right(bounds, v) - 1].setdefault(v, u)
        messages.append([sorted(b.items()) for b in buffers])
    next_frontier = [[] for _ in range(ranks)]
    for j in range(ranks):
        for i in range(ranks):
            for v, u in messages[i][j]:
                if parent[v] < 0:
                    parent[v] = u
                    next_frontier[j].append(v)
    return examined, messages, next_frontier


def oracle_bfs(graph, bounds, root):
    """Run the oracle to exhaustion: ``(parent, depth, levels)``, where
    each level records ``(examined, send_bytes, next_frontier)``."""
    ranks = len(bounds) - 1
    parent = [-1] * graph.num_vertices
    depth = [-1] * graph.num_vertices
    parent[root], depth[root] = root, 0
    frontier = [[] for _ in range(ranks)]
    frontier[bisect_right(bounds, root) - 1].append(root)
    levels = []
    while any(frontier):
        examined, messages, frontier = oracle_level(
            graph, bounds, parent, frontier
        )
        send_bytes = [
            [topdown.PAIR_BYTES * len(m) for m in row] for row in messages
        ]
        for part in frontier:
            for v in part:
                depth[v] = len(levels) + 1
        levels.append((examined, send_bytes, frontier))
    return parent, depth, levels


def raw_graph(n, src, dst):
    """A CSR that keeps self-loops, duplicate edges and each row's
    insertion order (the builder would drop, dedup and sort them)."""
    src, dst = np.asarray(src), np.asarray(dst)
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_src, kind="stable")
    offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(all_src, minlength=n))]
    ).astype(np.int64)
    return Graph(n, offsets, all_dst[order].astype(np.int64))


def make_graph(kind, n, rng):
    """``(graph, roots)``: an adversarial graph and three roots."""
    m = 3 * n
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    if kind == "random":
        g = from_edge_arrays(n, src, dst)
    elif kind == "isolated_root":
        # Vertices n-64.. have no edges; the first root is one of them.
        g = from_edge_arrays(n, src % (n - 64), dst % (n - 64))
        return g, [n - 1, int(np.argmax(g.degrees())), int(src[0] % 64)]
    elif kind == "self_loops_multi_edges":
        loops = rng.integers(0, n, n // 4)
        dup = rng.integers(0, m, m // 3)
        g = raw_graph(
            n,
            np.concatenate([src, loops, src[dup]]),
            np.concatenate([dst, loops, dst[dup]]),
        )
    elif kind == "giant_hub":
        hub = int(rng.integers(0, n))
        leaves = np.arange(n)
        g = from_edge_arrays(
            n,
            np.concatenate([np.full(n, hub), src[: n // 2]]),
            np.concatenate([leaves, dst[: n // 2]]),
        )
    else:  # pragma: no cover - parametrization guard
        raise ValueError(kind)
    roots = rng.choice(n, 3, replace=False).tolist()
    roots[1] = int(np.argmax(g.degrees()))
    return g, roots


def scipy_depths(graph, root):
    m = csr_matrix(
        (np.ones(graph.targets.size), graph.targets, graph.offsets),
        shape=(graph.num_vertices,) * 2,
    )
    d = dijkstra(m, indices=root, unweighted=True)
    return np.where(np.isinf(d), -1, d).astype(np.int64)


KINDS = ["random", "isolated_root", "self_loops_multi_edges", "giant_hub"]
NODES = [1, 2, 16]


@pytest.fixture(scope="module", params=[(k, nodes) for nodes in NODES
                                        for k in KINDS],
                ids=lambda p: f"{p[0]}-{p[1]}n")
def case(request):
    """A graph on ``nodes`` nodes with ``n`` not a multiple of 64 x
    ranks, its prepared partition, and the oracle's run per root."""
    kind, nodes = request.param
    cluster = paper_cluster(nodes=nodes)
    ranks = CONFIG.resolve_ppn(cluster) * nodes
    n = 64 * (ranks + 3)
    g, roots = make_graph(kind, n, np.random.default_rng(nodes))
    prepared = PreparedGraph.prepare(g, cluster, CONFIG)
    bounds = prepared.partition.bounds.tolist()
    assert n % (64 * ranks) != 0
    runs = [oracle_bfs(g, bounds, r) for r in roots]
    return g, cluster, prepared, roots, runs


@pytest.mark.parametrize("lanes", [1, 3])
def test_fused_step_matches_oracle_level_by_level(case, lanes):
    g, cluster, prepared, roots, runs = case
    roots, runs = roots[:lanes], runs[:lanes]
    comm = SimComm(cluster, prepared.mapping)
    n = g.num_vertices
    parent = np.full((lanes, n), -1, dtype=np.int64)
    parent[np.arange(lanes), roots] = roots
    frontiers = [np.array([r]) for r in roots]
    level = 0
    while any(f.size for f in frontiers):
        out = topdown.expand(
            g, prepared.partition, np.concatenate(frontiers),
            [f.size for f in frontiers],
        )
        res = comm.alltoallv(out.pairs, out.counts)
        found = topdown.apply_received(
            parent, range(lanes), *res.data, prepared.degrees
        )
        cuts = np.concatenate(([0], np.cumsum(found.counts.sum(axis=1))))
        for lane, (_p, _d, levels) in enumerate(runs):
            if level >= len(levels):
                assert frontiers[lane].size == 0
                continue
            examined, send_bytes, nxt = levels[level]
            assert out.examined_edges[lane].tolist() == examined
            assert (out.counts[lane] * topdown.PAIR_BYTES).tolist() == send_bytes
            assert found.counts[lane].tolist() == [len(p) for p in nxt]
            frontiers[lane] = found.vertices[cuts[lane]:cuts[lane + 1]]
            # Next-frontier order: rank by rank, each in discovery order.
            assert frontiers[lane].tolist() == [v for p in nxt for v in p]
        level += 1
    for lane, (oracle_parent, depth, levels) in enumerate(runs):
        assert level >= len(levels)
        assert parent[lane].tolist() == oracle_parent
        assert np.array_equal(depth, scipy_depths(g, roots[lane]))


@pytest.mark.parametrize("lanes", [1, 3])
def test_engines_report_the_oracle_counts(case, lanes):
    g, cluster, prepared, roots, runs = case
    roots, runs = roots[:lanes], runs[:lanes]
    if lanes == 1:
        results = [BFSEngine(g, cluster, CONFIG, prepared=prepared).run(roots[0])]
    else:
        results = MultiSourceEngine(
            g, cluster, CONFIG, prepared=prepared
        ).run_batch(roots)
    for res, (oracle_parent, depth, levels) in zip(results, runs):
        assert res.parent.tolist() == oracle_parent
        assert res.levels == len(levels) == len(res.counts.levels)
        for lc, (examined, send_bytes, nxt) in zip(res.counts.levels, levels):
            assert lc.direction == "top_down"
            assert lc.examined_edges.tolist() == examined
            assert lc.td_send_bytes.tolist() == send_bytes
            assert lc.discovered.tolist() == [len(p) for p in nxt]
