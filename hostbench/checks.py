"""Answer checks, run after the timed passes on one process per CPU.

Single-source answers must pass the Graph500 ``validate_parent_tree``
checks and give the same depths as scipy's BFS on the same graph.
Serving answers must be bit-identical to ``BFSEngine.run`` on the same
root.  Workers are spawned fresh and get the graph once, through their
initializer.  Spawning starts multiprocessing's resource tracker, a
helper process that would outlive this one; each pool stops it and
waits for it when the pool closes.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import resource_tracker

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from repro.core.engine import BFSEngine
from repro.core.validate import validate_parent_tree
from repro.errors import ValidationError

# Per-worker state, set once by the pool initializer.
_state: dict = {}


def fingerprint(parent: np.ndarray, weights: np.ndarray) -> int:
    """64-bit random-weight fingerprint of a parent array (the dot
    product wraps mod 2**64).  Two parent arrays over ``n < 2**15``
    vertices differ by less than ``2**16`` per entry, so they collide
    with probability at most ``2**-48``."""
    return int(parent @ weights)


def _init(cpus, initializer, initargs) -> None:
    # A spawned worker inherits the measuring process's pinning.
    os.sched_setaffinity(0, cpus)
    initializer(*initargs)


@contextmanager
def _pool(cpus, initializer, initargs):
    """One spawned worker per CPU in ``cpus``, each free to use them all.
    On the way out, whether or not the work raised, every worker and the
    resource tracker have ended."""
    try:
        with ProcessPoolExecutor(
            max_workers=len(cpus),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init,
            initargs=(cpus, initializer, initargs),
        ) as pool:
            yield pool
    finally:
        # Closes the tracker's pipe and waits for it to exit.
        resource_tracker._resource_tracker._stop()


def _init_trees(graphs) -> None:
    _state["graphs"] = graphs
    _state["adj"] = [
        csr_array(
            (np.ones(g.targets.size, dtype=np.int8), g.targets, g.offsets),
            shape=(g.num_vertices, g.num_vertices),
        )
        for g in graphs
    ]


def _check_tree(item: tuple) -> bool:
    index, root, parent = item
    graph = _state["graphs"][index]
    dist = shortest_path(_state["adj"][index], method="D", unweighted=True,
                         indices=root)
    depths = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    try:
        levels = validate_parent_tree(graph, root, parent)
    except ValidationError:
        return False
    return bool(np.array_equal(levels, depths))


def check_trees(graphs, items, cpus) -> list[bool]:
    """For each ``(graph index, root, parent)``: Graph500-valid and
    scipy's depths on ``graphs[graph index]``."""
    if not items:
        return []
    with _pool(cpus, _init_trees, (graphs,)) as pool:
        return list(pool.map(_check_tree, items))


def _init_reference(graphs, cluster, config, weights) -> None:
    _state["engines"] = [BFSEngine(g, cluster, config) for g in graphs]
    _state["weights"] = weights


def _reference(item: tuple) -> tuple:
    index, root = item
    res = _state["engines"][index].run(root)
    return (res.seconds, res.levels, res.traversed_edges,
            fingerprint(res.parent, _state["weights"]))


def reference_answers(graphs, cluster, config, weights, items,
                      cpus) -> list[tuple]:
    """``(seconds, levels, edges, fingerprint)`` of ``BFSEngine.run``
    for each ``(graph index, root)``."""
    with _pool(cpus, _init_reference,
               (graphs, cluster, config, weights)) as pool:
        return list(pool.map(_reference, items, chunksize=32))
