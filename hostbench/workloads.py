"""The host benchmark's three workloads: set-up, timed passes, checks.

Every workload pins its configuration (``kernel="cnative"``, raw codec)
and draws its graph and roots from the run's seed; the program only ever
sees the generated graph and roots.  End-to-end metrics come from an
untraced pass.  With tracing on, a second pass replays exactly the same
queries under :class:`layers.LayerTracer` for the per-layer metrics, and
its simulated outputs must match the untraced pass bit for bit.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import hashlib
import os
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import BFSConfig
from repro.core.engine import BFSEngine
from repro.core.prepared import PreparedGraph
from repro.graph.builder import build_graph
from repro.graph.rmat import generate_rmat_edges
from repro.machine.spec import paper_cluster
from repro.serve.scheduler import BatchScheduler
from repro.serve.session import GraphSession

import checks
from layers import LayerTracer
from reference import REF_NS, Reference

KERNEL = "cnative"
CODEC = "raw"
#: Serving: cold bursts per graph, one before the paced phase, one after.
BURSTS = 2
#: Set-ups per run: at least this many, and more until they have taken
#: ``SETUP_MIN_SECONDS``; ``setup_s`` is their median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0


class BenchError(RuntimeError):
    """The benchmark cannot measure what it claims to (e.g. the pinned
    kernel resolved to another backend)."""


@dataclass(frozen=True)
class Spec:
    """One workload's fixed inputs (the seed supplies the rest)."""

    kind: str  # "single" or "serve"
    scale: int
    nodes: int
    preset: str  # BFSConfig classmethod, e.g. "original_ppn8"
    #: Graphs per run, each seeded from the run's seed and measured in
    #: turn with an equal share of the queries.
    graphs: int = 1
    #: Single-source: the distinct roots the loop cycles through on each
    #: graph, and the fewest timed queries over all graphs (at 100, p90
    #: has ten samples beyond it).
    roots: int = 0
    min_queries: int = 100
    #: Serving: cold queries in the capacity burst, and the paced
    #: phase's offered rate and share of the run's seconds.
    burst: int = 0
    rate: float = 0.0
    paced_share: float = 0.85
    max_batch: int = 64
    warm_burst: int = 64

    def config(self) -> BFSConfig:
        base = getattr(BFSConfig, self.preset)()
        return replace(
            base, kernel=KERNEL, comm=replace(base.comm, codec=CODEC)
        )


# Graphs and roots: a query's host time depends on its direction
# pattern (a second top-down level at the end costs up to 2x), and the
# mix of patterns differs from one R-MAT graph to the next as much as
# from root to root; serving batches on one graph ran 20% slower, with a
# 15% higher peak RSS, than on another.  So a run spreads its queries
# over several graphs and many distinct roots, or its metrics would
# follow the seed;
# each distinct answer costs a Graph500 validation, which bounds the
# root count at scale 17.  The paced rate sends a query every 25 ms,
# longer than most single-lane batches take, so paced batches seldom
# queue: at 60 queries/s the executor was 88% busy, and the batch sizes
# and engine times of the paced phase moved with every slow stretch of
# the machine.
SPECS = {
    # Fig. 9's full stack at the paper's 16 nodes x ppn 8.
    "paper-128r": Spec("single", 16, 16, "granularity_variant", graphs=4,
                       roots=32),
    "kernels-16r": Spec("single", 17, 2, "original_ppn8", graphs=2,
                        roots=24),
    "serve-open": Spec(
        "serve", 14, 2, "original_ppn8", graphs=3, burst=768, rate=40.0,
    ),
}

#: Tiny sizes for the benchmark's self-tests; not comparable numbers.
SMOKE = {
    "paper-128r": replace(
        SPECS["paper-128r"], scale=13, graphs=2, roots=2, min_queries=4,
    ),
    "kernels-16r": replace(
        SPECS["kernels-16r"], scale=12, graphs=2, roots=2, min_queries=4,
    ),
    "serve-open": replace(
        SPECS["serve-open"], scale=11, graphs=2, burst=32, warm_burst=8,
    ),
}


@dataclass
class Query:
    """One timed query as the benchmark saw it (times in ns)."""

    root: int
    due: int
    done: int
    sim_seconds: float
    levels: int
    edges: int
    #: Single-source: the answer's parent array when it is the first for
    #: its root or differs from that first answer, else None.
    #: Serving: a 64-bit fingerprint of the parent array.
    answer: object = None
    #: Serving: when the generator actually sent it, and the index of
    #: the ``run_batch`` call that answered it.
    sent: int = 0
    call: int = -1
    #: Which of the run's graphs it ran on.
    graph: int = 0
    #: Serving: sent in the paced phase rather than a burst.
    paced: bool = False


@dataclass
class Pass:
    """Everything one timed pass produced."""

    queries: list[Query]
    #: Engine calls that answered the queries: (start ns, end ns, roots).
    calls: list[tuple[int, int, tuple]]
    #: Serving: ``(queries, wall seconds)`` of each cold burst.
    bursts: list[tuple[int, float]] = field(default_factory=list)
    sched_stats: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Times of the reference workload taken between this pass's calls.
    reference: list[int] = field(default_factory=list)

    def extend(self, other: "Pass", graph: int) -> None:
        """Append a serving pass over the run's ``graph``-th graph."""
        for q in other.queries:
            q.graph = graph
            if q.call >= 0:
                q.call += len(self.calls)
        self.queries += other.queries
        self.calls += other.calls
        self.bursts += other.bursts
        for key, value in other.sched_stats.items():
            self.sched_stats[key] = self.sched_stats.get(key, 0) + value
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)
        self.reference += other.reference

    def paced(self) -> list[tuple[int, Query]]:
        """Serving: ``(index, query)`` of each paced query."""
        return [(i, q) for i, q in enumerate(self.queries) if q.paced]

    def burst(self) -> list[Query]:
        """Serving: the queries of the cold bursts."""
        return [q for q in self.queries if not q.paced]

    def digest(self) -> str:
        """Digest of the simulated outputs: seconds, levels, edges."""
        h = hashlib.sha256()
        for q in self.queries:
            h.update(
                f"{q.root}:{q.sim_seconds.hex()}:{q.levels}:{q.edges};"
                .encode()
            )
        return h.hexdigest()[:16]


@dataclass
class Report:
    """A finished run: metrics and correctness."""

    #: As measured, and the bounded metrics: {name: (value, unit, n)}.
    host: dict[str, tuple[float, str, int]]
    end_to_end: dict[str, tuple[float, str, int]]
    per_layer: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    sim_digest: str
    traced_digest: str | None
    setup_reps: list[float]
    #: Traced pass: mean host ms per query measured around the engine
    #: call, against which the layer times must add up.
    traced_query_ms: float = 0.0
    #: Serving: paced-phase latencies (ms) of the untraced pass.
    paced_ms: list[float] = field(default_factory=list)
    #: Median reference time of the untraced pass (ns).
    reference_ns: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Exact percentile of raw samples (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---- set-up ---------------------------------------------------------------


@dataclass
class Built:
    graph: object
    runner: object  # BFSEngine or GraphSession
    times: dict[str, float]


def build(spec: Spec, seed: int) -> Built:
    """Graph generation, CSR build, prepare and engine or session
    construction, each timed."""
    cluster = paper_cluster(nodes=spec.nodes)
    config = spec.config()
    t0 = time.perf_counter()
    edges = generate_rmat_edges(spec.scale, seed=seed)
    t1 = time.perf_counter()
    graph = build_graph(edges)
    t2 = time.perf_counter()
    prepared = PreparedGraph.prepare(graph, cluster, config)
    t3 = time.perf_counter()
    if spec.kind == "single":
        runner = BFSEngine(graph, cluster, config, prepared=prepared)
        engine = runner
    else:
        runner = GraphSession(graph, cluster, config, prepared)
        engine = runner.engine.engine
    t4 = time.perf_counter()
    if engine.kernel.name != KERNEL or engine.codec is not None:
        raise BenchError(
            f"pinned kernel={KERNEL} codec={CODEC} resolved to "
            f"kernel={engine.kernel.name} codec={engine.codec}"
        )
    times = {
        "rmat_s": t1 - t0, "csr_s": t2 - t1, "prepare_s": t3 - t2,
        "total_s": t4 - t0,
    }
    return Built(graph, runner, times)


def graph_seed(seed: int, index: int) -> int:
    """R-MAT seed of the run's ``index``-th graph."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def top_up_setups(spec: Spec, seed: int, reps: list[dict]) -> None:
    """Time more set-ups of the run's first graph until there are
    :data:`SETUP_MIN_REPS` and they took :data:`SETUP_MIN_SECONDS`."""
    while (len(reps) < SETUP_MIN_REPS
           or sum(r["total_s"] for r in reps) < SETUP_MIN_SECONDS):
        gc.collect()
        reps.append(build(spec, graph_seed(seed, 0)).times)


def sample_roots(graph, rng, count: int) -> list[int]:
    """``count`` distinct non-zero-degree roots."""
    candidates = np.flatnonzero(np.diff(graph.offsets) > 0)
    if candidates.size < count:
        raise BenchError(
            f"graph has {candidates.size} non-isolated vertices, "
            f"{count} roots needed"
        )
    return [int(r) for r in rng.choice(candidates, size=count, replace=False)]


def _corrupt(parent: np.ndarray, root: int) -> np.ndarray:
    """A copy of ``parent`` made invalid: a reached vertex becomes its
    own parent."""
    bad = parent.copy()
    reached = np.flatnonzero(bad >= 0)
    victim = int(reached[reached != root][0]) if reached.size > 1 else root
    bad[victim] = victim if victim != root else -1
    return bad


# ---- single source ----------------------------------------------------------


def single_pass(engine, roots, picker=None, reference=None, *, graph=0,
                offset=0, seconds=None, min_queries=0, count=None,
                corrupt=0, tracer=None) -> tuple[list[Query], list]:
    """Run ``engine.run`` back to back over ``roots`` (cycled) for
    ``seconds`` (and at least ``min_queries``) or exactly ``count``
    queries; returns the queries and the timed calls.

    Between timed calls each answer is compared with the first answer
    for its root (only first answers and answers that differ are kept
    for validation), ``picker`` may move the process to another CPU, and
    ``reference`` is timed when due.  ``offset`` numbers the queries
    after those of earlier graphs.
    """
    first: dict[int, np.ndarray] = {}
    queries: list[Query] = []
    calls = []
    gc.collect()
    start = time.perf_counter()
    i = 0
    while (
        i < count if count is not None
        else i < min_queries or time.perf_counter() - start < seconds
    ):
        root = roots[i % len(roots)]
        if tracer is not None:
            tracer.request = offset + i
        t0 = time.perf_counter_ns()
        res = engine.run(root)
        t1 = time.perf_counter_ns()
        parent = res.parent if i >= corrupt else _corrupt(res.parent, root)
        answer = None
        if root not in first:
            first[root] = answer = parent
        elif not np.array_equal(parent, first[root]):
            answer = parent
        queries.append(Query(root, t0, t1, res.seconds, res.levels,
                             res.traversed_edges, answer, graph=graph))
        calls.append((t0, t1, (root,)))
        if picker is not None:
            picker.pick_if_due()
        if reference is not None:
            reference.sample_if_due()
        i += 1
    return queries, calls


def single_run(spec: Spec, seed: int, seconds: float, tracer, corrupt: int,
               reps: list[dict], picker) -> tuple[Pass, Pass | None, list]:
    """Build each of the run's graphs in turn (timed, into ``reps``),
    measure its share of the queries, and with a tracer replay them.

    Returns the untraced pass, the traced one, and the graphs; a graph's
    engine is dropped before the next graph is built.
    """
    rng = np.random.default_rng([seed, 1])
    min_queries = -(-spec.min_queries // spec.graphs)
    untraced, traced = Pass([], []), Pass([], [])
    reference = Reference()
    graphs = []
    for g in range(spec.graphs):
        built = build(spec, graph_seed(seed, g))
        reps.append(built.times)
        graphs.append(built.graph)
        engine = built.runner
        roots = sample_roots(built.graph, rng, spec.roots)
        engine.run(roots[0])
        queries, calls = single_pass(
            engine, roots, picker, reference, graph=g,
            offset=len(untraced.queries),
            seconds=seconds / spec.graphs, min_queries=min_queries,
            corrupt=corrupt if g == 0 else 0,
        )
        untraced.queries += queries
        untraced.calls += calls
        untraced.peak_rss_mb = peak_rss_mb()
        if tracer is not None:
            with tracer:
                queries, calls = single_pass(
                    engine, roots, picker, graph=g,
                    offset=len(traced.queries), count=len(queries),
                    tracer=tracer,
                )
            traced.queries += queries
            traced.calls += calls
        del built, engine
        gc.collect()
    untraced.reference = reference.samples
    return untraced, traced if tracer is not None else None, graphs


def check_single(graphs, queries: list[Query], cpus) -> int:
    """Failed answers: each kept answer must pass the Graph500 checks
    and match scipy's BFS depths; the others equal their root's first
    answer on the same graph, and fail with it."""
    kept = [i for i, q in enumerate(queries) if q.answer is not None]
    verdicts = checks.check_trees(
        graphs, [(queries[i].graph, queries[i].root, queries[i].answer)
                 for i in kept], cpus,
    )
    good = dict(zip(kept, verdicts))
    first: dict[tuple[int, int], bool] = {}
    failed = 0
    for i, q in enumerate(queries):
        ok = good[i] if i in good else first[q.graph, q.root]
        first.setdefault((q.graph, q.root), ok)
        failed += not ok
    return failed


# ---- serving ----------------------------------------------------------------


def _time_calls(session, calls: list, tracer) -> None:
    """Time every ``run_batch`` call of ``session`` in place.

    The wrapper keeps the method's signature, so the scheduler still
    detects ``cancel=``.  When tracing it also records a
    ``session.run_batch`` span whose request is the batch's roots.
    """
    original = session.run_batch
    inner = original
    if tracer is not None:
        inner = tracer.wrap("session.run_batch", original)

    @functools.wraps(original)
    def run_batch(sources, *args, **kwargs):
        roots = tuple(int(s) for s in sources)
        if tracer is not None:
            tracer.request = roots
        t0 = time.perf_counter_ns()
        try:
            return inner(sources, *args, **kwargs)
        finally:
            calls.append((t0, time.perf_counter_ns(), roots))

    session.run_batch = run_batch


async def serve_pass(session, spec: Spec, warm, burst, paced, weights,
                     picker=None, *, corrupt: int = 0, tracer=None) -> Pass:
    """Drive ``BatchScheduler.submit`` open loop: ``burst`` is sent as
    :data:`BURSTS` cold bursts, each all at once, half of them before
    ``paced`` is sent at ``spec.rate`` queries per second and half
    after.  Capacity is the median of the bursts' rates, so a short slow
    stretch of the machine during one burst does not set it.

    Each query is timed from its due send time; its answer is reduced
    to a fingerprint on arrival, so the pass holds no parent arrays.
    ``warm`` roots run first, untimed, so lazy set-up and the first
    batches' allocations are out of the way.  Before each phase and,
    during the paced phase, while no query is in flight, ``picker`` may
    move the process to another CPU and the reference workload is timed.
    """
    reference = Reference()
    loop = asyncio.get_running_loop()
    loop.set_default_executor(
        ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))
    )
    calls: list[tuple[int, int, tuple]] = []
    _time_calls(session, calls, tracer)
    queries: list[Query] = []
    in_flight = 0

    async def one(sched, root: int, due: int, paced=False) -> None:
        nonlocal in_flight
        index = len(queries)
        q = Query(root, due, 0, 0.0, 0, 0, sent=time.perf_counter_ns(),
                  paced=paced)
        queries.append(q)
        in_flight += 1
        try:
            res = await sched.submit(root)
        except Exception:  # a refused or failed query counts as failed
            return
        finally:
            q.done = time.perf_counter_ns()
            in_flight -= 1
        parent = res.parent if index >= corrupt else _corrupt(
            res.parent, root
        )
        q.answer = checks.fingerprint(parent, weights)
        q.sim_seconds, q.levels = res.seconds, res.levels
        q.edges = res.traversed_edges

    async with BatchScheduler(session, max_batch=spec.max_batch) as sched:
        await asyncio.gather(*(sched.submit(r) for r in warm[1:]))
        await sched.submit(warm[0])
        first_call = len(calls)
        before = sched.stats()
        gc.collect()
        if tracer is not None:
            tracer.install()
        bursts = []

        def between_phases() -> None:
            if picker is not None:
                picker.pick()
            for _ in range(3):
                reference.sample()

        async def cold(roots) -> None:
            between_phases()
            t0 = time.perf_counter_ns()
            await asyncio.gather(*(one(sched, r, t0) for r in roots))
            bursts.append((len(roots), (time.perf_counter_ns() - t0) / 1e9))

        size = len(burst) // BURSTS
        chunks = [burst[i * size:(i + 1) * size] for i in range(BURSTS)]
        try:
            for chunk in chunks[:BURSTS // 2]:
                await cold(chunk)
            between_phases()
            start = time.perf_counter_ns() + 1_000_000
            interval = 1e9 / spec.rate
            tasks = []
            for i, root in enumerate(paced):
                due = start + int(i * interval)
                delay = (due - time.perf_counter_ns()) / 1e9
                # Only while idle: a batch running here would slow the
                # spin on this CPU and chase the process away.
                if picker is not None and not in_flight and delay > 0.002:
                    picker.pick_if_due()
                    if delay > 0.015:
                        reference.sample_if_due()
                    delay = (due - time.perf_counter_ns()) / 1e9
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(
                    asyncio.ensure_future(one(sched, root, due, paced=True))
                )
            await asyncio.gather(*tasks)
            for chunk in chunks[BURSTS // 2:]:
                await cold(chunk)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = sched.stats()
    measured = calls[first_call:]
    # Every root is distinct, so a root names the one call that
    # answered it.
    call_of = {r: i for i, (_t0, _t1, roots) in enumerate(measured)
               for r in roots}
    for q in queries:
        q.call = call_of.get(q.root, -1)
    cache_before, cache_after = before["result_cache"], after["result_cache"]
    stats = {
        "batches": after["batches"] - before["batches"],
        "coalesced": after["coalesced"] - before["coalesced"],
        "hits": cache_after["hits"] - cache_before["hits"],
        "lookups": cache_after["lookups"] - cache_before["lookups"],
    }
    return Pass(queries, measured, bursts=bursts, sched_stats=stats,
                peak_rss_mb=peak_rss_mb(), reference=reference.samples)


def serve_run(spec: Spec, seed: int, seconds: float, tracer, corrupt: int,
              reps: list[dict], picker) -> tuple[Pass, Pass | None, list,
                                                 np.ndarray]:
    """Build each of the run's graphs in turn (timed, into ``reps``) and
    serve its share of the bursts and the paced queries, then with a
    tracer replay them on a fresh session.

    Returns the untraced pass, the traced one, the graphs and the
    weights the answers were fingerprinted with.
    """
    rng = np.random.default_rng([seed, 1])
    paced_n = max(1, round(spec.rate * spec.paced_share * seconds
                           / spec.graphs))
    burst_n = spec.burst // spec.graphs
    weights = np.random.default_rng([seed, 2]).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max,
        size=1 << spec.scale, dtype=np.int64, endpoint=True,
    )
    untraced, traced = Pass([], []), Pass([], [])
    graphs = []
    for g in range(spec.graphs):
        built = build(spec, graph_seed(seed, g))
        reps.append(built.times)
        graphs.append(built.graph)
        roots = sample_roots(built.graph, rng,
                             spec.warm_burst + burst_n + paced_n)
        warm = roots[:spec.warm_burst]
        burst = roots[spec.warm_burst:spec.warm_burst + burst_n]
        paced = roots[spec.warm_burst + burst_n:]
        untraced.extend(asyncio.run(serve_pass(
            built.runner, spec, warm, burst, paced, weights, picker,
            corrupt=corrupt if g == 0 else 0,
        )), graph=g)
        if tracer is not None:
            traced.extend(asyncio.run(serve_pass(
                built.runner.fresh(), spec, warm, burst, paced, weights,
                picker, tracer=tracer,
            )), graph=g)
        del built
        gc.collect()
    return untraced, traced if tracer is not None else None, graphs, weights


def check_serve(spec: Spec, graphs, queries: list[Query], weights,
                cpus) -> int:
    """Failed answers: each must be bit-identical (parent array and
    simulated seconds, levels, edges) to ``BFSEngine.run`` on its root."""
    refs = checks.reference_answers(
        graphs, paper_cluster(nodes=spec.nodes), spec.config(), weights,
        [(q.graph, q.root) for q in queries], cpus,
    )
    return sum(
        ref != (q.sim_seconds, q.levels, q.edges, q.answer)
        for ref, q in zip(refs, queries, strict=True)
    )


# ---- metrics ----------------------------------------------------------------

#: End-to-end metrics as measured: name -> unit.
HOST = {
    "setup_s": "s",
    "host_teps": "edges/s",
    "serve_qps": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Bounded end-to-end metrics: name -> (unit, host metric, power of the
#: reference scale it takes).  Every workload reports all of them.  The
#: ``*_ref`` host times are scaled by the run's reference workload (see
#: reference.py); set-up time and memory stay as measured.
END_TO_END = {
    "setup_s": ("s", "setup_s", 0),
    "host_teps_ref": ("edges/ref_s", "host_teps", -1),
    "serve_qps_ref": ("1/ref_s", "serve_qps", -1),
    "run_ms_ref_p50": ("ref_ms", "run_ms_p50", 1),
    "run_ms_ref_p90": ("ref_ms", "run_ms_p90", 1),
    "peak_rss_mb": ("MB", "peak_rss_mb", 0),
}

#: Per-layer metrics: name -> unit.  A layer a workload bypasses reads 0.
PER_LAYER = {
    "graph.rmat_s": "s",
    "graph.csr_build_s": "s",
    "prepared.prepare_ms": "ms",
    "engine.self_ms": "ms",
    "engine.levels": "count",
    "topdown.expand_ms": "ms",
    "topdown.expand_calls": "count",
    "topdown.apply_ms": "ms",
    "bottomup.scan_ms": "ms",
    "bottomup.scan_edges_per_s": "edges/s",
    "bottomup.examined_per_gathered": "ratio",
    "mpi.alltoallv_ms": "ms",
    "mpi.alltoallv_calls": "count",
    "mpi.allgather_ms": "ms",
    "mpi.allgather_calls": "count",
    "timing.assemble_ms": "ms",
    "multisource.batch_ms": "ms",
    "multisource.lanes_per_batch": "count",
    "multisource.ms_per_lane": "ms",
    "batched.lane_scan_ms": "ms",
    "batched.pack_lanes_ms": "ms",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.queue_wait_ms_p99": "ms",
    "scheduler.resolve_ms_p99": "ms",
    "scheduler.batches": "count",
    "scheduler.coalesced": "count",
    "scheduler.cache_hit_ratio": "ratio",
    "serve.latency_ms_p50": "ms",
    "serve.latency_ms_p99": "ms",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead": "ratio",
}


def _ms(ns) -> float:
    return ns / 1e6


def _burst_s(p: Pass) -> float:
    return sum(wall for _n, wall in p.bursts)


def _call_ms(p: Pass) -> float:
    return sum(_ms(t1 - t0) for t0, t1, _r in p.calls)


def host_metrics(p: Pass, spec: Spec, reps: list[dict]) -> dict:
    """``{name: (value, unit, samples)}`` as measured in an untraced pass.

    ``run_ms`` is the host time of the engine call that answered each
    query: ``BFSEngine.run`` for single-source runs, and for serving the
    ``run_batch`` call that carried a paced query alone.  Paced queries
    that shared their batch are left out: how many do depends on the
    host's speed (on a CPU shared with two busy processes, two thirds of
    the paced queries shared a batch and p90 over all of them rose 55%),
    and a single-lane batch's cost does not.
    ``serve_qps`` is queries per host second of a single client back to
    back, or the bursts' completion rate.
    """
    qs = p.queries
    edges = sum(q.edges for q in qs)
    if spec.kind == "single":
        run = [_ms(q.done - q.due) for q in qs]
        qps, qps_n = len(qs) / (sum(run) / 1e3), len(qs)
    else:
        alone = [p.calls[q.call] for _i, q in p.paced()
                 if q.call >= 0 and len(p.calls[q.call][2]) == 1]
        if not alone:
            raise BenchError("no paced query ran in a batch of its own")
        run = [_ms(t1 - t0) for t0, t1, _roots in alone]
        qps_n = len(p.burst())
        qps = statistics.median(n / wall for n, wall in p.bursts)
    values = {
        "setup_s": (statistics.median(r["total_s"] for r in reps),
                    len(reps)),
        "host_teps": (edges / (_call_ms(p) / 1e3), len(qs)),
        "serve_qps": (qps, qps_n),
        "run_ms_p50": (percentile(run, 50), len(run)),
        "run_ms_p90": (percentile(run, 90), len(run)),
        "peak_rss_mb": (p.peak_rss_mb, 1),
    }
    return {k: (v, HOST[k], n) for k, (v, n) in values.items()}


def end_to_end(host: dict, reference_ns: float) -> dict:
    """The bounded metrics, ``{name: (value, unit, samples)}``: host
    times scaled to a machine on which the reference takes
    :data:`reference.REF_NS`, the rest as measured."""
    scale = REF_NS / reference_ns
    out = {}
    for name, (unit, source, power) in END_TO_END.items():
        value, _unit, n = host[source]
        out[name] = (value * scale ** power, unit, n)
    return out


def paced_latency(p: Pass) -> list[float]:
    """Serving: each paced query's latency from its due send time (ms);
    a failed query counts with the time it took to fail."""
    return [_ms(q.done - q.due) for _i, q in p.paced()]


def per_layer(untraced: Pass, traced: Pass, tracer: LayerTracer,
              spec: Spec, reps: list[dict]) -> dict:
    """``{name: (value, unit)}``: per query unless the name says
    otherwise (``multisource.*`` and ``batched.*`` are per batch)."""
    tot = tracer.totals()
    n = len(traced.queries)

    def per_query(name, field=1, scale=1e-6):
        return tot.get(name, (0, 0, 0))[field] * scale / n

    batches = tracer.batches
    nb = len(batches)

    def per_batch(name):
        return _ms(tot.get(name, (0, 0, 0))[1]) / nb if nb else 0.0

    scan_s = tot.get("bottomup.scan", (0, 0, 0))[1] / 1e9
    examined = tracer.counts["bottomup.examined"]
    gathered = tracer.counts["bottomup.gathered"]
    values = {
        "graph.rmat_s": statistics.median(r["rmat_s"] for r in reps),
        "graph.csr_build_s": statistics.median(r["csr_s"] for r in reps),
        "prepared.prepare_ms": 1e3 * statistics.median(
            r["prepare_s"] for r in reps
        ),
        "engine.self_ms": per_query("engine.run", field=2),
        "engine.levels": sum(q.levels for q in traced.queries) / n,
        "topdown.expand_ms": per_query("topdown.expand"),
        "topdown.expand_calls": per_query("topdown.expand", 0, 1),
        "topdown.apply_ms": per_query("topdown.apply"),
        "bottomup.scan_ms": per_query("bottomup.scan"),
        "bottomup.scan_edges_per_s": examined / scan_s if scan_s else 0.0,
        # cnative reads the CSR in place and reports nothing gathered:
        # it touches exactly the edges it examines.
        "bottomup.examined_per_gathered": (
            examined / gathered if gathered else float(examined > 0)
        ),
        "mpi.alltoallv_ms": per_query("mpi.alltoallv"),
        "mpi.alltoallv_calls": per_query("mpi.alltoallv", 0, 1),
        "mpi.allgather_ms": per_query("mpi.allgather"),
        "mpi.allgather_calls": per_query("mpi.allgather", 0, 1),
        "timing.assemble_ms": per_query("timing.assemble"),
        "multisource.batch_ms": per_batch("multisource.run_batch"),
        "multisource.lanes_per_batch": (
            sum(lanes for _ns, lanes in batches) / nb if nb else 0.0
        ),
        "multisource.ms_per_lane": (
            sum(_ms(ns) / lanes for ns, lanes in batches) / nb if nb else 0.0
        ),
        "batched.lane_scan_ms": per_batch("batched.lane_scan"),
        "batched.pack_lanes_ms": per_batch("batched.pack_lanes"),
        "scheduler.queue_wait_ms_p50": 0.0,
        "scheduler.queue_wait_ms_p99": 0.0,
        "scheduler.resolve_ms_p99": 0.0,
        "scheduler.batches": float(traced.sched_stats.get("batches", 0)),
        "scheduler.coalesced": float(traced.sched_stats.get("coalesced", 0)),
        "scheduler.cache_hit_ratio": (
            traced.sched_stats["hits"] / traced.sched_stats["lookups"]
            if traced.sched_stats.get("lookups") else 0.0
        ),
        "serve.latency_ms_p50": 0.0,
        "serve.latency_ms_p99": 0.0,
        "loadgen.late_ms_p99": 0.0,
        "trace.overhead": _call_ms(traced) / _call_ms(untraced) - 1.0,
    }
    if spec.kind == "serve":
        paced = [q for _i, q in traced.paced() if q.call >= 0]
        waits = [_ms(traced.calls[q.call][0] - q.sent) for q in paced]
        resolves = [_ms(q.done - traced.calls[q.call][1]) for q in paced]
        late = [_ms(q.sent - q.due) for _i, q in untraced.paced()]
        latency = paced_latency(untraced)
        values.update({
            "serve.latency_ms_p50": percentile(latency, 50),
            "serve.latency_ms_p99": percentile(latency, 99),
            "scheduler.queue_wait_ms_p50": percentile(waits, 50),
            "scheduler.queue_wait_ms_p99": percentile(waits, 99),
            "scheduler.resolve_ms_p99": percentile(resolves, 99),
            "loadgen.late_ms_p99": percentile(late, 99),
            "trace.overhead": _burst_s(traced) / _burst_s(untraced) - 1.0,
        })
    return {k: (float(v), PER_LAYER[k]) for k, v in values.items()}


def _request_spans(tracer: LayerTracer, p: Pass) -> None:
    """Add each serving query's submit span, and each paced query's
    queue wait and resolve, as request spans keyed by query index."""
    for i, q in enumerate(p.queries):
        tracer.record("request.submit", q.sent, q.done, request=i)
        if not q.paced or q.call < 0:
            continue
        c0, c1, _roots = p.calls[q.call]
        tracer.record("request.queue_wait", q.sent, c0, request=i)
        tracer.record("request.resolve", c1, q.done, request=i)


def _sim_mismatches(a: Pass, b: Pass) -> int:
    return sum(
        (x.root, x.sim_seconds, x.levels, x.edges)
        != (y.root, y.sim_seconds, y.levels, y.edges)
        for x, y in zip(a.queries, b.queries, strict=True)
    )


# ---- one run ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 smoke: bool = False, corrupt: int = 0,
                 span_path: str | None = None, cpus=None,
                 picker=None) -> Report:
    """Set up, measure, optionally trace, and check one workload.

    ``corrupt`` damages that many answers before they are checked; the
    benchmark's self-tests use it to prove that wrong answers count.
    The checks run one process per CPU in ``cpus`` (default: every CPU
    this process may use); ``picker`` (a :class:`cpus.CpuPicker`) keeps
    the timed passes on the least contended CPU.
    """
    spec = (SMOKE if smoke else SPECS)[name]
    cpus = cpus or tuple(sorted(os.sched_getaffinity(0)))
    tracer = LayerTracer() if trace else None
    reps: list[dict] = []
    if spec.kind == "single":
        untraced, traced, graphs = single_run(
            spec, seed, seconds, tracer, corrupt, reps, picker,
        )
        top_up_setups(spec, seed, reps)
        failed = check_single(graphs, untraced.queries, cpus)
    else:
        untraced, traced, graphs, weights = serve_run(
            spec, seed, seconds, tracer, corrupt, reps, picker,
        )
        if traced is not None:
            _request_spans(tracer, traced)
        top_up_setups(spec, seed, reps)
        failed = check_serve(spec, graphs, untraced.queries, weights, cpus)
    if traced is not None:
        failed += _sim_mismatches(untraced, traced)
        if span_path is not None:
            tracer.write_chrome_trace(span_path)
    host = host_metrics(untraced, spec, reps)
    reference_ns = statistics.median(untraced.reference)
    report = Report(
        host=host,
        end_to_end=end_to_end(host, reference_ns),
        per_layer=(
            per_layer(untraced, traced, tracer, spec, reps) if trace else {}
        ),
        attempted=len(untraced.queries),
        failed=failed,
        sim_digest=untraced.digest(),
        traced_digest=traced.digest() if traced is not None else None,
        setup_reps=[r["total_s"] for r in reps],
        reference_ns=reference_ns,
    )
    if traced is not None:
        report.traced_query_ms = _call_ms(traced) / len(traced.queries)
    if spec.kind == "serve":
        report.paced_ms = paced_latency(untraced)
    return report
