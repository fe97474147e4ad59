"""Outside-in per-layer tracing for the host benchmark.

The traced pass times calls *into* each layer's public functions from
the benchmark's side: :class:`LayerTracer` swaps the module attributes
the program resolves at call time for timing wrappers, records one span
per call (name, start, end, parent span, request id) in memory, and puts
every original back when the pass ends.  Nothing under ``src/`` knows it
is being traced.

Self time of a span is its duration minus the durations of its direct
children, so ``engine.self_ms`` is ``BFSEngine.run`` minus the wrapped
layer calls it made (expand, apply, scan, alltoallv, allgather,
assemble) — the per-rank Python orchestration.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict

# Layer functions wrapped in the traced pass, as (span name, module,
# attribute).  Several modules import ``allgather`` / ``assemble`` /
# ``pack_lanes`` by name, so each of those bindings is patched too; one
# wrapper per underlying function keeps a call from being counted twice.
PATCHES = (
    ("engine.run", "repro.core.engine", "BFSEngine.run"),
    ("topdown.expand", "repro.core.topdown", "expand"),
    ("topdown.apply", "repro.core.topdown", "apply_received"),
    ("bottomup.scan", "repro.core.bottomup", "scan"),
    ("mpi.alltoallv", "repro.mpi.simcomm", "SimComm.alltoallv"),
    ("mpi.allgather", "repro.mpi.collectives", "allgather"),
    ("mpi.allgather", "repro.core.engine", "allgather"),
    ("mpi.allgather", "repro.core.multisource", "allgather"),
    ("timing.assemble", "repro.core.timing", "assemble"),
    ("timing.assemble", "repro.core.engine", "assemble"),
    ("timing.assemble", "repro.core.multisource", "assemble"),
    ("multisource.run_batch", "repro.core.multisource",
     "MultiSourceEngine.run_batch"),
    ("batched.lane_scan", "repro.core.kernels.batched", "lane_scan"),
    ("batched.pack_lanes", "repro.core.kernels.batched", "pack_lanes"),
    ("batched.pack_lanes", "repro.core.multisource", "pack_lanes"),
)


def _count_scan(tracer, out, _ns) -> None:
    tracer.counts["bottomup.examined"] += out.examined_edges
    tracer.counts["bottomup.gathered"] += out.gathered_edges


def _count_batch(tracer, out, ns) -> None:
    tracer.batches.append((ns, len(out)))


_COUNTERS = {
    "bottomup.scan": _count_scan,
    "multisource.run_batch": _count_batch,
}


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """In-memory span recorder plus the patch set that feeds it.

    Spans are tuples ``(name, start_ns, end_ns, span_id, parent_id,
    request, thread)``; ``child_ns[span_id]`` accumulates the time of
    direct children so self time needs no second pass.  A per-thread
    stack supplies the parent, so spans from the serving executor thread
    and the event loop never nest into each other.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.child_ns: dict[int, int] = defaultdict(int)
        #: Counters read from return values: bottom-up examined and
        #: gathered edges, and ``(ns, lanes)`` per batch run.
        self.counts: dict[str, int] = defaultdict(int)
        self.batches: list[tuple[int, int]] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._saved: list[tuple] = []
        self.request = None
        self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start_ns, end_ns, parent=0, request=None):
        """Record a span that was not produced by a wrapped call (e.g. a
        request's queue wait, known only afterwards)."""
        with self._lock:
            sid = next(self._ids)
            self.spans.append(
                (name, start_ns, end_ns, sid, parent, request,
                 threading.get_ident())
            )
        return sid

    def wrap(self, name: str, fn):
        """A timing wrapper around ``fn`` that records ``name`` spans.

        Bottom-up scans and batch runs also fold counts from their
        return values into :attr:`counts`.
        """
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        (name, t0, t1, sid, parent, tracer.request,
                         threading.get_ident())
                    )
                    if parent:
                        tracer.child_ns[parent] += t1 - t0
            if count is not None:
                with tracer._lock:
                    count(tracer, out, t1 - t0)
            return out

        return wrapper

    def install(self) -> None:
        """Swap every binding in :data:`PATCHES` for its wrapper."""
        wrappers: dict[int, object] = {}
        for name, module_name, dotted in PATCHES:
            owner, attr = _resolve(module_name, dotted)
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        self.active = True

    def uninstall(self) -> None:
        """Put every original binding back."""
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """``{span name: (calls, total ns, self ns)}`` over all spans."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for name, t0, t1, sid, _parent, _req, _tid in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - self.child_ns.get(sid, 0)
        return {k: tuple(v) for k, v in out.items()}

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto).

        Call spans become complete (``X``) events on their thread; each
        carries its span id, parent id and request id in ``args``.
        Request-scoped spans recorded from the event loop overlap one
        another, so they are written as async (``b``/``e``) events keyed
        by request id instead.
        """
        tids: dict[int, int] = {}
        events = []
        base = min((s[1] for s in self.spans), default=0)
        for name, t0, t1, sid, parent, req, tid in self.spans:
            args = {"id": sid, "parent": parent, "request": req}
            ts = (t0 - base) / 1e3
            if name.startswith("request."):
                common = {"name": name, "cat": "request", "pid": 1,
                          "id": str(req), "args": args}
                events.append({**common, "ph": "b", "ts": ts})
                events.append({**common, "ph": "e", "ts": (t1 - base) / 1e3})
                continue
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": ts, "dur": (t1 - t0) / 1e3, "pid": 1,
                "tid": tids.setdefault(tid, len(tids) + 1), "args": args,
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
